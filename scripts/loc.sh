#!/usr/bin/env bash
# Non-test line counts of the production crates a simplification PR is
# measured on. A file's non-test lines are the ones before its first
# `#[cfg(test)]` — the rule scripts/lint.sh scans by (test modules sit at the
# end of each file). `loc: total` counts core + resolve only, so that it stays
# comparable across changes; `loc: total (five crates)` adds fusion, table
# and sources; `loc: workspace` sums every production crate (crates/*/src,
# crates/bench excluded).
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$1" -name '*.rs' | sort | xargs awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { n++ }
    END { print n + 0 }
  '
}

total=0
for dir in crates/core/src crates/resolve/src; do
  n=$(count "$dir")
  echo "loc: $dir $n non-test lines"
  total=$((total + n))
done
echo "loc: total $total"
all=$total
for dir in crates/fusion/src crates/table/src crates/sources/src; do
  n=$(count "$dir")
  echo "loc: $dir $n non-test lines"
  all=$((all + n))
done
echo "loc: total (five crates) $all"
workspace=0
for dir in crates/*/src; do
  [ "$dir" = crates/bench/src ] && continue
  workspace=$((workspace + $(count "$dir")))
done
echo "loc: workspace $workspace"
