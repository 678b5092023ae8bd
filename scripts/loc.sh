#!/usr/bin/env bash
# Non-test line counts of the two crates a simplification PR is measured on.
# A file's non-test lines are the ones before its first `#[cfg(test)]` — the
# rule scripts/lint.sh scans by (test modules sit at the end of each file).
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/core/src crates/resolve/src; do
  n=$(find "$dir" -name '*.rs' | sort | xargs awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { n++ }
    END { print n + 0 }
  ')
  echo "loc: $dir $n non-test lines"
  total=$((total + n))
done
echo "loc: total $total"
