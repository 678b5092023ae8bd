#!/usr/bin/env bash
# Reach census: which public functions and modules of the production crates
# nothing outside their own file uses. A report, not a gate.
#
# Every `pub fn NAME` and `pub mod NAME` under crates/*/src (crates/bench
# excluded) is looked up, as a whole word, in four places:
#   prod      non-test code of the *other* production files (crates/*/src
#             minus crates/bench, plus the facade's src/): the lines before a
#             file's first `#[cfg(test)]`, the rule scripts/loc.sh counts by;
#   bench     crates/bench and bench/ (experiments, benches, the harness);
#   examples  examples/;
#   tests     the root package's tests/.
# Whole-line `//` comments are ignored everywhere. Matching is by word, so a
# name that collides with another identifier errs towards "reached".
# Prints one line per item that none of the four reaches, then a summary.
# Usage: scripts/reach.sh
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Non-test, non-comment lines of every production file, mirrored under
# $work/prod so a file can be excluded by its path.
prod_files=$(find crates/*/src src -name '*.rs' -not -path 'crates/bench/*' | sort)
for f in $prod_files; do
  mkdir -p "$work/prod/$(dirname "$f")"
  awk '/#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print }' "$f" > "$work/prod/$f"
done
# The other three places: whole files, comment lines dropped.
for place in bench examples tests; do
  case "$place" in
    bench) dirs="crates/bench bench" ;;
    *) dirs="$place" ;;
  esac
  # shellcheck disable=SC2086
  find $dirs -name '*.rs' -not -path '*/target/*' | sort | while read -r f; do
    cat "$f"
  done | grep -v '^[[:space:]]*//' > "$work/$place.rs" || true
done

total=0
unreached=0
for f in $prod_files; do
  case "$f" in src/*) continue ;; esac
  # kind name line, for the file's non-test public items
  awk '/#\[cfg\(test\)\]/ { exit }
    match($0, /^[[:space:]]*pub (const |unsafe |async )*fn [A-Za-z_][A-Za-z0-9_]*/) {
      s = substr($0, RSTART, RLENGTH); sub(/.*fn /, "", s); print "fn", s, FNR }
    match($0, /^[[:space:]]*pub mod [A-Za-z_][A-Za-z0-9_]*/) {
      s = substr($0, RSTART, RLENGTH); sub(/.*mod /, "", s); print "mod", s, FNR }' "$f" \
    > "$work/items"
  while read -r kind name line; do
    total=$((total + 1))
    users=$(grep -rlw -- "$name" "$work/prod" || true)
    if [ -n "$(grep -vx -- "$work/prod/$f" <<< "$users" || true)" ]; then
      continue
    fi
    reached=0
    for place in bench examples tests; do
      if grep -qw -- "$name" "$work/$place.rs"; then
        reached=1
        break
      fi
    done
    if [ "$reached" = 0 ]; then
      echo "reach: $f:$line pub $kind $name"
      unreached=$((unreached + 1))
    fi
  done < "$work/items"
done
echo "reach: $unreached of $total public items reached by nothing outside their own file"
