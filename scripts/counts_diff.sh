#!/usr/bin/env bash
# Byte-identity of a refactor: every deterministic output of this checkout
# against the same outputs of REV, as a diff. Empty output means no
# behaviour moved.
#
# REV is checked out in a temporary `git worktree` and built there with its
# own CARGO_TARGET_DIR, so this checkout's builds are untouched; this
# checkout builds into its usual target directories. Both sides then run
#   * `e11_robustness` … `e18_incremental --counts` (E11 and E12 print their
#     whole output, which is deterministic; E13–E18 print their counters),
#   * `bench/run.sh --counts` for dense40, wide6 and sparse400 at seeds 11
#     and 12,
# and every output that differs is printed as a unified diff labelled
# `REV/<output>` and `HEAD/<output>`. Exit status 1 when anything differs.
# Temporary files go under $TMPDIR (default /tmp).
# Usage: scripts/counts_diff.sh REV
set -euo pipefail
cd "$(dirname "$0")/.."
rev="${1:?usage: scripts/counts_diff.sh REV}"
here="$PWD"
work="$(mktemp -d)"
cleanup() {
  git -C "$here" worktree remove --force "$work/tree" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT
git worktree add --quiet --detach "$work/tree" "$rev"

EXPERIMENTS=(e11_robustness e12_lint e13_observability e14_er_scaling
  e15_containment e16_plan_opt e17_crash_recovery e18_incremental)

# collect ROOT WS_TARGET BENCH_TARGET OUT: build the checkout at ROOT (the
# workspace into WS_TARGET, bench/ into BENCH_TARGET) and write each output
# to OUT/<name>.txt.
collect() {
  local root="$1" ws="$2" bench="$3" out="$4"
  mkdir -p "$out"
  echo "counts_diff: building $root" >&2
  (cd "$root" && CARGO_TARGET_DIR="$ws" cargo build --release --workspace --quiet) >&2
  for bin in "${EXPERIMENTS[@]}"; do
    # Run from OUT so that nothing a binary writes lands in a checkout.
    (cd "$out" && "$ws/release/$bin" --counts) > "$out/$bin.txt"
  done
  for workload in dense40 wide6 sparse400; do
    for seed in 11 12; do
      (cd "$root" && CARGO_TARGET_DIR="$bench" bash bench/run.sh --counts \
        --workload "$workload" --seed "$seed") > "$out/bench.$workload.seed$seed.txt"
    done
  done
}

collect "$work/tree" "$work/target" "$work/target-bench" "$work/rev"
collect "$here" "$here/target" "$here/bench/target" "$work/head"

status=0
for f in "$work/rev"/*.txt; do
  name="$(basename "$f")"
  diff -u --label "REV/$name" --label "HEAD/$name" "$f" "$work/head/$name" || status=1
done
exit "$status"
