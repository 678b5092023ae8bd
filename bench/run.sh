#!/usr/bin/env bash
# Build perf_suite from source, offline, then run it with the given arguments.
#
#   bench/run.sh                                   all workloads, end to end
#   bench/run.sh --trace 1                         all workloads, per layer
#   bench/run.sh --workload wide6 --seed 12 --seconds 12 --trace 0
#   bench/run.sh --counts                          the deterministic half
#   bench/run.sh compare bench/baseline.json bench/out/result.end_to_end.json
#
# Run from the repository root. The build lands in $CARGO_TARGET_DIR when that
# is set (relative paths resolve against the root), else in bench/target.
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perf_suite" "$@"
