#!/usr/bin/env bash
# Full local verification: what CI runs, in the same order.
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q (root package — tier-1)"
cargo test -q

echo "==> cargo test --workspace -q (full suite)"
cargo test --workspace -q

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> scripts/lint.sh (source-level gate)"
scripts/lint.sh

echo "==> scripts/loc.sh (informational: non-test lines of wrangler-core and wrangler-resolve)"
scripts/loc.sh

echo "==> e11 determinism (two runs must be byte-identical)"
tmp_a=$(mktemp) && tmp_b=$(mktemp)
trap 'rm -f "$tmp_a" "$tmp_b"' EXIT
./target/release/e11_robustness > "$tmp_a"
./target/release/e11_robustness > "$tmp_b"
diff "$tmp_a" "$tmp_b"

echo "==> e12 determinism (two runs must be byte-identical)"
./target/release/e12_lint > "$tmp_a"
./target/release/e12_lint > "$tmp_b"
diff "$tmp_a" "$tmp_b"

echo "==> e13 observability (full run + count-field determinism)"
./target/release/e13_observability
./target/release/e13_observability --counts > "$tmp_a"
./target/release/e13_observability --counts > "$tmp_b"
diff "$tmp_a" "$tmp_b"

echo "==> e14 kernel scaling, ER + fuse (full run + count-field determinism)"
./target/release/e14_er_scaling
./target/release/e14_er_scaling --counts > "$tmp_a"
./target/release/e14_er_scaling --counts > "$tmp_b"
diff "$tmp_a" "$tmp_b"

echo "==> e14 scaling gate (kernel_ms@4 must not regress vs @1 on the large fleet)"
python3 scripts/check_e14_scaling.py BENCH_e14.json

echo "==> e15 containment (full run + count/report determinism)"
./target/release/e15_containment
./target/release/e15_containment --counts > "$tmp_a"
./target/release/e15_containment --counts > "$tmp_b"
diff "$tmp_a" "$tmp_b"

echo "==> e16 plan optimization (full run + count/rewrite-ledger determinism)"
./target/release/e16_plan_opt
./target/release/e16_plan_opt --counts > "$tmp_a"
./target/release/e16_plan_opt --counts > "$tmp_b"
diff "$tmp_a" "$tmp_b"

echo "==> e17 crash recovery (full run + resumed-run count determinism)"
./target/release/e17_crash_recovery
./target/release/e17_crash_recovery --counts > "$tmp_a"
./target/release/e17_crash_recovery --counts > "$tmp_b"
diff "$tmp_a" "$tmp_b"

echo "==> e18 incremental rewrangle (full run + count-field determinism)"
./target/release/e18_incremental
./target/release/e18_incremental --counts > "$tmp_a"
./target/release/e18_incremental --counts > "$tmp_b"
diff "$tmp_a" "$tmp_b"

echo "==> e18 incremental gate (1-source update <= 0.80x cold, no-change pass <= 0.50x, all-sources update <= 1.25x; exactly 39 of 40 blocks replayed; >= 90% of pairs carried; identity everywhere)"
python3 scripts/check_e18_incremental.py BENCH_e18.json

echo "==> perf_suite builds and passes its own tests (bench/ is its own workspace)"
( cd bench && cargo test --release --offline )

echo "==> perf_suite --counts determinism (two runs must be byte-identical)"
bench/run.sh --counts --workload sparse400 > "$tmp_a"
bench/run.sh --counts --workload sparse400 > "$tmp_b"
diff "$tmp_a" "$tmp_b"

echo "==> lint baseline ratchet (new findings vs lint-baseline.json fail)"
./target/release/lint_gate

echo "verify: all green"
