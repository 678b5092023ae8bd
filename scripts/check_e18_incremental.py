#!/usr/bin/env python3
"""Gate on the E18 incremental-rewrangle result (BENCH_e18.json).

The regressions this guards:

* **Reuse economics** — a 1-source update on the 40-source fleet must cost
  at most RATIO_LIMIT of a cold recompute (cold = same session state with
  every stage memo dropped). If partition memoization
  stops firing — a fingerprint accidentally covering volatile state, the
  PartitionIsolated fact no longer established, the ER remap fast path dead
  — the ratio climbs back toward 1.0 and this fails loudly. The ratio is a
  same-machine, same-run comparison, so it is robust to absolute CI speed.
* **Stale reuse** — every row of the sweep (k = 0 dirty sources through all
  40) must report `identical: true`: the incremental pass is byte-identical
  (`f64::to_bits`, canonical table hash) to the cold comparator. A single
  false here means a memo replayed bytes the cold path would not produce.
* **Remap share** — on a 1-source update the ER memo must answer at least
  REMAP_FLOOR of the pass's candidate pairs by index remap
  (`pairs_remapped / candidates`); the rest are scored live.

Where RATIO_LIMIT comes from. The limit was 0.25 while a cold pass also
rendered, looked up and inserted a content key per candidate pair. Removing
that cache took the tax out of the denominator (cold) and left the numerator
(incr) almost alone, so the same protection is the old limit scaled by how
much cheaper cold became. Six alternating runs of `e18_incremental` on the
2-core VM, parent commit then this one, k=1 row:

    parent cold_secs  0.2493 0.2603 0.2526 0.2449 0.2522 0.2459  median 0.2508
    change cold_secs  0.1203 0.1323 0.1384 0.1211 0.1331 0.1288  median 0.1306
    parent incr_secs  0.0589 0.0562 0.0560 0.0539 0.0564 0.0545
    change incr_secs  0.0451 0.0455 0.0460 0.0461 0.0466 0.0450
    change ratio      0.375  0.344  0.332  0.381  0.350  0.349

    0.25 x (0.2508 / 0.1306) = 0.480, rounded up to the next 0.05 = 0.50
"""

import json
import sys

RATIO_LIMIT = 0.50  # incr/cold ceiling for a 1-source update
REMAP_FLOOR = 0.90  # share of k=1 candidate pairs the ER memo must remap


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_e18.json"
    with open(path, encoding="utf-8") as f:
        data = json.load(f)

    rows = data["rows"]
    failures = []

    for row in rows:
        mark = "ok" if row["identical"] else "FAIL"
        print(
            f"e18 identity [k={row['k']}]: incremental vs cold "
            f"{'byte-identical' if row['identical'] else 'DIVERGED'} -> {mark}"
        )
        if not row["identical"]:
            failures.append(f"identity@k={row['k']}")

    one = next((r for r in rows if r["k"] == 1), None)
    if one is None:
        print("e18 ratio: no k=1 row in the sweep")
        failures.append("missing-k1")
    else:
        ratio = one["ratio"]
        verdict = "ok" if ratio <= RATIO_LIMIT else "FAIL"
        print(
            f"e18 ratio [k=1, {data['num_sources']} sources]: "
            f"cold = {1e3 * one['cold_secs']:.1f} ms, "
            f"incr = {1e3 * one['incr_secs']:.1f} ms, "
            f"ratio = {ratio:.3f} (limit {RATIO_LIMIT}) -> {verdict}"
        )
        if ratio > RATIO_LIMIT:
            failures.append("ratio@k=1")

    share = data.get("remap_share", 0.0)
    verdict = "ok" if share >= REMAP_FLOOR else "FAIL"
    print(
        f"e18 remap share [k=1]: {share:.1%} of {data.get('candidates', 0)} "
        f"candidate pairs (floor {REMAP_FLOOR:.0%}) -> {verdict}"
    )
    if share < REMAP_FLOOR:
        failures.append("remap-share")

    if failures:
        print(f"e18 incremental gate: FAILED ({', '.join(failures)})")
        return 1
    print("e18 incremental gate: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
