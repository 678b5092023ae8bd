#!/usr/bin/env python3
"""Gate on the E18 incremental-rewrangle result (BENCH_e18.json).

The regressions this guards:

* **Reuse economics** — a 1-source update on the 40-source fleet must cost
  less than a cold recompute (cold = same session state with every stage
  memo dropped), and must actually reuse: at least `num_sources - 1` union
  blocks replayed. If partition memoization stops firing — a fingerprint
  accidentally covering volatile state, the PartitionIsolated fact no
  longer established, the ER remap fast path dead — the pass pays the full
  recompute *plus* memo capture, the ratio climbs past 1.0 (the k=40 row,
  where nothing is clean, reads 1.19-1.38) and this fails loudly. The
  ratio is a same-machine, same-run comparison, so it is robust to
  absolute CI speed.
* **Stale reuse** — every row of the sweep (k = 0 dirty sources through all
  40) must report `identical: true`: the incremental pass is byte-identical
  (`f64::to_bits`, canonical table hash) to the cold comparator. A single
  false here means a memo replayed bytes the cold path would not produce.
* **Remap share** — on a 1-source update the ER memo must answer at least
  REMAP_FLOOR of the pass's candidate pairs by index remap
  (`pairs_remapped / candidates`); the rest are scored live.

Where RATIO_LIMIT comes from. The limit was 0.25 while a cold pass also
rendered, looked up and inserted a content key per candidate pair, then 0.50
once that cache was gone (the old limit scaled by how much cheaper cold
became). The dictionary-encoded ER kernel made cold ER ~5x cheaper again, and
the same scaling would put the limit above 2 — no gate at all — because what
an update still pays in full (fusion, candidate generation, kernel compile,
memo capture) is now most of a cold pass. So the limit is re-derived from
what the ratio separates. Six alternating runs of `e18_incremental` on the
2-core VM, parent commit then this one:

    parent k=1 cold_secs  0.1177 0.1185 0.1183 0.1205 0.1188 0.1199
    change k=1 cold_secs  0.0258 0.0257 0.0255 0.0258 0.0255 0.0259
    parent k=1 incr_secs  0.0434 0.0441 0.0432 0.0443 0.0440 0.0452
    change k=1 incr_secs  0.0205 0.0205 0.0207 0.0210 0.0204 0.0206
    change k=1 ratio      0.795  0.799  0.811  0.816  0.802  0.797   (reuse firing)
    change k=40 ratio     1.346  1.383  1.275  1.256  1.249  1.278   (nothing to reuse)

    Later runs, taken at moments when this VM gives its two vCPUs one core's
    worth of throughput (the cold comparator then reads ~37 ms), put the
    k=1 ratio at 0.63-0.67 and the k=40 ratio at 1.19-1.25. 1.00 sits 0.18
    above the worst reuse-firing run and 0.19 below the best nothing-reused
    run; the block-reuse check is exact.
"""

import json
import sys

RATIO_LIMIT = 1.00  # incr/cold ceiling for a 1-source update
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

    if one is not None:
        floor = data["num_sources"] - 1
        reused = one["blocks_reused"]
        verdict = "ok" if reused >= floor else "FAIL"
        print(f"e18 block reuse [k=1]: {reused} union blocks replayed (floor {floor}) -> {verdict}")
        if reused < floor:
            failures.append("block-reuse")

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
