#!/usr/bin/env python3
"""Gate on the E18 incremental-rewrangle result (BENCH_e18.json).

The regressions this guards:

* **Stale reuse** — every row of the sweep (k = 0 dirty sources through all
  40) must report `identical: true`: the incremental pass is byte-identical
  (`f64::to_bits`, canonical table hash) to the cold comparator. A single
  false here means a memo replayed bytes the cold path would not produce.
* **Block reuse** — a 1-source update must replay exactly
  `num_sources - 1` union blocks. Fewer means a fingerprint covers volatile
  state or the PartitionIsolated fact is no longer established; more means
  the dirty block was served stale.
* **Carried share** — on a 1-source update the ER memo must decide at least
  REMAP_FLOOR of the pass's candidate pairs (`pairs_remapped / candidates`)
  without scoring them; the rest are scored live.
* **Reuse economics** — a pass after no change (k=0: union blocks, ER and
  fuse all replay) must cost at most REPLAY_LIMIT of a cold recompute, and
  a 1-source update at most RATIO_LIMIT (cold = same session state with
  every stage memo dropped). If the ER carry dies, k=1 climbs back to
  0.92-1.18 and this fails. The ratio is a same-machine, same-run
  comparison, so it is robust to absolute CI speed — but not to how many
  real cores the VM has at that moment (EXPERIMENTS E14): the cold pass
  scores in parallel, the update barely scores at all, so with two real
  cores cold gets cheaper and every ratio reads ~1.2x higher.
* **Capture economics** — a pass that reuses nothing (k = all sources: every
  block recomputed, nothing carried) must cost at most ALL_LIMIT of its
  incr-off twin: what it pays on top is the capture for the *next* pass's
  reuse. k=8 and k=20, between which an update starts to cost what
  recomputing cold does, are printed and not gated.

Where the limits come from. The rule for RATIO_LIMIT: median k=1 ratio of
at least six fresh `e18_incremental` runs, alternating with the parent
commit, x 1.15, rounded up to the next 0.05 — taken in the machine state
that reads highest, because the gate has to be green in both. (It was 0.25
while a cold pass also rendered and inserted a content key per candidate
pair, 0.50 after PR 13 removed that cache, and unreachable after PR 14's
kernel made the cold pass ~5x cheaper: fusion and the non-ER stages alone
are 0.43 of one.) Two sets of eight alternating runs on the 2-core VM,
PR 14 (parent) then PR 15 (change: the ER memo remembers matched pairs,
not scores), k=1 row.

Two real cores (E14 read @4/@1 = 0.595 minutes before):

    parent cold_secs  0.0244 0.0244 0.0243 0.0242 0.0243 0.0245 0.0243 0.0245
    change cold_secs  0.0240 0.0241 0.0238 0.0241 0.0238 0.0241 0.0240 0.0238
    parent incr_secs  0.0275 0.0278 0.0283 0.0284 0.0283 0.0284 0.0279 0.0280
    change incr_secs  0.0176 0.0176 0.0177 0.0174 0.0174 0.0175 0.0180 0.0174
    parent ratio      1.129  1.137  1.164  1.176  1.165  1.158  1.145  1.144
    change ratio      0.733  0.730  0.745  0.719  0.732  0.727  0.751  0.732

    median 0.7321 x 1.15 = 0.842, rounded up to the next 0.05 = 0.85

One core's worth of throughput across both vCPUs:

    parent cold_secs  0.0314 0.0320 0.0319 0.0325 0.0324 0.0331 0.0320 0.0326
    change cold_secs  0.0318 0.0327 0.0318 0.0328 0.0333 0.0330 0.0326 0.0326
    parent incr_secs  0.0294 0.0295 0.0295 0.0302 0.0308 0.0305 0.0303 0.0311
    change incr_secs  0.0199 0.0204 0.0201 0.0206 0.0203 0.0205 0.0203 0.0205
    parent ratio      0.937  0.921  0.926  0.931  0.952  0.920  0.948  0.953
    change ratio      0.626  0.625  0.632  0.628  0.609  0.623  0.622  0.629

    median 0.6256 x 1.15 = 0.719, rounded up to the next 0.05 = 0.75

The larger limit, 0.85, is in force. The parent — a carry that costs what
scoring does — reads 0.92 at its best, so the gate still tells the two
apart in either state. REPLAY_LIMIT is not derived from a margin: k=0 read
0.137-0.144 in the one-core set and 0.183-0.188 in the two-core one, and
0.50 says "a pass that changes nothing costs under half a pass".

PR 17 compiled the fuse stage (7.9 -> ~2.2 ms on this fleet). Fusion is paid
in full by the cold pass and by a k=1 update and not at all by k=0, so cold
and k=1 fell by the same ~6 ms and k=0 stayed where it was: two real cores
now read cold = 17.7-18.8 ms, k=1 = 11.7 ms (0.660), k=0 = 4.0 ms (0.211).
Both limits hold with more room for k=1 and less for k=0, and are unchanged.

ALL_LIMIT, by the same rule. PR 19 (a mapped table is hashed once, the block
list is the union's key, no whole-union hash, no program fingerprint without
a store) against its parent (PR 17), sixteen alternating runs, k=40 row. The
VM changed state within the runs (one CPU-bound process beside a second read
1.0x to 1.9x its time alone between them), so they are one set; at k=40 both
sides score every pair, so the state moves this ratio less than its noise:

    parent ratio  1.127 1.248 1.340 1.232 1.377 1.318 1.229 1.135
                  1.207 1.188 1.275 1.151 1.175 1.267 1.250 1.339   median 1.240
    change ratio  1.132 0.901 1.015 0.915 1.199 0.945 1.083 1.139
                  0.978 1.066 1.054 1.052 1.090 0.908 1.104 1.185   median 1.060

    median 1.060 x 1.15 = 1.219, rounded up to the next 0.05 = 1.25

The parent's median sits just under that and 6 of its 16 runs over it: the
ceiling catches a capture cost that grows back past the parent's, not every
run of the parent. The same runs read k=20 at 1.131 (parent) and 0.970
(change), k=1 at 0.607 and 0.551, k=0 at 0.186 and 0.114 (the no-change pass
no longer hashes the union to find out nothing changed).

PR 23 (ER decides instead of scoring; no candidate list) halved the cold pass
again and an update's ER less — an update still walks every pair to ask the
carry about it — so every ratio rose while every absolute time fell. Eight
alternating runs per side, a two-thread spin check before each (two real
cores throughout), medians of cold ms / incr ms / ratio:

              parent (PR 19)             change (PR 23)
    k=0    26.4 /  2.97 / 0.109       15.4 /  2.79 / 0.179
    k=1    26.4 / 14.71 / 0.551       14.2 /  9.78 / 0.658
    k=8    27.0 / 20.98 / 0.770       15.3 / 15.72 / 0.981
    k=20   25.6 / 26.25 / 0.949       17.5 / 17.41 / 1.039
    k=40   31.9 / 32.32 / 1.002       19.2 / 19.38 / 1.018

    change k=1 ratio   0.747 0.681 0.642 0.674 0.639 0.622 0.697 0.631
    change k=40 ratio  1.032 1.017 1.038 0.885 0.943 1.020 1.002 1.074

The other state, reproduced on demand with `taskset -c 0` (the pool policy
sees one core and decides serially; six runs per side): change k=0 0.128,
k=1 0.548 (0.517-0.739), k=40 1.054 (0.702-1.701; a pinned process is
noisier); parent 0.074 / 0.469 / 1.077. By the rule, in the state that
reads highest for each row:

    RATIO_LIMIT  median 0.658 x 1.15 = 0.757, rounded up to the next 0.05 = 0.80
    ALL_LIMIT    median 1.054 x 1.15 = 1.212, rounded up to the next 0.05 = 1.25

RATIO_LIMIT tightens from 0.85; ALL_LIMIT stays. A dead carry decides every
pair and reads what k=40 does, ~1.0, so 0.80 still tells the two apart.
REPLAY_LIMIT stays what it says ("under half a pass"): k=0 now reads
0.15-0.21, the same ~2.8 ms over a smaller denominator. An update now costs
what recomputing cold does from about k=8, not k=20.
"""

import json
import sys

RATIO_LIMIT = 0.80  # incr/cold ceiling for a 1-source update
REPLAY_LIMIT = 0.50  # incr/cold ceiling for a pass after no change
ALL_LIMIT = 1.25  # incr/cold ceiling for a pass that reuses nothing (k = all sources)
REMAP_FLOOR = 0.90  # share of k=1 candidate pairs the ER memo must decide


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

    by_k = {r["k"]: r for r in rows}
    # (k, ceiling). None: reported, not gated — between k=8 and k=20 an
    # update starts to cost what recomputing cold does.
    limits = ((0, REPLAY_LIMIT), (1, RATIO_LIMIT), (8, None), (20, None), (data["num_sources"], ALL_LIMIT))
    for k, limit in limits:
        r = by_k.get(k)
        if r is None:
            print(f"e18 ratio: no k={k} row in the sweep")
            failures.append(f"missing-k{k}")
            continue
        over = limit is not None and r["ratio"] > limit
        verdict = "(reported, not gated)" if limit is None else f"(limit {limit}) -> {'FAIL' if over else 'ok'}"
        print(
            f"e18 ratio [k={k}, {data['num_sources']} sources]: "
            f"cold = {1e3 * r['cold_secs']:.1f} ms, "
            f"incr = {1e3 * r['incr_secs']:.1f} ms, "
            f"ratio = {r['ratio']:.3f} {verdict}"
        )
        if over:
            failures.append(f"ratio@k={k}")

    if 1 in by_k:
        reused, want = by_k[1]["blocks_reused"], data["num_sources"] - 1
        verdict = "ok" if reused == want else "FAIL"
        print(f"e18 block reuse [k=1]: {reused} union blocks replayed (want exactly {want}) -> {verdict}")
        if reused != want:
            failures.append("blocks@k=1")

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
