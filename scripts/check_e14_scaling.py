#!/usr/bin/env python3
"""Gate on the E14 worker-scaling result (BENCH_e14.json).

The regression this guards: the original strided per-pair fan-out made the
ER kernel *slower* with more workers (8 workers 42% slower than 1 at 40
sources). After the blocked-chunk rework, adding workers must never cost
wall clock on the large fleet — for the ER kernel the one with the most
sources ("fleets"), for the fuse kernel the one with the most slots
("fuse_fleets": several times the slot pool's fan-out floor, so four
requested workers resolve to as many as the machine has, up to four):

* On a machine with >= 4 cores the pool genuinely widens, so the gate is
  strict: kernel_ms@4 must beat kernel_ms@1.
* On narrower machines the sizing policy clamps both requests to the same
  effective width, so @4 and @1 are two measurements of the *same*
  configuration; the gate then allows a small noise tolerance (@4 may not
  exceed @1 by more than TOLERANCE). A strided-class regression (tens of
  percent) still fails loudly.

The ER rows time the entry point a wrangle pass runs — blocking, kernel
compile and `ErKernel::decide_union`'s walk-and-decide — not the exact
scoring kernel, which stays in the experiment as an untimed bit-identity
check against the serial reference. `er_floor_fleets` (the decision either
side of its fan-out floor) is read for identity only.

The experiment records the machine's core count in the JSON ("cores"), so
the gate knows which regime produced the file it is reading.
"""

import json
import sys

TOLERANCE = 0.05  # allowed @4/@1 excess when the pool is core-clamped

def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_e14.json"
    with open(path, encoding="utf-8") as f:
        data = json.load(f)

    cores = data.get("cores", 1)
    large = max(data["fleets"], key=lambda fl: fl["sources"])
    large_fuse = max(data["fuse_fleets"], key=lambda fl: fl["fuse_slots"])
    failures = []

    for label, at, kernel in [
        ("ER", f"{large['sources']} sources", large["kernel_ms"]),
        ("fuse", f"{large_fuse['fuse_slots']} slots", large_fuse["fuse_kernel_ms"]),
    ]:
        k1, k4 = kernel["1"], kernel["4"]
        ratio = k4 / k1 if k1 > 0 else float("inf")
        strict = cores >= 4
        limit = 1.0 if strict else 1.0 + TOLERANCE
        regime = "strict (>=4 cores)" if strict else f"core-clamped ({cores} core(s), {TOLERANCE:.0%} tolerance)"
        verdict = "ok" if ratio < limit else "FAIL"
        print(
            f"e14 scaling [{label}] at {at}: "
            f"@1 = {k1:.2f} ms, @4 = {k4:.2f} ms, @4/@1 = {ratio:.3f} "
            f"[{regime}] -> {verdict}"
        )
        if ratio >= limit:
            failures.append(label)

    for label, key, fleets in [
        ("ER", "identical", data["fleets"]),
        ("ER-floor", "identical", data.get("er_floor_fleets", [])),
        ("fuse", "fuse_identical", data["fuse_fleets"]),
    ]:
        for fl in fleets:
            if not fl.get(key, False):
                at = f"{fl['sources']} sources" + (f" x {fl['products']} products" if "products" in fl else "")
                print(f"e14 identity [{label}] at {at}: outputs DIVERGE")
                failures.append(f"{label}-identity")

    if failures:
        print(f"e14 scaling gate: FAILED ({', '.join(failures)})")
        return 1
    print("e14 scaling gate: pass")
    return 0

if __name__ == "__main__":
    sys.exit(main())
