#!/usr/bin/env python3
"""Gate on the E14 kernel result (BENCH_e14.json).

Both kernels run on one thread in the pipeline, so no row carries a width
to gate; every row is read for identity:

* "fleets": the ER decision against the serial `match_pairs` reference;
* "er_floor_fleets": the ER decision at scale against a walk carried from
  it;
* "fuse_fleets": the fuse kernel against the serial `fuse_attribute`
  reference, bit for bit.

Exits 1 when any row diverges.
"""

import json
import sys

def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_e14.json"
    with open(path, encoding="utf-8") as f:
        data = json.load(f)

    failures = []
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
        print(f"e14 identity [{label}]: {len(fleets)} fleet(s) checked")

    if failures:
        print(f"e14 gate: FAILED ({', '.join(failures)})")
        return 1
    print("e14 gate: pass")
    return 0

if __name__ == "__main__":
    sys.exit(main())
