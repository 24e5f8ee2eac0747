#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks, in about ten seconds:
1. draws are reproducible: the same seed gives the same items, another seed
   other items, and every item any seed can draw has a reference digest;
2. the correctness gate can fail: a few items of each workload pass against
   bench/reference.json, and the same pass with one reference digest
   corrupted reports exactly that item as failed, so fail_ratio > 0;
3. BENCHMARK.json names exactly the metrics that run.py reports.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run
from items import WORKLOADS, catalogue_items, draw, item_id


def small_pass(workload, reference):
    items, _ = draw(workload, 1)
    if workload == "fock_modes":
        items = [it for it in items if it["kind"] == "jprod"] + \
                [it for it in items if it["kind"] == "theta_zero"][:3]
    else:
        items = items[:3]
    return items, run.run_pass(workload, items, reference, False)


def main() -> int:
    errors = []
    reference = run.load_reference()
    for workload in WORKLOADS:
        a, _ = draw(workload, 7)
        b, _ = draw(workload, 7)
        c, _ = draw(workload, 8)
        if a != b:
            errors.append(f"{workload}: seed 7 gives two different draws")
        if a == c:
            errors.append(f"{workload}: seeds 7 and 8 give the same draw")
        missing = [it for it in catalogue_items(workload) if item_id(it) not in reference[workload]]
        if missing:
            errors.append(f"{workload}: {len(missing)} catalogue items have no reference digest")

        items, clean = small_pass(workload, reference[workload])
        if clean["failures"]:
            errors.append(f"{workload}: clean pass failed: {clean['failures']}")
        corrupted = dict(reference[workload])
        victim = item_id(items[-1])
        corrupted[victim] = "0" * 64
        _, bad = small_pass(workload, corrupted)
        ratio = len(bad["failures"]) / bad["attempted"]
        if not (len(bad["failures"]) == 1 and victim in bad["failures"][0]["item"] and ratio > 0):
            errors.append(f"{workload}: corrupted digest not caught: {bad['failures']}")
        print(f"{workload}: clean failures {len(clean['failures'])}, "
              f"with one corrupted digest fail_ratio {ratio:.3f}")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e != run.END_TO_END:
        errors.append(f"BENCHMARK.json end_to_end {e2e} != run.py {run.END_TO_END}")
    if layer != run.per_layer_units():
        errors.append("BENCHMARK.json per_layer differs from run.per_layer_units()")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from items.WORKLOADS")

    for error in errors:
        print("SELFTEST FAILED:", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
