#!/usr/bin/env python3
"""Record bench/reference.json: the sha256 of the canonical output of every
item in every workload's catalogue (bench/items.py).

    python3 bench/record.py [workload ...]

Run once on the commit whose outputs are the reference. Every item must
pass its own checks, or nothing is written. A later commit that changes any
byte of any item's output fails the benchmark's correctness gate.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import run
from items import WORKLOADS, catalogue_items, item_id

# the console script, without the benchmark's speed sampler
CLI_CODE = "import sys; from voacalc.cli import main; sys.exit(main())"


def record_cli(items) -> dict:
    out = {}
    for item in items:
        proc = subprocess.run([sys.executable, "-c", CLI_CODE] + item["argv"], cwd=run.ROOT,
                              env=run.ENV, capture_output=True, timeout=run.CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"{item['argv']}: exit {proc.returncode}: {proc.stderr.decode()}")
        if item["argv"][0] == "verify" and json.loads(proc.stdout)["pass"] is not True:
            raise SystemExit(f"{item['argv']}: suite did not pass")
        out[item_id(item)] = hashlib.sha256(proc.stdout).hexdigest()
    return out


def record_worker(items) -> dict:
    proc = subprocess.run([sys.executable, str(run.BENCH / "worker.py")], cwd=run.ROOT, env=run.ENV,
                          input=json.dumps({"items": items, "trace": 0}).encode(),
                          capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(proc.stderr.decode())
    results = json.loads(proc.stdout.decode().splitlines()[-1])["items"]
    bad = [(item.get("shape"), r["error"]) for item, r in zip(items, results) if r["error"]]
    if bad:
        raise SystemExit(f"items failed their checks: {bad[:5]}")
    return {item_id(item): r["digest"] for item, r in zip(items, results)}


def main(argv) -> int:
    path = run.BENCH / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    for workload in argv or WORKLOADS:
        items = catalogue_items(workload)
        record = record_cli if workload == "suites_cli" else record_worker
        reference[workload] = record(items)
        print(f"{workload}: {len(reference[workload])} digests", flush=True)
    path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
