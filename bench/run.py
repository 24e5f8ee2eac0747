#!/usr/bin/env python3
"""voacalc benchmark: seeded workloads run against the engine from outside.

    python3 bench/run.py --workload suites_cli --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root (it locates src/ from its own path). A run
draws one pass worth of items from the seed (bench/items.py), measures the
set-up time of a fresh interpreter, then repeats the pass, each time in
fresh processes, for about --seconds seconds and for at least 100 item
latencies. Every item is checked: by the identity it encodes, by exit code
and "pass" for the CLI, and against the sha256 of its canonical output
recorded in bench/reference.json. Every time is scaled to a fixed speed of
the machine (bench/speed.py).

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced pass
and two traced passes and reports the per-layer metrics (span self times
and exact work counters). The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. The full report, and the
spans of a traced run, are written to .bench_out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import items as catalogue  # noqa: E402
from speed import REFERENCE_S, calibrate, scaled  # noqa: E402

SETUP_PROBES = 6  # per probe point: before each pass and after the last
# a run makes enough passes for this many latency samples, so that at least
# ten lie above the 90th percentile
MIN_SAMPLES = 100
RUN_CAP_S = 150.0
CLI_TIMEOUT_S = 60
PASS_TIMEOUT_S = 160

# prints the time `import voacalc` returned, the seconds the speed sampler
# took and the loop times it took (see bench/speed.py)
SETUP_CODE = ("import time, speed; sampler = speed.Sampler(speed.CHILD_INTERVAL_S); sampler.start(); "
              "import voacalc; t = time.monotonic(); samples, paused = sampler.stop(); "
              "print(t, paused, *samples)")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

SUBCOMMANDS = ("dims", "char", "basis", "act", "gram", "primary", "decompose", "fusion", "verify")
SUITES = ("thm32", "prop21", "lemma57", "fusion-symmetry", "fock")

# span self times, summed over a pass
SPAN_METRICS = (
    ["cli.interp", "cli.import", "cli.main"]
    + [f"suites.{s}" for s in SUITES]
    + ["fock.vertex_mode", "fock.lattice_vertex_mode", "fock.theta", "core.sparsevec",
       "virasoro.gram", "w3.act", "w3.primary_space", "w3.gram", "core.rank", "core.partitions"]
)
COUNTERS = (
    "cli.invocations", "cli.stdout_bytes",
    "fock.vertex_mode.calls", "fock.vertex_mode.terms_in", "fock.vertex_mode.terms_out",
    "fock.vertex_mode.max_u_osc",
    "fock.lattice_vertex_mode.calls", "fock.lattice_vertex_mode.terms_out",
    "virasoro.gram.calls", "virasoro.gram.entries", "virasoro.memo_entries",
    "w3.act.calls", "w3.act.terms_out", "w3.primary_space.dim", "w3.memo_entries",
    "core.rank.calls", "core.rank.max_rows", "core.rank.max_entry_bits",
    "core.partitions.calls",
)


def per_layer_units() -> dict:
    units = {f"{name}_s": "s" for name in SPAN_METRICS}
    units.update({f"cli.{sub}_s": "s" for sub in SUBCOMMANDS})
    units.update({name: "count" for name in COUNTERS})
    units["cli.stdout_bytes"] = "bytes"
    units["bench.cpu_s"] = "s"
    units["bench.trace_overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# environment


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = _child_env()
SETUP_ENV = dict(ENV, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(BENCH))))


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _commit():
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        ref = head[5:]
        value = _read(str(ROOT / ".git" / ref)).strip()
        if value:
            return value
        for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
        return None
    return head or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "loadavg_at_start": [float(x) for x in _read("/proc/loadavg").split()[:3]] or None,
        "platform": platform.platform(),
    }


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# ---------------------------------------------------------------------------
# set-up


def measure_setup() -> tuple[list, list]:
    """Seconds from spawning an interpreter until `import voacalc` returns,
    as measured and scaled to the reference speed (bench/speed.py)."""
    raw, norm = [], []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=SETUP_ENV,
                              capture_output=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode(errors="replace").strip())
        t_import, paused, *samples = map(float, proc.stdout.decode().split())
        seconds = t_import - t0 - paused
        after = calibrate()
        raw.append(seconds)
        norm.append(scaled(seconds, [before, *samples, after]))
        before = after
    return raw, norm


def warm_up() -> None:
    """Import everything once so byte code is compiled before timing."""
    proc = subprocess.run([sys.executable, "-c", "import voacalc, voacalc.cli"], cwd=ROOT,
                          env=ENV, capture_output=True, timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.decode(errors="replace").strip())


# ---------------------------------------------------------------------------
# passes


def _check_digest(item, digest, reference) -> str | None:
    expected = reference.get(catalogue.item_id(item))
    if expected is None:
        return "no reference digest for this item"
    if digest != expected:
        return f"output digest {digest[:12]} differs from reference {expected[:12]}"
    return None


def _label(item) -> str:
    return f"{item.get('shape')} {catalogue.item_id(item)}"


def cli_pass(items, reference, trace) -> dict:
    """Each item is one `voacalc` invocation in its own process."""
    latencies, failures, spans = [], [], []
    counters = {"cli.invocations": 0, "cli.stdout_bytes": 0}
    by_sub = {sub: 0.0 for sub in SUBCOMMANDS}
    cpu0 = _children_cpu()
    calibration, loops = [calibrate()], []
    for idx, item in enumerate(items):
        argv = item["argv"]
        cmd = [sys.executable, str(BENCH / ("cli_probe.py" if trace else "cli_run.py"))] + argv
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        t1 = time.monotonic()
        calibration.append(calibrate())
        sampled = next((json.loads(line[8:]) for line in err.decode(errors="replace").splitlines()
                        if line.startswith("@@speed ")), {"samples": [], "paused": 0.0})
        latencies.append(t1 - t0 - sampled["paused"])
        loops.append([calibration[-2], *sampled["samples"], calibration[-1]])
        error = None
        if proc.returncode != 0:
            error = f"exit code {proc.returncode}: {err.decode(errors='replace').strip()[-200:]}"
        elif argv[0] == "verify":
            try:
                if json.loads(out)["pass"] is not True:
                    error = "suite report has pass != true"
            except (ValueError, KeyError) as exc:
                error = f"unreadable suite report: {exc}"
        if error is None:
            error = _check_digest(item, hashlib.sha256(out).hexdigest(), reference)
        if error:
            failures.append({"item": _label(item), "error": error})
        if trace:
            counters["cli.invocations"] += 1
            counters["cli.stdout_bytes"] += len(out)
            record = next((json.loads(line[8:]) for line in err.decode(errors="replace").splitlines()
                           if line.startswith("@@bench ")), None)
            base = len(spans)
            spans.append(["cli.invocation", t0, t1, None, idx])
            if record:
                spans.append(["cli.interp", t0, record["t_start"], base, idx])
                spans.append(["cli.import", record["t_start"], record["t_import"], base, idx])
                spans.append(["cli.main", record["t_main"], record["t_end"], base, idx])
                spans += [[name, s, e, base + 3, idx] for name, s, e in record["spans"]]
                if argv[0] in by_sub:
                    by_sub[argv[0]] += record["t_end"] - record["t_main"]
    result = _timings(latencies, loops)
    result.update(failures=failures, attempted=len(items), cpu_s=_children_cpu() - cpu0)
    if trace:
        result.update(spans=spans, counters=counters,
                      subcommand_s={f"cli.{k}_s": v for k, v in by_sub.items()})
    return result


def worker_pass(items, reference, trace) -> dict:
    """All items in one fresh worker process (bench/worker.py)."""
    cpu0 = _children_cpu()
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")], cwd=ROOT, env=ENV,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    request = json.dumps({"items": items, "trace": int(trace)}).encode()
    try:
        out, err = proc.communicate(request, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    res = None
    if proc.returncode == 0 and out.strip():
        res = json.loads(out.decode().splitlines()[-1])
    if res is None:
        reason = f"worker exit {proc.returncode}: {err.decode(errors='replace').strip()[-300:]}"
        result = _timings([], [])
        result.update(attempted=len(items), cpu_s=_children_cpu() - cpu0, spans=[], counters={},
                      failures=[{"item": _label(it), "error": reason} for it in items])
        return result
    failures = []
    for item, r in zip(items, res["items"]):
        error = r["error"] or _check_digest(item, r["digest"], reference)
        if error:
            failures.append({"item": _label(item), "error": error})
    result = _timings([r["s"] for r in res["items"]], [r["calibration_s"] for r in res["items"]])
    result.update(failures=failures, attempted=len(items), cpu_s=_children_cpu() - cpu0)
    if trace:
        spans = res["spans"]
        spans.append(["cli.interp", t0, res["t_start"], None, None])
        spans.append(["cli.import", res["t_start"], res["t_import"], None, None])
        result.update(spans=spans, counters=res["counters"])
    return result


def _timings(latencies, calibration) -> dict:
    """Item latencies (seconds), each with the calibration loop times taken
    around and during it: raw and scaled latencies in ms, and the pass wall
    time of each (the sum of its items, without calibration and checks)."""
    norm = [scaled(t, loops) for t, loops in zip(latencies, calibration)]
    return {"latencies_ms": [t * 1000.0 for t in norm], "raw_latencies_ms": [t * 1000.0 for t in latencies],
            "wall_s": sum(norm), "raw_wall_s": sum(latencies),
            "calibration_s": [x for loops in calibration for x in loops]}


def run_pass(workload, items, reference, trace) -> dict:
    t0 = time.monotonic()
    fn = cli_pass if workload == "suites_cli" else worker_pass
    result = fn(items, reference, trace)
    result["elapsed_s"] = time.monotonic() - t0
    return result


# ---------------------------------------------------------------------------
# statistics


def self_times(spans) -> dict:
    """Per span name: total duration minus the time covered by its children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def latency_summary(latencies) -> dict:
    ordered = sorted(latencies)
    p90 = statistics.quantiles(ordered, n=10, method="inclusive")[8]
    return {"samples": len(ordered), "p50_ms": statistics.median(ordered), "p90_ms": p90,
            "samples_above_p90": sum(1 for x in ordered if x > p90)}


def compare_counters(a: dict, b: dict) -> list:
    return [{"counter": k, "first": a.get(k), "second": b.get(k)}
            for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(traced, untraced) -> tuple[dict, dict]:
    """Per-layer metrics of the traced passes, and the span self times."""
    per_pass = [self_times(p["spans"]) for p in traced]
    metrics = {f"{name}_s": _median([s.get(name, 0.0) for s in per_pass]) for name in SPAN_METRICS}
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}_s"] = _median([p.get("subcommand_s", {}).get(f"cli.{sub}_s", 0.0)
                                           for p in traced])
    counters = traced[0]["counters"]
    for name in COUNTERS:
        # -1 marks a counter the program no longer exposes (a memo attribute gone)
        value = counters.get(name, 0)
        metrics[name] = -1 if value is None else value
    metrics["bench.cpu_s"] = untraced["cpu_s"]
    metrics["bench.trace_overhead_s"] = _median([p["raw_wall_s"] for p in traced]) - untraced["raw_wall_s"]
    names = sorted({n for s in per_pass for n in s})
    span_self = {n: _median([s.get(n, 0.0) for s in per_pass]) for n in names}
    return metrics, span_self


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload, seed, seconds, trace, reference=None) -> tuple[dict, dict]:
    env_header = environment()
    items, draw_params = catalogue.draw(workload, seed)
    if reference is None:
        reference = load_reference()[workload]
    warm_up()
    setup_samples, raw_setup = [], []

    passes = []
    min_passes = -(-MIN_SAMPLES // len(items))
    measure_start = time.monotonic()
    plan = [False, True, True] if trace else None
    while True:
        pass_trace = plan[len(passes)] if plan else False
        raw, norm = measure_setup()
        raw_setup += raw
        setup_samples += norm
        passes.append(run_pass(workload, items, reference, pass_trace))
        elapsed = time.monotonic() - measure_start
        last = passes[-1]["elapsed_s"]
        if elapsed + last > RUN_CAP_S:
            break
        if plan:
            if len(passes) == len(plan):
                break
        elif len(passes) >= min_passes and elapsed + last > seconds:
            break
    raw, norm = measure_setup()
    raw_setup += raw
    setup_samples += norm

    untraced = [p for i, p in enumerate(passes) if not (plan and plan[i])]
    traced = [p for i, p in enumerate(passes) if plan and plan[i]]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    latencies = [x for p in untraced for x in p["latencies_ms"]] or [0.0]
    lat = latency_summary(latencies) if len(latencies) > 1 else {
        "samples": 1, "p50_ms": latencies[0], "p90_ms": latencies[0], "samples_above_p90": 0}
    raw_latencies = [x for p in untraced for x in p["raw_latencies_ms"]] or [0.0]
    raw_lat = latency_summary(raw_latencies) if len(raw_latencies) > 1 else lat
    calibration = [x for p in passes for x in p["calibration_s"]]
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": _median([p["wall_s"] for p in untraced]),
        "item_p50_ms": lat["p50_ms"],
        "item_p90_ms": lat["p90_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env_header,
        "draw": draw_params,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
        "pass_cpu_s": [p["cpu_s"] for p in passes],
        "setup_samples_s": setup_samples,
        "raw_setup_samples_s": raw_setup,
        "latency": lat,
        "raw_latency": raw_lat,
        "calibration": {"reference_s": REFERENCE_S, "samples": len(calibration),
                        "median_s": _median(calibration),
                        "speed_vs_reference": REFERENCE_S / _median(calibration)},
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:50],
        "end_to_end": end_to_end,
        "layer_wait_s": 0.0,
        "layer_wait_note": "every layer runs on the caller's thread; nothing queues or waits",
    }
    if trace and traced:
        metrics, span_self = layer_metrics(traced, untraced[0])
        mismatches = compare_counters(traced[0]["counters"], traced[-1]["counters"])
        report.update(per_layer=metrics, span_self_s=span_self,
                      trace_overhead_s=metrics["bench.trace_overhead_s"],
                      counters=traced[0]["counters"], counter_mismatches=mismatches)
        saved = OUT / f"counters-{workload}-seed{seed}.json"
        if saved.exists():
            previous = json.loads(saved.read_text())
            report["counter_mismatches_vs_previous_run"] = compare_counters(previous, traced[0]["counters"])
        OUT.mkdir(exist_ok=True)
        saved.write_text(json.dumps(traced[0]["counters"], indent=1, sort_keys=True))
        spans = [[*s, i] for i, p in enumerate(traced) for s in p["spans"]]
        (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "item", "pass"], "spans": spans}))
    return report, end_to_end


def load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text())


def result_line(report) -> dict:
    if report["trace"]:
        units = per_layer_units()
        values = report.get("per_layer", {})
        metrics = {k: {"value": values.get(k, 0), "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": report["end_to_end"][k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_summary(report, line) -> None:
    lat = report["latency"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"passes {report['passes']}  items/pass {report['draw']['items_per_pass']}  "
          f"latency samples {lat['samples']} ({lat['samples_above_p90']} above p90)")
    print(f"python {report['environment']['python']}  nproc {report['environment']['nproc']}  "
          f"load {report['environment']['loadavg_at_start']}  fail_ratio {report['fail_ratio']}")
    raw = report["raw_latency"]
    print(f"as measured: setup_s {statistics.median(report['raw_setup_samples_s']):.4f}  "
          f"wall_s {_median(report['pass_raw_wall_s']):.3f}  "
          f"item_p50_ms {raw['p50_ms']:.2f}  item_p90_ms {raw['p90_ms']:.2f}  "
          f"speed vs reference {report['calibration']['speed_vs_reference']:.3f}")
    for name, m in line["metrics"].items():
        print(f"  {name:36s} {m['value']!r:>24} {m['unit']}")
    if report.get("counter_mismatches") or report.get("counter_mismatches_vs_previous_run"):
        print("counters differ between runs:", report.get("counter_mismatches"),
              report.get("counter_mismatches_vs_previous_run"))
    for failure in report["failures"][:5]:
        print("FAILED", failure["item"][:120], "--", failure["error"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=catalogue.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "voacalc" / "__init__.py", BENCH / "reference.json")
               if not p.is_file()]
    if missing:
        sys.stderr.write(f"bench: cannot run, missing {', '.join(map(str, missing))}\n")
        return 2

    if args.workload == "all":
        return run_all(args)
    try:
        report, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        sys.stderr.write(f"bench: cannot run the engine: {exc}\n")
        return 3
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    line = result_line(report)
    print_summary(report, line)
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in catalogue.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 3
        print("\n".join(lines[:-1]))
        line = json.loads(lines[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
