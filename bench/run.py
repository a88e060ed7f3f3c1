"""Benchmark of the netfunc CLI on five workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 runs the workload's CLI invocations as subprocesses (`--workers 1`,
PYTHONPATH=src) in passes for about S seconds, and reports the medians of
job_s (spawn to exit of one pass), setup_s (a fresh process importing
netfunc.cli and building the inputs, several times) and peak_rss_mb.
--trace 1 runs one pass, then replays it in-process with spans off and on and
reports the per-layer metrics of bench/layers.py.  Both check every output
against its oracle outside the timed region.  The last line of stdout is the
JSON result; the exit code is 1 when a check failed and 2 when the checkout
holds no netfunc sources.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
END_TO_END_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def calibrate():
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def machine_record():
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg": os.getloadavg(), "calibration_s": calibrate()}


def run_pass(ctx, workload):
    """One pass of the workload's CLI invocations: (seconds, peak RSS in MB)."""
    seconds = rss = 0.0
    for args in workload.commands(ctx):
        s, r = ctx.run_cli(args)
        seconds += s
        rss = max(rss, r)
    return seconds, rss


def measure(ctx, workload, budget, checks):
    """End-to-end metrics: passes until the next would overrun `budget` seconds.

    One set-up probe runs before each pass and the rest after the last, so
    that set-up is sampled across the run rather than in one burst: host
    speed here drifts over tens of seconds.
    """
    setup, jobs, rss = [], [], []
    start = time.perf_counter()
    while True:
        setup.append(ctx.probe(workload.probe_inputs(ctx))[0])
        seconds, peak = run_pass(ctx, workload)
        jobs.append(seconds)
        rss.append(peak)
        workload.check(ctx, checks)
        if time.perf_counter() - start + statistics.median(jobs) > budget:
            break
    while len(setup) < ctx.setup_repeats:
        setup.append(ctx.probe(workload.probe_inputs(ctx))[0])
    print(f"{workload.name}: {len(jobs)} passes, job_s {[round(s, 3) for s in jobs]}, "
          f"setup_s {[round(s, 3) for s in setup]}, peak_rss_mb {rss}")
    return {"job_s": statistics.median(jobs), "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss)}


def traced(ctx, workload, checks, machine):
    """Per-layer metrics from one pass and its in-process replay."""
    from layers import LAYERS
    from tracing import Tracer

    import netfunc.cli  # noqa: F401  (so that neither replay pays the imports)

    job_s, _ = run_pass(ctx, workload)
    workload.check(ctx, checks)
    imports = [ctx.probe(workload.probe_inputs(ctx))[1]["import_s"]
               for _ in range(ctx.setup_repeats)]

    start = time.perf_counter()
    result = workload.replay(ctx, Tracer(enabled=False))
    replay_off = time.perf_counter() - start
    tracer = Tracer()
    with tracer.span(workload.name):
        workload.check_replay(ctx, workload.replay(ctx, tracer), checks)
    replay_on = tracer.root_seconds()

    self_times = tracer.self_times()
    values = dict.fromkeys(LAYERS, 0)
    for name, seconds in self_times.items():
        if f"{name}.s" in values:
            values[f"{name}.s"] = seconds
    values.update(tracer.counts)
    values["report.compute_report.overhead_s"] = self_times.get("report.compute_report", 0)
    if values["experiments.extremal_search.masks"]:
        values["experiments.extremal_search.useful_ratio"] = (
            values["experiments.extremal_search.connected"]
            / values["experiments.extremal_search.masks"])
    values["cli.import.s"] = statistics.median(imports)
    values["trace.replay_s"] = replay_on
    values["trace.overhead_ratio"] = (replay_on - replay_off) / replay_off
    values["trace.cli_gap_s"] = job_s - replay_off
    values["machine.calibration_s"] = machine["calibration_s"]
    values.update(workload.worker_check(ctx, result, replay_off, checks))

    print(f"{workload.name}: job_s {job_s:.3f}, replay {replay_off:.3f} s with spans off "
          f"and {replay_on:.3f} s with spans on (tracing overhead "
          f"{100 * values['trace.overhead_ratio']:+.2f} %), CLI gap {job_s - replay_off:.3f} s")
    print(f"{'per-layer metric':52} {'value':>14} {'unit':6} {'share':>7}  moves  on")
    for name, (unit, _, moves, on) in LAYERS.items():
        share = (f"{100 * values[name] / replay_on:6.2f}%"
                 if unit == "s" and name.split(".")[0] not in ("cli", "trace", "machine")
                 else "")
        print(f"{name:52} {values[name]:14.6g} {unit:6} {share:>7}  {moves}  [{on}]")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"spans-{workload.name}-seed{ctx.seed}.json")
    return values


def run(name, seed, seconds, trace, size="full", setup_repeats=SETUP_REPEATS):
    """One benchmark run; returns the result object of the last stdout line."""
    from layers import LAYERS
    from oracles import Checks
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[name]
    checks = Checks()
    machine = machine_record()
    print("machine", json.dumps(machine))
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as work:
        ctx = Context(ROOT, Path(work), seed, size, setup_repeats)
        workload.prepare(ctx)
        if trace:
            metrics = traced(ctx, workload, checks, machine)
        else:
            metrics = measure(ctx, workload, seconds, checks)
    units = {name: spec[0] for name, spec in LAYERS.items()} if trace else END_TO_END_UNITS
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return {"correct": not checks.failures, "attempted": checks.attempted,
            "failed": len(checks.failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None):
    from workloads import SIZES
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "netfunc" / "cli.py").is_file():
        print(f"bench: no netfunc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import BenchError
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
