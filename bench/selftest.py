"""Self-test of the benchmark at tiny sizes; takes well under a minute.

    python3 bench/selftest.py

It checks that every metric BENCHMARK.json names is printed with its unit,
that the output checks catch a corrupted output, that traced self times sum
to the root span, and that the benchmark exits nonzero without printing a
result in a directory that holds no netfunc sources.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layers import LAYERS  # noqa: E402
from oracles import Checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Context, load_json  # noqa: E402

SEED = 5


def expect(ok, what):
    if not ok:
        raise AssertionError(what)


@contextlib.contextmanager
def tiny_context():
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as work:
        yield Context(ROOT, Path(work), SEED, "tiny", 1)


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from bench/workloads.py")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END_UNITS, f"end-to-end metrics differ: {e2e}")
    expect(per_layer == {name: unit for name, (unit, *_) in LAYERS.items()},
           "per-layer metrics differ from bench/layers.py")
    return e2e, per_layer


def test_metrics_printed():
    e2e, per_layer = declared_metrics()
    for name in WORKLOADS:
        for trace, declared in ((0, e2e), (1, per_layer)):
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.run(name, SEED, 0, trace, size="tiny", setup_repeats=1)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace {trace}: {result['failed']} checks failed")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == declared, f"{name} trace {trace}: printed {sorted(units)}")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in result["metrics"].values()),
                   f"{name} trace {trace}: a value is not a finite number")


def _bump_tree_count(doc):
    entry = doc["functionals"]["tree_count"]
    entry["value"] = str(int(entry["value"]) + 1)


def _bump_euler_char(records):
    records[0]["euler_char"] += 1


def _drop_connected(doc):
    doc["connected_count"] -= 1


def _shift_estimate(doc):
    doc["estimate"] += 10 * doc["std_error"]


CORRUPTIONS = (
    ("exact_er200", "analyze.json", _bump_tree_count),
    ("sweep_dense", "sweep.json", _bump_euler_char),
    ("extremal7", "extremal.json", _drop_connected),
    ("continuum_mc", "torus2-length.json", _shift_estimate),
)


def test_corruption_caught():
    with tiny_context() as ctx:
        for name, output, corrupt in CORRUPTIONS:
            workload = WORKLOADS[name]
            workload.prepare(ctx)
            run.run_pass(ctx, workload)
            clean = Checks()
            workload.check(ctx, clean)
            expect(not clean.failures, f"{name}: clean output failed {clean.failures}")
            path = ctx.work / output
            doc = load_json(path)
            corrupt(doc)
            path.write_text(json.dumps(doc))
            caught = Checks()
            workload.check(ctx, caught)
            expect(caught.failures, f"{name}: {corrupt.__name__} on {output} not caught")


def test_self_times_sum_to_root():
    with tiny_context() as ctx:
        for name, workload in WORKLOADS.items():
            workload.prepare(ctx)
            tracer = Tracer()
            with tracer.span(name):
                workload.replay(ctx, tracer)
            total = sum(tracer.self_times().values())
            expect(len(tracer.spans) > 1, f"{name}: replay recorded no layer spans")
            expect(math.isclose(total, tracer.root_seconds(), rel_tol=1e-9),
                   f"{name}: self times {total} against root {tracer.root_seconds()}")


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as bare:
        shutil.copytree(HERE, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "extremal7",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"exit {proc.returncode} with stdout {proc.stdout!r}")


def main():
    failed = 0
    for test in (test_metrics_printed, test_corruption_caught, test_self_times_sum_to_root,
                 test_refuses_without_sources):
        try:
            test()
            print(f"ok    {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {test.__name__}: {exc}")
    print("self-test passed" if not failed else f"self-test: {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
