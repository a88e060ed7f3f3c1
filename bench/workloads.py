"""The five workloads: inputs, CLI invocations, output checks and replay.

Each workload runs through the real CLI (`python -m netfunc.cli ... --workers 1`)
for its end-to-end numbers, and through the same public calls in-process, in the
CLI's order, for its traced per-layer numbers.  Inputs depend only on the seed.

Why these workloads: the distance layer does most of the work in
`sweep_sparse` (one large matrix per graph) and almost none in `sweep_dense`,
where the dimension recursion and clique enumeration dominate; `exact_er200`
is dominated by the exact determinants and the audit's per-tree distance
matrices; `extremal7` runs only the numpy chunk kernel and holds the most
memory; `continuum_mc` is the only workload of the Monte-Carlo blocks.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from unittest import mock

import oracles

# Full sizes are the benchmark; tiny sizes serve the self-test.
SIZES = {
    "exact_er200": {"full": {"n": 200, "p": 0.05}, "tiny": {"n": 20, "p": 0.3}},
    "sweep_sparse": {
        "full": {"model": "ws", "params": {"k": 6, "p": 0.1},
                 "n_list": (250, 500, 1000, 2000), "seeds": 3},
        "tiny": {"model": "ws", "params": {"k": 4, "p": 0.1}, "n_list": (20, 30), "seeds": 1},
    },
    "sweep_dense": {
        "full": {"model": "er", "params": {"p": 0.5}, "n_list": (40, 60, 80), "seeds": 4},
        "tiny": {"model": "er", "params": {"p": 0.5}, "n_list": (10, 12), "seeds": 1},
    },
    "extremal7": {"full": {"n": 7}, "tiny": {"n": 4}},
    "continuum_mc": {"full": {"samples": 2_000_000}, "tiny": {"samples": 20_000}},
}
CONTINUUM_SPACES = ("torus2", "torus3", "sphere_area1")
CONTINUUM_CASES = [(s, q) for s in CONTINUUM_SPACES for q in ("length", "cluster")]

# Span name of each report functional: the public function it calls.
FUNCTIONAL_LAYER = {
    "char_length": "metrics.characteristic_length",
    "mean_cluster": "metrics.mean_cluster",
    "cluster_length_ratio": "metrics.cluster_length_ratio",
    "wiener_index": "metrics.wiener_index",
    "distance_variance": "metrics.distance_variance",
    "mean_centrality": "metrics.mean_centrality",
    "magnitude": "metrics.magnitude",
    "dimension": "topology.inductive_dimension",
    "euler_char": "topology.euler_characteristic",
    "curvature_action": "topology.curvature_summary",
    "length_estimate": "topology.length_estimate",
    "complexity": "spectral.spectral_complexity",
    "log_complexity": "spectral.spectral_complexity",
    "forest_complexity": "spectral.forest_complexity",
    "tree_count": "spectral.spanning_tree_count",
    "trace_bound": "spectral.pseudoinverse_trace_bound",
    "independence_number": "combinatorial.independence_number",
    "chromatic_number": "combinatorial.chromatic_number",
    "arboricity": "combinatorial.arboricity",
    "scale_measure": "combinatorial.scale_measure",
}


class BenchError(Exception):
    """A CLI invocation or the benchmark's own set-up failed."""


class Context:
    """One run: the checkout, a scratch directory inside it, the seed and the size."""

    def __init__(self, root, work, seed, size, setup_repeats):
        self.root = root
        self.work = work
        self.seed = seed
        self.size = size
        self.setup_repeats = setup_repeats
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def params(self, workload):
        return SIZES[workload][self.size]

    def path(self, name):
        return str(self.work / name)

    def run_cli(self, args):
        """Run `netfunc <args>`; returns (wall seconds from spawn to exit, peak RSS in MB)."""
        return self.run([sys.executable, "-m", "netfunc.cli", *map(str, args)])

    def run(self, cmd):
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.work,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}: "
                             f"{err_path.read_text()[-2000:]}")
        return seconds, usage.ru_maxrss / 1024

    def probe(self, inputs):
        """Fresh-process set-up: import netfunc.cli and build `inputs`."""
        out = self.work / "probe.json"
        seconds, _ = self.run([sys.executable, str(self.root / "bench" / "probe.py"),
                               json.dumps(inputs), str(out)])
        with open(out) as fh:
            return seconds, json.load(fh)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _guarded(tr, name, fn, *args):
    from netfunc.errors import NetfuncError
    try:
        return tr.call(name, fn, *args)
    except NetfuncError:
        return None


def traced_simplex_counts(tr):
    """Patch the clique enumeration that topology.euler_characteristic calls."""
    from netfunc import topology
    simplex_counts = topology.simplex_counts

    def counted(g, budget):
        counts = simplex_counts(g, budget=budget)
        tr.count("graph.simplex_counts.cliques", sum(counts.counts))
        return counts
    return mock.patch.object(topology, "simplex_counts",
                             tr.wrap("graph.simplex_counts", counted)
                             if tr.enabled else simplex_counts)


def bareiss_ops(size):
    """Inner updates of fraction-free elimination on a size x size matrix."""
    return sum((size - 1 - k) ** 2 for k in range(size - 1))


class Workload:
    name = ""

    def prepare(self, ctx):
        """Write the inputs and compute the oracles (untimed)."""

    def commands(self, ctx):
        """CLI argument lists of one pass, run in order."""
        raise NotImplementedError

    def probe_inputs(self, ctx):
        return {}

    def check(self, ctx, checks):
        """Check the outputs of the last pass."""
        raise NotImplementedError

    def replay(self, ctx, tr):
        """The pass's public calls in-process; returns what check_replay compares."""
        raise NotImplementedError

    def check_replay(self, ctx, result, checks):
        """The replay must compute what the CLI printed."""

    def worker_check(self, ctx, result, seconds, checks):
        """Per-layer numbers from rerunning at two workers (none by default)."""
        return {}


class ExactER(Workload):
    name = "exact_er200"

    def prepare(self, ctx):
        p = ctx.params(self.name)
        self.input = ctx.path("er.txt")
        # The exact kernels run only on connected graphs: take the first
        # connected draw at or after the seed so the job size does not vary.
        for draw in itertools.count(ctx.seed):
            ctx.run_cli(["generate", "--model", "er", "--n", p["n"], "--p", p["p"],
                         "--seed", draw, "--output", self.input])
            graph = oracles.read_nx_edge_list(self.input)
            if oracles.nx.is_connected(graph):
                break
        from netfunc import report
        self.oracle = oracles.exact_oracle(graph, report.Caps())

    def commands(self, ctx):
        return [["analyze", self.input, "--workers", "1", "--output", ctx.path("analyze.json")],
                ["audit", self.input, "--workers", "1", "--output", ctx.path("audit.json")]]

    def probe_inputs(self, ctx):
        return {"edge_list": self.input}

    def check(self, ctx, checks):
        oracles.check_analyze(load_json(ctx.path("analyze.json")), self.oracle, checks)
        oracles.check_audit(load_json(ctx.path("audit.json")), self.oracle, checks)

    def replay(self, ctx, tr):
        from netfunc import experiments, report, spectral
        from netfunc.graph import all_pairs_distances, read_edge_list

        g = tr.call("graph.read_edge_list", read_edge_list, self.input)
        tr.call("graph.all_pairs_distances", all_pairs_distances, g)
        tr.count("graph.all_pairs_distances.sources", g.n)
        traced = {name: (kind, tr.wrap(FUNCTIONAL_LAYER.get(name, f"report.{name}"), fn))
                  for name, (kind, fn) in report.FUNCTIONALS.items()}
        with mock.patch.dict(report.FUNCTIONALS, traced), \
                mock.patch.object(spectral, "laplacian_spectrum",
                                  tr.wrap("spectral.laplacian_spectrum",
                                          spectral.laplacian_spectrum)), \
                traced_simplex_counts(tr):
            rep = tr.call("report.compute_report", report.compute_report, g)
        statuses = [e.status for e in rep.entries.values()]
        tr.count("report.skipped", statuses.count("skipped"))
        tr.count("report.undefined", statuses.count("undefined"))
        for name, layer, size in (("tree_count", "spectral.spanning_tree_count", g.n - 1),
                                  ("forest_complexity", "spectral.forest_complexity", g.n)):
            entry = rep.entries[name]
            if entry.status == "ok":
                tr.count(f"{layer}.ops", bareiss_ops(size))
                tr.count(f"{layer}.result_bits", int(entry.value).bit_length())

        caps = report.Caps()
        g = tr.call("graph.read_edge_list", read_edge_list, self.input)
        rows = tr.call("experiments.bound_audit", experiments.bound_audit, g,
                       independence_cap=caps.independence, chromatic_cap=caps.chromatic,
                       arboricity_cap=caps.arboricity)
        method = rows[-1].note
        tr.count("experiments.bound_audit.trees",
                 g.n if method.startswith("sampled") else int(rep.entries["tree_count"].value))
        return rep, rows

    def check_replay(self, ctx, result, checks):
        rep, rows = result
        doc = load_json(ctx.path("analyze.json"))["functionals"]
        for name, item in rep.to_json_dict()["functionals"].items():
            item.pop("seconds")
            cli_item = dict(doc[name])
            cli_item.pop("seconds")
            checks.equal(item, cli_item, f"replayed {name}")
        audit = load_json(ctx.path("audit.json"))
        checks.equal([r.holds for r in rows], [r["holds"] for r in audit], "replayed audit")


class Sweep(Workload):
    def __init__(self, name):
        self.name = name

    def prepare(self, ctx):
        from netfunc import rng
        from netfunc.cli import MODEL_ALIASES
        from netfunc.generators import ModelSpec, build_model

        p = ctx.params(self.name)
        kind = MODEL_ALIASES[p["model"]]
        # the spec order and seed derivation of experiments.growth_sweep
        self.specs = [ModelSpec(kind, {**p["params"], "n": n},
                                seed=rng.derive_seed(ctx.seed, n, s))
                      for n in p["n_list"] for s in range(p["seeds"])]
        self.oracles = []
        for spec in self.specs:
            g = build_model(spec)
            self.oracles.append(oracles.sweep_oracle(oracles.nx_graph(g.n, g.edges())))

    def commands(self, ctx):
        p = ctx.params(self.name)
        flags = [x for k, v in p["params"].items() for x in (f"--{k}", v)]
        return [["sweep", "--model", p["model"], *flags,
                 "--n-list", ",".join(map(str, p["n_list"])), "--seeds", p["seeds"],
                 "--seed", ctx.seed, "--workers", "1", "--output", ctx.path("sweep.json")]]

    def probe_inputs(self, ctx):
        return {"specs": [[s.kind, s.params, s.seed] for s in self.specs]}

    def check(self, ctx, checks):
        oracles.check_sweep(load_json(ctx.path("sweep.json")), self.specs, self.oracles,
                            checks)

    def replay(self, ctx, tr):
        from netfunc import metrics, topology
        from netfunc.generators import build_model
        from netfunc.graph import all_pairs_distances

        records = []
        with traced_simplex_counts(tr):
            # the calls of experiments.evaluate_sweep_record, distances first
            for spec in self.specs:
                g = tr.call("generators.build_model", build_model, spec)
                tr.count("generators.build_model.graphs")
                tr.call("graph.all_pairs_distances", all_pairs_distances, g)
                tr.count("graph.all_pairs_distances.sources", g.n)
                summary = tr.call("topology.curvature_summary", topology.curvature_summary, g)
                dimension = _guarded(tr, "topology.inductive_dimension",
                                     topology.inductive_dimension, g)
                records.append({
                    "char_length": float(tr.call("metrics.characteristic_length",
                                                 metrics.characteristic_length, g)),
                    "mean_cluster": float(tr.call("metrics.mean_cluster",
                                                  metrics.mean_cluster, g)),
                    "cluster_length_ratio": _guarded(tr, "metrics.cluster_length_ratio",
                                                     metrics.cluster_length_ratio, g),
                    "dimension": None if dimension is None else float(dimension),
                    "curvature_action": summary.action,
                    "euler_char": _guarded(tr, "topology.euler_characteristic",
                                           topology.euler_characteristic, g),
                    "length_estimate": _guarded(tr, "topology.length_estimate",
                                                topology.length_estimate, g),
                })
        return records

    def check_replay(self, ctx, result, checks):
        cli = load_json(ctx.path("sweep.json"))
        for record, want in zip(result, cli):
            for key, value in record.items():
                checks.equal(value, want[key], f"replayed {key} of {want['model']}")


class Extremal(Workload):
    name = "extremal7"

    def commands(self, ctx):
        return [["extremal", "--n", ctx.params(self.name)["n"], "--workers", "1",
                 "--output", ctx.path("extremal.json")]]

    def check(self, ctx, checks):
        oracles.check_extremal(load_json(ctx.path("extremal.json")),
                               ctx.params(self.name)["n"], checks)

    def replay(self, ctx, tr):
        from netfunc.experiments import extremal_search
        rep = tr.call("experiments.extremal_search", extremal_search,
                      ctx.params(self.name)["n"], workers=1)
        tr.count("experiments.extremal_search.masks", rep.total_masks)
        tr.count("experiments.extremal_search.connected", rep.connected_count)
        return rep

    def check_replay(self, ctx, result, checks):
        doc = load_json(ctx.path("extremal.json"))
        checks.equal(result.connected_count, doc["connected_count"], "replayed extremal")

    def worker_check(self, ctx, result, seconds, checks):
        from netfunc.experiments import extremal_search
        start = time.perf_counter()
        rep = extremal_search(ctx.params(self.name)["n"], workers=2)
        two = time.perf_counter() - start
        checks.equal(_extremal_key(rep), _extremal_key(result), "extremal at workers 1 and 2")
        return {"experiments.extremal_search.parallel_efficiency": seconds / (2 * two)}


def _extremal_key(rep):
    return (rep.connected_count,
            {name: (r.evaluated, r.undefined, r.min_value, r.max_value, r.histogram.counts,
                    sorted(r.min_witness.edges()), sorted(r.max_witness.edges()))
             for name, r in rep.results.items()})


class Continuum(Workload):
    name = "continuum_mc"

    def commands(self, ctx):
        samples = ctx.params(self.name)["samples"]
        return [["continuum", "--space", s, "--quantity", q, "--samples", samples,
                 "--seed", ctx.seed, "--workers", "1", "--output", ctx.path(f"{s}-{q}.json")]
                for s, q in CONTINUUM_CASES]

    def probe_inputs(self, ctx):
        return {"spaces": list(CONTINUUM_SPACES)}

    def check(self, ctx, checks):
        results = {(s, q): load_json(ctx.path(f"{s}-{q}.json")) for s, q in CONTINUUM_CASES}
        oracles.check_continuum(results, ctx.params(self.name)["samples"], checks)

    def _estimate(self, ctx, space, quantity, workers=1):
        from netfunc import continuum
        samples = ctx.params(self.name)["samples"]
        obj = continuum.SPACES[space]()
        if quantity == "length":
            return continuum.mc_characteristic_length(obj, samples, ctx.seed, workers=workers)
        return continuum.mc_mean_cluster(obj, 0.01, samples, ctx.seed, workers=workers)

    def replay(self, ctx, tr):
        from netfunc.continuum import BLOCK
        samples = ctx.params(self.name)["samples"]
        out = {}
        for s, q in CONTINUUM_CASES:
            fn = "mc_characteristic_length" if q == "length" else "mc_mean_cluster"
            out[s, q] = tr.call(f"continuum.{fn}.{s}", self._estimate, ctx, s, q)
            tr.count("continuum.samples", samples)
            tr.count("continuum.blocks", -(-samples // BLOCK))
        return out

    def check_replay(self, ctx, result, checks):
        for (s, q), est in result.items():
            doc = load_json(ctx.path(f"{s}-{q}.json"))
            checks.equal((est.estimate, est.std_error), (doc["estimate"], doc["std_error"]),
                         f"replayed continuum {s} {q}")

    def worker_check(self, ctx, result, seconds, checks):
        for (s, q), est in result.items():
            two = self._estimate(ctx, s, q, workers=2)
            checks.equal((two.estimate, two.std_error), (est.estimate, est.std_error),
                         f"continuum {s} {q} at workers 1 and 2")
        return {}


WORKLOADS = {w.name: w for w in (ExactER(), Sweep("sweep_sparse"), Sweep("sweep_dense"),
                                 Extremal(), Continuum())}
