"""Empirical drivers: exhaustive extremal scans on small orders, sweeps over
random-model parameters, and the bound audit.

A sweep record reads its values from the functional registry
(`report.compute_report`), so a sweep and `analyze` evaluate, skip and flag
each functional the same way.

The extremal scan streams every labeled graph on n <= 7 vertices as a
C(n,2)-bit edge mask, rejects disconnected graphs, and evaluates the
requested functionals on numpy batches.  Workers split the mask space into
fixed chunks that are reduced in chunk order, so results do not depend on
the worker count.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional

import numpy as np

from . import rng
from .combinatorial import (ARBORICITY_CAP, CHROMATIC_CAP, INDEPENDENCE_CAP, arboricity,
                            chromatic_number, independence_number)
from .errors import (InvalidParam, RecursionBudgetExceeded, SizeCapExceeded,
                     UnknownFunctional)
from .generators import MODELS, ModelSpec, build_model
from .graph import all_pairs_distances, distance_levels, from_edge_list, is_connected
from .metrics import characteristic_length, wiener_index
from .report import compute_report
from .spectral import pseudoinverse_trace_bound

EXTREMAL_FUNCTIONALS = ("char_length", "euler_char", "curvature_action", "log_complexity")
CHUNK_SIZE = 1 << 17  # edge masks per extremal work unit
TRACE_TOL = 1e-9  # slack of the audit's float pseudoinverse-trace comparison


def edge_mask_pairs(n):
    """Vertex pairs in lexicographic order; bit i of an edge mask is pairs[i]."""
    return list(combinations(range(n), 2))


def graph_from_mask(n, mask):
    pairs = edge_mask_pairs(n)
    return from_edge_list(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


@dataclass
class Histogram:
    counts: tuple
    lo: float
    hi: float

    def bin_edges(self):
        width = (self.hi - self.lo) / len(self.counts) if self.counts else 0.0
        return [self.lo + i * width for i in range(len(self.counts) + 1)]


@dataclass
class ExtremalResult:
    functional: str
    evaluated: int
    undefined: int
    min_value: object
    max_value: object
    min_witness: object  # Graph
    max_witness: object
    histogram: Histogram


@dataclass
class ExtremalReport:
    n: int
    total_masks: int
    connected_count: int
    results: dict


def _scan_chunk(n, lo, hi, wants):
    """Evaluate one contiguous mask range; returns per-connected-graph arrays.

    The batched form of `graph._ball_walk`: each graph is n uint8 row masks,
    bit u of rows[:, v] set iff u ~ v, and ball[:, v] grows one hop per level
    by OR-ing in ball[:, u] for every neighbor u of v.  The functionals read
    the ball sizes |B_k(v)|, counted by one popcount per level.
    """
    pairs = edge_mask_pairs(n)
    masks = np.arange(lo, hi, dtype=np.int64)
    masks = masks[np.bitwise_count(masks) >= n - 1]  # too few edges to be connected
    rows = np.zeros((masks.size, n), dtype=np.uint8)
    for i, (u, v) in enumerate(pairs):
        bit = ((masks >> i) & 1).astype(np.uint8)
        rows[:, u] |= bit << v
        rows[:, v] |= bit << u

    # Over v and k = 0..levels, sum (n - |B_k(v)|) is a connected graph's
    # distance total: its balls are full from level n - 1 on.
    levels = max(n - 1, 2)  # curvature reads |B_2| even below n = 3
    total_dist = np.full(masks.size, (levels + 1) * n * n - n, dtype=np.int64)
    ball = rows | (np.uint8(1) << np.arange(n, dtype=np.uint8))
    sizes = []  # |B_1| and |B_2|
    for k in range(1, levels + 1):
        if k > 1:
            grown = ball.copy()
            for u in range(n):
                grown |= ball[:, u:u + 1] * ((rows >> u) & 1)
            ball = grown
        size = np.bitwise_count(ball)
        total_dist -= size.sum(axis=1, dtype=np.int64)
        if k <= 2:
            sizes.append(size)
    connected = (ball == (1 << n) - 1).all(axis=1)

    masks = masks[connected]
    rows = rows[connected]
    out = {"masks": masks}

    if "char_length" in wants:
        out["char_length"] = total_dist[connected]

    if "euler_char" in wants:
        pair_bit = {p: i for i, p in enumerate(pairs)}
        chi = np.full(masks.size, n, dtype=np.int64)  # single vertices
        for order in range(2, n + 1):
            sign = 1 if order % 2 else -1
            for subset in combinations(range(n), order):
                pm = 0
                for a, b in combinations(subset, 2):
                    pm |= 1 << pair_bit[(a, b)]
                chi += sign * ((masks & pm) == pm)
        out["euler_char"] = chi

    if "curvature_action" in wants:
        within1, within2 = (size[connected].astype(np.float64) for size in sizes)
        d1 = within1 - 1
        d2 = within2 - within1
        ok = (d1 >= 1) & (d2 >= 1)
        s = np.log(np.divide(d2, d1, out=np.ones_like(d1), where=ok))  # 0 where not ok
        with np.errstate(invalid="ignore"):
            out["curvature_action"] = s.sum(axis=1) / ok.sum(axis=1)  # 0/0 -> NaN

    if "log_complexity" in wants:
        adj = np.unpackbits(rows[:, 1:, None], axis=2, count=n, bitorder="little")[:, :, 1:]
        lap = -adj.astype(np.float64)
        idx = np.arange(n - 1)
        lap[:, idx, idx] = np.bitwise_count(rows[:, 1:])
        _, logdet = np.linalg.slogdet(lap)
        out["log_complexity"] = math.log(n) + logdet  # n * tree count
    return out


def extremal_search(n, functionals=EXTREMAL_FUNCTIONALS, workers=1, bins=64):
    """Scan all connected labeled graphs on n vertices for min/max/histograms."""
    unknown = set(functionals) - set(EXTREMAL_FUNCTIONALS)
    if unknown:
        raise UnknownFunctional(", ".join(sorted(unknown)))
    if not 1 <= n <= 7:
        raise InvalidParam("extremal scan supports 1 <= n <= 7")
    if bins < 1:
        raise InvalidParam("extremal histograms need bins >= 1")
    m = n * (n - 1) // 2
    total = 1 << m
    ranges = [(lo, min(lo + CHUNK_SIZE, total)) for lo in range(0, total, CHUNK_SIZE)]
    wants = tuple(functionals)
    chunks = rng.ordered_map(_scan_chunk, [(n, lo, hi, wants) for lo, hi in ranges], workers)

    masks = np.concatenate([c["masks"] for c in chunks])
    report = ExtremalReport(n=n, total_masks=total, connected_count=int(masks.size),
                            results={})
    for name in wants:
        values = np.concatenate([np.asarray(c[name], dtype=np.float64) for c in chunks])
        defined = ~np.isnan(values)
        vals = values[defined]
        vmasks = masks[defined]
        if vals.size == 0:
            report.results[name] = ExtremalResult(
                functional=name, evaluated=0, undefined=int(values.size),
                min_value=None, max_value=None, min_witness=None, max_witness=None,
                histogram=Histogram((), 0.0, 0.0))
            continue
        imin = int(np.argmin(vals))
        imax = int(np.argmax(vals))
        lo_v, hi_v = float(vals[imin]), float(vals[imax])
        hist_hi = hi_v if hi_v > lo_v else lo_v + 1  # degenerate constant case
        counts, _ = np.histogram(vals, bins=bins, range=(lo_v, hist_hi))
        min_value, max_value = lo_v, hi_v
        if name == "char_length":
            denom = n * n - n
            if denom:
                min_value = Fraction(int(vals[imin])) / denom
                max_value = Fraction(int(vals[imax])) / denom
            else:
                min_value = max_value = Fraction(0)
        elif name == "euler_char":
            min_value, max_value = int(lo_v), int(hi_v)
        report.results[name] = ExtremalResult(
            functional=name,
            evaluated=int(defined.sum()),
            undefined=int((~defined).sum()),
            min_value=min_value,
            max_value=max_value,
            min_witness=graph_from_mask(n, int(vmasks[imin])),
            max_witness=graph_from_mask(n, int(vmasks[imax])),
            histogram=Histogram(tuple(int(c) for c in counts), lo_v, hist_hi),
        )
    return report


# -- sweeps --------------------------------------------------------------------

SWEEP_FUNCTIONALS = ("char_length", "mean_cluster", "cluster_length_ratio", "dimension",
                     "mean_degree", "edge_density", "curvature_action", "euler_char",
                     "length_estimate")
SWEEP_FIELDS = ("model", "seed", "n", "m") + SWEEP_FUNCTIONALS


@dataclass
class SweepRecord:
    """One model draw; every field is a value or None with a flag, never NaN."""

    model: str
    seed: int
    n: int
    m: int
    char_length: float
    mean_cluster: float
    cluster_length_ratio: Optional[float]
    dimension: Optional[float]
    mean_degree: float
    edge_density: Optional[float]
    curvature_action: Optional[float]
    euler_char: Optional[int]
    length_estimate: Optional[float]
    flags: dict = field(default_factory=dict)  # functional -> skipped/undefined reason


def evaluate_sweep_record(spec):
    """Build the model and read SWEEP_FUNCTIONALS from one compute_report.

    Integer kinds become int and the others float; a skipped or undefined
    entry becomes None, with the report's reason in `flags`.
    """
    g = build_model(spec)
    values, flags = {}, {}
    for name, entry in compute_report(g, SWEEP_FUNCTIONALS).entries.items():
        if entry.status == "ok":
            values[name] = int(entry.value) if entry.kind == "integer" else float(entry.value)
        else:
            values[name], flags[name] = None, entry.reason
    return SweepRecord(model=spec.describe(), seed=spec.seed, n=g.n, m=g.m, flags=flags,
                       **values)


def growth_sweep(kind, params, n_list, seeds_per_n, seed=0, workers=1):
    """SweepRecords for each (n, replicate) of a model family."""
    if seeds_per_n < 1:
        raise InvalidParam(f"a sweep needs at least one seed per n, got {seeds_per_n}")
    if min(n_list, default=0) < 0:  # a negative n would reach derive_seed's path first
        raise InvalidParam(f"a sweep needs vertex counts n >= 0, got {min(n_list)}")
    if kind in MODELS and "n" not in MODELS[kind][1]:
        raise InvalidParam(f"{kind} takes no --n, so it cannot be swept over n")
    specs = [ModelSpec(kind, {**params, "n": n}, seed=rng.derive_seed(seed, n, s))
             for n in n_list for s in range(seeds_per_n)]
    return rng.ordered_map(evaluate_sweep_record, [(spec,) for spec in specs], workers)


@dataclass
class RatioDimensionPoint:
    p: float
    mean_ratio: Optional[float]
    mean_dimension: float
    samples: int
    excluded: int


@dataclass
class RatioDimensionSweep:
    points: list
    pearson: float


def ratio_dimension_sweep(n, p_grid, samples_per_p, seed):
    """Per-p means of the cluster-length ratio and the inductive dimension over
    the reports of G(n, p) draws seeded derive_seed(seed, ip, s), plus the
    Pearson correlation of the paired means."""
    points = []
    for ip, p in enumerate(p_grid):
        dims, ratios = [], []
        for s in range(samples_per_p):
            spec = ModelSpec("erdos_renyi", {"n": n, "p": p}, seed=rng.derive_seed(seed, ip, s))
            entries = compute_report(build_model(spec),
                                     ("dimension", "cluster_length_ratio")).entries
            if entries["dimension"].status != "ok":
                raise RecursionBudgetExceeded(entries["dimension"].reason)
            dims.append(float(entries["dimension"].value))
            if entries["cluster_length_ratio"].status == "ok":
                ratios.append(float(entries["cluster_length_ratio"].value))
        points.append(RatioDimensionPoint(
            p=float(p),
            mean_ratio=sum(ratios) / len(ratios) if ratios else None,
            mean_dimension=sum(dims) / samples_per_p,
            samples=samples_per_p,
            excluded=samples_per_p - len(ratios),
        ))
    paired = [(pt.mean_ratio, pt.mean_dimension) for pt in points
              if pt.mean_ratio is not None]
    return RatioDimensionSweep(points=points, pearson=_pearson(paired))


def _pearson(pairs):
    if len(pairs) < 2:
        return float("nan")
    xs = np.array([a for a, _ in pairs])
    ys = np.array([b for _, b in pairs])
    sx = xs.std()
    sy = ys.std()
    if sx == 0 or sy == 0:
        return float("nan")
    return float(((xs - xs.mean()) * (ys - ys.mean())).mean() / (sx * sy))


# -- bound audit ---------------------------------------------------------------

@dataclass
class BoundCheck:
    name: str
    lhs: object
    rhs: object
    holds: Optional[bool]   # None when skipped
    note: str = ""


def bound_audit(g, independence_cap=INDEPENDENCE_CAP, chromatic_cap=CHROMATIC_CAP,
                arboricity_cap=ARBORICITY_CAP, tree_enumeration_limit=5000):
    """Evaluate every implemented length/coloring bound on one graph.

    Skipped comparisons (caps, disconnected input) come back with holds=None
    and the reason in `note`.
    """
    checks = []
    if g.n < 2 or not is_connected(g):
        reason = "needs a connected graph on >= 2 vertices"
        return [BoundCheck(name, None, None, None, reason) for name in
                ("length_lower", "length_upper_order", "length_lower_density",
                 "length_upper_diameter", "length_upper_independence",
                 "length_lower_trace", "chromatic_vs_arboricity",
                 "wiener_spanning_trees")]

    mu = characteristic_length(g)
    n = g.n

    def check(name, lhs, rhs, holds, note=""):
        checks.append(BoundCheck(name, lhs, rhs, holds, note))

    check("length_lower", 1, mu, 1 <= mu, "equality" if mu == 1 else "")
    upper = Fraction(n + 1, 3)
    check("length_upper_order", mu, upper, mu <= upper,
          "equality" if mu == upper else "")
    # adjacent ordered pairs contribute 1, non-adjacent at least 2, so the
    # density expression bounds the length from below (equality iff diam <= 2)
    density_lower = 2 - Fraction(2 * g.m, n * (n - 1))
    check("length_lower_density", density_lower, mu, density_lower <= mu,
          "equality" if mu == density_lower else "")
    diam = max(len(counts) - 1 for counts in distance_levels(g))
    check("length_upper_diameter", mu, diam, mu <= diam,
          "equality" if mu == diam else "")

    try:
        beta = independence_number(g, cap=independence_cap)
        check("length_upper_independence", mu, beta, mu <= beta,
              "equality" if mu == beta else "")
    except SizeCapExceeded as exc:
        check("length_upper_independence", mu, None, None, str(exc))

    bound = pseudoinverse_trace_bound(g)
    holds = float(mu) >= bound - TRACE_TOL
    note = "equality" if abs(float(mu) - bound) <= TRACE_TOL else ""
    check("length_lower_trace", mu, bound, holds, note)

    try:
        c = chromatic_number(g, cap=chromatic_cap)
        a = arboricity(g, cap=arboricity_cap).value
        check("chromatic_vs_arboricity", c, 2 * a, c <= 2 * a)
    except SizeCapExceeded as exc:
        check("chromatic_vs_arboricity", None, None, None, str(exc))

    w_g = wiener_index(g)
    w_min, method = _min_spanning_tree_wiener(g, tree_enumeration_limit)
    check("wiener_spanning_trees", w_g, w_min, w_g <= w_min, method)
    return checks


def _tree_wiener(n, edges):
    """Wiener index of the tree with these n - 1 edges, or None if they do not
    span: cutting edge e leaves parts of s_e and n - s_e vertices, and e lies
    on the paths of 2 s_e (n - s_e) ordered pairs, so W = 2 sum_e s_e (n - s_e)."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [None] * n
    parent[0] = 0
    order = [0]
    for x in order:
        for y in adj[x]:
            if parent[y] is None:
                parent[y] = x
                order.append(y)
    if len(order) < n:
        return None
    size = [1] * n
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]
    return 2 * sum(size[x] * (n - size[x]) for x in order[1:])


def _min_spanning_tree_wiener(g, limit):
    """Smallest Wiener index over spanning trees.

    Enumerates every spanning tree when the edge-subset count is small,
    otherwise audits the BFS tree from each root (every tree satisfies the
    bound, so a sampled audit can only miss, never fake, a violation).
    """
    n = g.n
    if math.comb(g.m, n - 1) <= limit:
        trees, method = combinations(g.edges(), n - 1), "exhaustive"
    else:
        dist = all_pairs_distances(g)
        trees, method = (_bfs_tree(g, dist, root) for root in range(n)), "sampled(bfs-trees)"
    return min(w for w in (_tree_wiener(n, t) for t in trees) if w is not None), method


def _bfs_tree(g, dist, root):
    """Each vertex joined to its least neighbor one hop closer to root."""
    row = dist[root].tolist()
    return [(min(w for w in g.adj[v] if row[w] == row[v] - 1), v)
            for v in range(g.n) if v != root]
