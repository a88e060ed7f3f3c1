"""Empirical drivers: exhaustive extremal scans on small orders, sweeps over
random-model parameters, and the bound audit.

A sweep record reads its values from the functional registry
(`report.compute_report`), so a sweep and `analyze` evaluate, skip and flag
each functional the same way.

The extremal scan covers every labeled graph on n <= 8 vertices, a
C(n,2)-bit edge mask each, and computes each functional by vertex extension:
a mask's high bits are the edge mask of H, its graph on vertices 1..n-1, and
its low n - 1 bits are a, the neighbours of vertex 0, so the masks form a
grid of (a, H) cells and every value comes from tables built once per H.
Relabelling 1..n-1 by π maps (H, a) to the isomorphic (πH, πa), so the scan
evaluates one H per isomorphism class, the least mask of its S_{n-1}-orbit,
and weights each of its cells by the orbit size.  The counts are then those
of the full scan, and so are the witnesses: the first mask at a value has an
orbit's least H in its high bits (else relabelling it would give a smaller
mask at the same value), so it is a cell of the reduced scan.
Floyd-Warshall gives H's distances, and from them r(x, a), the distance in H
from x to the set a, for every a.  A shortest path meets vertex 0 at most
once, so d(0, x) = 1 + r(x, a) and d(x, y) = min(d_H(x, y), r(x, a) +
r(y, a) + 2), and G is connected iff every r(x, a) is finite; the distance
total and the counts of vertices at distance 2 that curvature reads are
sums of these over the pairs.  χ(G) = χ(H) + 1 - χ(H[a]), read from a table
of χ(H[S]) over every vertex set S.  τ(G) = det(L_H + diag a) = Σ_{T⊆a}
det L_H[V-T, V-T], a subset-sum over a of H's principal minors, which
Bareiss updates compute exactly in int64: a Laplacian row on at most 7
vertices has norm at most sqrt(42), so by Hadamard's bound each minor and
bordered minor is below 42^(7/2) < 2^19, and every product in an update is
below 2^39.  The curvature action is kept exact, as prime exponents, and
rounded once, so isomorphic graphs get the same float.  The grid is
compacted once, to the connected graphs in mask order.  Workers split the
representatives into fixed chunks; each chunk comes back as a summary of
distinct values, weighted counts and first witnesses, merged in chunk order,
so results do not depend on the worker count.
"""

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional

import numpy as np

from . import rng
from .combinatorial import (ARBORICITY_CAP, CHROMATIC_CAP, INDEPENDENCE_CAP, arboricity,
                            chromatic_number, independence_number)
from .errors import (InvalidParam, RecursionBudgetExceeded, SizeCapExceeded,
                     UnknownFunctional)
from .generators import MODELS, ModelSpec, build_model
from .graph import (_bfs_parents, all_pairs_distances, distance_levels, from_edge_list,
                    is_connected, neighbor_arrays)
from .metrics import characteristic_length, wiener_index
from .report import compute_report
from .spectral import pseudoinverse_trace_bound

EXTREMAL_FUNCTIONALS = ("char_length", "euler_char", "curvature_action", "log_complexity")
# H has <= 7 vertices: uint8 rows, int8 distances, int64 minors, and 7! = 5040
# relabellings mark the orbits of its 2^21 masks (at n = 9, 8! over 2^28)
MAX_EXTREMAL_N = 8
CHUNK_SIZE = 1 << 17  # (a, H) cells per extremal work unit
MAX_BINS = 1 << 20  # histogram bins per functional, 8 MB of counts
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
        """The edges np.histogram bins with: len(counts) + 1 of them, from lo to hi."""
        return np.linspace(self.lo, self.hi, len(self.counts) + 1).tolist()


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


_INF = 32  # distance across components: distances are below 8, and 2 * _INF + 2 fits int8


@functools.cache
def _orbits(k):
    """(representatives, sizes), read-only int64 arrays: the least edge mask
    of each S_k-orbit of graphs on k vertices, ascending, and the orbit's
    size.  The masks are walked in ascending order, and each one not yet
    marked is a representative whose k! relabellings mark its orbit: a
    permutation moves bit i, the pair (u, v), to the bit of (π u, π v).  The
    size is k! over the count of relabellings that fix the mask, |Aut H|."""
    pairs = edge_mask_pairs(k)
    index = np.zeros((k, k), dtype=np.int64)
    for i, (u, v) in enumerate(pairs):
        index[u, v] = index[v, u] = i
    perms = np.array(list(permutations(range(k))), dtype=np.int64).reshape(math.factorial(k), k)
    us, vs = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    moved = np.int64(1) << index[perms[:, us], perms[:, vs]]  # [π, i]: the bit i moves to
    bits = np.int64(1) << np.arange(len(pairs), dtype=np.int64)
    seen = np.zeros(1 << len(pairs), dtype=bool)
    reps, sizes = [], []
    mask = 0
    while True:
        images = moved[:, (mask & bits) != 0].sum(axis=1)
        seen[images] = True
        reps.append(mask)
        sizes.append(len(perms) // np.count_nonzero(images == mask))
        rest = seen[mask:]
        step = int(rest.argmin())  # the next unmarked mask, if any
        if rest[step]:
            break
        mask += step
    reps, sizes = np.array(reps, dtype=np.int64), np.array(sizes, dtype=np.int64)
    reps.flags.writeable = sizes.flags.writeable = False
    return reps, sizes


def _row_masks(n, masks):
    """(n, masks.size) uint8 array: entry [v, i] is the row mask of v (bit u
    set iff u ~ v) in the graph of edge mask masks[i]."""
    rows = np.zeros((n, masks.size), dtype=np.uint8)
    for i, (u, v) in enumerate(edge_mask_pairs(n)):
        bit = ((masks >> i) & 1).astype(np.uint8)
        rows[u] |= bit << v
        rows[v] |= bit << u
    return rows


def _adjacency(rows, k):
    """(k, k, count) 0/1 array: entry [u, v, h] is 1 iff u ~ v in graph h."""
    return (rows[:, None, :] >> np.arange(k, dtype=np.uint8)[:, None]) & 1


def _distances(rows, k):
    """(k, k, count) int8 array: entry [x, y, h] is the distance from x to y in
    graph h, _INF across components (Floyd-Warshall)."""
    d = np.where(_adjacency(rows, k) == 1, np.int8(1), np.int8(_INF))
    d[np.arange(k), np.arange(k)] = 0
    for m in range(k):
        np.minimum(d, d[:, m, None] + d[None, m], out=d)
    return d


def _set_distances(d, k):
    """(k, 2^k, count) int8 array: entry [x, a, h] is the distance in graph h
    from x to its nearest vertex in the set a, _INF if there is none, built a
    vertex at a time: the sets holding b are those below b plus b."""
    near = np.empty((k, 1 << k, d.shape[2]), dtype=np.int8)
    near[:, 0] = _INF
    for b in range(k):
        np.minimum(near[:, :1 << b], d[:, b, None], out=near[:, 1 << b:2 << b])
    return near


_PRIMES = (2, 3, 5, 7)  # every degree and distance-2 count on <= 8 vertices is below 8
_LOG_PRIMES = tuple(math.log(p) for p in _PRIMES)


def _valuation(d, p):
    """The exponent of the prime p in the positive integer d."""
    v = 0
    while d % p == 0:
        d, v = d // p, v + 1
    return v


def _curvature_actions(d1, d2, n):
    """Mean over the vertices of a connected graph of log(d2/d1), from
    per-vertex arrays of d1, the degree, and d2, the count of vertices at
    distance 2; vertices with d2 zero are left out (d1 is positive once
    n > 1), and a graph with none left is NaN.  The mean is kept exact: over
    the c vertices counted, e_p sums v_p(d2) - v_p(d1) for each prime p < 8,
    and the action is Σ_p e_p log p / c.  With (e, c) divided by their gcd and
    that sum taken in prime order, equal actions round to equal floats, an
    action of 0 is 0.0, and negating an action negates its float."""
    steps = np.zeros((n * n, len(_PRIMES) + 1), dtype=np.int8)  # [d1 * n + d2]: (e, 1)
    for one in range(1, n):
        for two in range(1, n):
            steps[one * n + two] = [_valuation(two, p) - _valuation(one, p)
                                    for p in _PRIMES] + [1]
    total = steps[d1[0] * np.uint8(n) + d2[0]]
    for v in range(1, n):
        total += steps[d1[v] * np.uint8(n) + d2[v]]
    common = np.gcd.reduce(total, axis=-1, keepdims=True)
    exps = total // np.maximum(common, 1)  # all 0 when no vertex is counted
    action = exps[..., 0] * _LOG_PRIMES[0]
    for i in range(1, len(_PRIMES)):
        action += exps[..., i] * _LOG_PRIMES[i]
    count = exps[..., -1]
    return np.divide(action, count, out=np.full(action.shape, np.nan), where=count > 0)


def _link_chars(rows, k):
    """(2^k, H count) table: entry [S, h] is chi of the subgraph that S, a
    subset of the k vertices, induces in graph h of row masks `rows`.  Deleting
    v, the top vertex of S, leaves S - v, and the cliques through v are v
    joined to the cliques of its link, so chi(S) = chi(S - v) + 1 - chi(N(v)
    in S - v)."""
    chi = np.zeros((1 << k, rows.shape[1]), dtype=np.int64)
    h = np.arange(rows.shape[1])
    for v in range(k):
        below = np.arange(1 << v)[:, None]  # S - v
        chi[1 << v:2 << v] = chi[:1 << v] + 1 - chi[rows[v] & below, h]
    return chi


def _principal_minors(rows, k):
    """(2^k, H count) table: entry [U, h] is det L[U, U], L the Laplacian of
    graph h of row masks `rows`.  A prefix trie over U in vertex order: node P
    holds the bordered minors t(i, j) = det L[P + i, P + j] for i, j above
    its top vertex, and by Sylvester's identity the child P + v holds
    (t(v,v) t(i,j) - t(i,v) t(v,j)) / det L[P, P], with det L[P + v, P + v]
    = t(v, v), exactly in int64 (Bareiss).  L is positive semidefinite, so
    when det L[P, P] = 0 the columns P are dependent in L and every t below P
    is 0: the division by that zero is replaced by one."""
    count = rows.shape[1]
    minors = np.zeros((1 << k, count), dtype=np.int64)
    minors[0] = 1
    lap = -_adjacency(rows, k).astype(np.int64)
    for v in range(k):
        lap[v, v] = np.bitwise_count(rows[v])
    stack = [(0, 0, lap, np.ones(count, dtype=np.int64))]  # (P, top + 1, t, det L[P, P])
    while stack:
        subset, first, t, det = stack.pop()
        det = np.where(det == 0, 1, det)
        for i in range(t.shape[0]):
            child, pivot = subset | (1 << (first + i)), t[i, i]
            minors[child] = pivot
            if i + 1 < t.shape[0]:
                rest = pivot * t[i + 1:, i + 1:] - t[i + 1:, i, None] * t[i, None, i + 1:]
                stack.append((child, first + i + 1, rest // det, pivot))
    return minors


def _tree_tables(rows, k):
    """(2^k, H count) table: entry [a, h] is the spanning-tree count of graph h
    plus a vertex joined to the vertex set a.  That count is det(L + diag a),
    L the Laplacian of h (the matrix-tree theorem with the new vertex
    deleted), and expanding the determinant along the diagonal gives
    sum over T in a of det L[V - T, V - T]: a subset-sum over a of the
    principal minors read in complement order."""
    taus = _principal_minors(rows, k)[::-1].copy()  # [T] = det L[V - T, V - T]
    for b in range(k):
        pair = taus.reshape(-1, 2, 1 << b, taus.shape[1])
        pair[:, 1] += pair[:, 0]
    return taus


def _scan_chunk(n, hs, wants):
    """Evaluate every (a, H) cell of the graphs H on vertices 1..n-1 with the
    ascending edge masks `hs`; returns per-connected-graph arrays in mask
    order, H-major and a-minor.

    Every functional is computed on the grid from the tables per H (see the
    module docstring).  "masks" holds each graph's edge mask and "h" the
    index in `hs` of its H; `char_length` is the ordered-pair distance total,
    and `log_complexity` is read as "tree_count".
    """
    k = n - 1
    rows = _row_masks(k, hs)
    d = _distances(rows, k)
    from0 = _set_distances(d, k) + np.int8(1)  # [x, a, h] = d(0, x)
    connected = from0.max(axis=0, initial=0) <= _INF  # initial: n = 1 has no x

    grid = {}
    length, curvature = "char_length" in wants, "curvature_action" in wants
    if length:
        total = from0.sum(axis=0, dtype=np.int16)
    if curvature:
        at2 = from0 == 2
        d2 = at2.astype(np.uint8)  # [x] counts the vertices at distance 2 from x
    for x, y in combinations(range(k), 2) if length or curvature else ():
        dxy = np.minimum(from0[x] + from0[y], d[x, y])
        if length:
            total += dxy
        if curvature:
            hit = dxy == 2
            d2[x] += hit
            d2[y] += hit
    if length:
        grid["char_length"] = 2 * total
    if curvature:
        a = np.arange(1 << k, dtype=np.uint8)[:, None]
        degrees = [np.bitwise_count(a)] + [(a >> x & 1) + np.bitwise_count(rows[x])
                                           for x in range(k)]
        grid["curvature_action"] = _curvature_actions(
            degrees, [at2.sum(axis=0, dtype=np.uint8)] + list(d2), n)
    if "euler_char" in wants:
        chi = _link_chars(rows, k)
        grid["euler_char"] = chi[-1] + 1 - chi  # chi(H) + 1 - chi(link of 0)
    if "log_complexity" in wants:
        grid["tree_count"] = _tree_tables(rows, k)

    # one compaction, in mask order: hs ascends, so H-major then a-minor
    kept = np.flatnonzero(connected.T.ravel())  # h * 2^k + a
    h, a = kept >> k, kept & ((1 << k) - 1)
    out = {"masks": hs[h] << k | a, "h": h}
    for name, values in grid.items():
        out[name] = values.ravel()[a * hs.size + h]
    return out


def _merge_counts(keys, counts):
    """Sum the counts of equal keys; the keys come back distinct and ascending."""
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    first = np.flatnonzero(first)
    return keys[first], np.add.reduceat(counts, first)


class _Tally:
    """One functional over a run of cells: its defined scan values as
    distinct keys with counts, each cell counted with its weight, and the
    first mask (in mask order) at the least and at the greatest key.  A NaN
    key is undefined."""

    def __init__(self, masks, keys, weights):
        self.undefined = 0
        if keys.dtype.kind == "f":
            defined = ~np.isnan(keys)
            self.undefined = int(weights[~defined].sum())
            masks, keys, weights = masks[defined], keys[defined], weights[defined]
        self.keys, self.counts = _merge_counts(keys, weights)
        self.evaluated = int(weights.sum())
        self.least = self.greatest = None
        if keys.size:
            i, j = int(np.argmin(keys)), int(np.argmax(keys))
            self.least = (keys[i].item(), int(masks[i]))
            self.greatest = (keys[j].item(), int(masks[j]))

    def merge(self, later):
        """Fold in the tally of a later run of cells; a tie keeps the earlier mask."""
        self.evaluated += later.evaluated
        self.undefined += later.undefined
        if later.least is not None:
            if self.least is None or later.least[0] < self.least[0]:
                self.least = later.least
            if self.greatest is None or later.greatest[0] > self.greatest[0]:
                self.greatest = later.greatest
        self.keys, self.counts = _merge_counts(np.concatenate((self.keys, later.keys)),
                                               np.concatenate((self.counts, later.counts)))


def _scan_tallies(n, hs, sizes, wants):
    """One work unit, the H of edge masks `hs` with orbit sizes `sizes`: the
    weighted connected count and each wanted functional's _Tally, a cell
    weighted by its H's orbit size.  log_complexity is tallied by tree count,
    which orders it the same way."""
    out = _scan_chunk(n, hs, wants)
    weights = sizes[out["h"]]
    return int(weights.sum()), {
        name: _Tally(out["masks"], out["tree_count" if name == "log_complexity" else name],
                     weights)
        for name in wants}


def _extremal_result(name, n, tally, bins):
    if not tally.evaluated:
        return ExtremalResult(functional=name, evaluated=0, undefined=tally.undefined,
                              min_value=None, max_value=None, min_witness=None,
                              max_witness=None, histogram=Histogram((), 0.0, 0.0))
    keys, counts = tally.keys, tally.counts
    if name == "log_complexity":
        values = np.array([math.log(n * tau) for tau in keys.tolist()])
    else:  # char_length bins the distance totals, not the lengths
        values = keys.astype(np.float64)
    lo_v, hi_v = float(values[0]), float(values[-1])
    hist_hi = hi_v if hi_v > lo_v else lo_v + 1  # degenerate constant case
    hist, _ = np.histogram(values, bins=bins, range=(lo_v, hist_hi), weights=counts)
    min_value, max_value = lo_v, hi_v
    if name == "char_length":
        denom = n * n - n
        min_value, max_value = ((Fraction(int(keys[0]), denom), Fraction(int(keys[-1]), denom))
                                if denom else (Fraction(0), Fraction(0)))
    elif name == "euler_char":
        min_value, max_value = int(keys[0]), int(keys[-1])
    return ExtremalResult(
        functional=name,
        evaluated=tally.evaluated,
        undefined=tally.undefined,
        min_value=min_value,
        max_value=max_value,
        min_witness=graph_from_mask(n, tally.least[1]),
        max_witness=graph_from_mask(n, tally.greatest[1]),
        histogram=Histogram(tuple(int(c) for c in hist), lo_v, hist_hi),
    )


def extremal_search(n, functionals=EXTREMAL_FUNCTIONALS, workers=1, bins=64):
    """Scan all connected labeled graphs on n vertices for min/max/histograms.

    Only the orbit representatives of H are evaluated, each cell counted
    with its orbit size (see the module docstring).  Each chunk comes back as
    a summary, merged in chunk order, so memory holds one chunk and the
    distinct values, not every graph's values.
    """
    unknown = set(functionals) - set(EXTREMAL_FUNCTIONALS)
    if unknown:
        raise UnknownFunctional(", ".join(sorted(unknown)))
    if not functionals:
        raise InvalidParam("an extremal scan needs at least one functional")
    if not 1 <= n <= MAX_EXTREMAL_N:
        raise InvalidParam(f"extremal scan supports 1 <= n <= {MAX_EXTREMAL_N}")
    if not 1 <= bins <= MAX_BINS:
        raise InvalidParam(f"extremal histograms need 1 <= bins <= {MAX_BINS}")
    reps, sizes = _orbits(n - 1)
    step = -(-CHUNK_SIZE >> (n - 1))  # whole representatives, 2^(n-1) cells each
    calls = [(n, reps[i:i + step], sizes[i:i + step], tuple(functionals))
             for i in range(0, reps.size, step)]
    connected, tallies = 0, None
    for count, chunk in rng.ordered_imap(_scan_tallies, calls, workers):
        connected += count
        if tallies is None:
            tallies = chunk
        else:
            for name, tally in chunk.items():
                tallies[name].merge(tally)
    return ExtremalReport(n=n, total_masks=1 << (n * (n - 1) // 2), connected_count=connected,
                          results={name: _extremal_result(name, n, tallies[name], bins)
                                   for name in functionals})


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
    parent = _bfs_parents(adj, 0)
    if len(parent) < n:
        return None
    del parent[0]  # the root: every other vertex cuts off the subtree below it
    size = [1] * n
    for x, p in reversed(parent.items()):
        size[p] += size[x]
    return 2 * sum(size[x] * (n - size[x]) for x in parent)


def _min_spanning_tree_wiener(g, limit):
    """Smallest Wiener index over spanning trees.

    Enumerates every spanning tree when the edge-subset count is small,
    otherwise audits the BFS tree from each root (every tree satisfies the
    bound, so a sampled audit can only miss, never fake, a violation).
    """
    n = g.n
    if math.comb(g.m, n - 1) <= limit:
        trees = combinations(g.edges(), n - 1)
        return min(w for w in (_tree_wiener(n, t) for t in trees) if w is not None), "exhaustive"
    return int(_bfs_tree_wieners(g).min()), "sampled(bfs-trees)"


_ROOT_CHUNK_ENTRIES = 2 ** 20  # entries of each per-chunk (root, directed edge) table


def _bfs_tree_wieners(g):
    """Wiener index of the BFS tree from each root of a connected graph on
    n >= 2 vertices, in which every other vertex hangs from its least
    neighbor one hop closer to the root.

    Array passes over the distance matrix, a chunk of roots at a time so that
    the tables hold about _ROOT_CHUNK_ENTRIES entries: a vertex's parent is
    the least entry of its segment of the sorted neighbor array among those
    one hop closer, the subtree sizes s_v add up level by level from the
    deepest, and W = 2 sum_v s_v (n - s_v) (the root's s is n).
    """
    n = g.n
    dist = all_pairs_distances(g)
    degrees, neighbors = neighbor_arrays(g)
    starts = np.cumsum(degrees) - degrees  # every segment is nonempty: g is connected
    tails = np.repeat(np.arange(n), degrees)
    chunk = max(1, _ROOT_CHUNK_ENTRIES // len(neighbors))
    wieners = []
    for first in range(0, n, chunk):
        d = dist[first:first + chunk]
        closer = d[:, neighbors] == d[:, tails] - 1
        # n where no neighbor is closer, at the root, whose parent is never read
        parent = np.minimum.reduceat(np.where(closer, neighbors, n), starts, axis=1)
        # flat index i n + v stands for vertex v in the tree of the chunk's root i
        above = (n * np.arange(len(d))[:, None] + parent).ravel()
        depth = d.ravel()
        order = np.argsort(depth)
        ends = np.cumsum(np.bincount(depth))  # ends[k]: entries at depth <= k
        size = np.ones(d.size, dtype=np.int64)
        for k in range(len(ends) - 1, 0, -1):
            level = order[ends[k - 1]:ends[k]]
            np.add.at(size, above[level], size[level])
        size = size.reshape(d.shape)
        wieners.append(2 * (size * (n - size)).sum(axis=1))
    return np.concatenate(wieners)
