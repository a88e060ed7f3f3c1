"""Extremal scans, sweeps and the bound audit."""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from conftest import (CONNECTED_LABELED, bareiss_determinant, exact_curvature_action,
                      full_scan_extremal, iter_connected_graph_classes,
                      per_root_tree_wieners, reduced_laplacian, row_mask_extremal,
                      row_mask_scan)

from netfunc import experiments, rng
from netfunc.continuum import Torus2, mc_characteristic_length, mc_mean_cluster
from netfunc.errors import (CliqueBudgetExceeded, EstimatorUndefined, InvalidParam,
                            RecursionBudgetExceeded, UndefinedRatio, UnknownFunctional)
from netfunc.experiments import (SWEEP_FIELDS, Histogram, RatioDimensionPoint, _pearson,
                                 _tree_wiener, bound_audit, evaluate_sweep_record,
                                 extremal_search, growth_sweep, ratio_dimension_sweep)
from netfunc.generators import (ModelSpec, build_model, complete, cycle, erdos_renyi, path,
                                star, watts_strogatz, wheel)
from netfunc.graph import all_pairs_distances, from_edge_list, induced_subgraph, is_connected
from netfunc.metrics import (characteristic_length, cluster_length_ratio, mean_cluster,
                             wiener_index)
from netfunc.report import FUNCTIONALS, Caps, compute_report
from netfunc.spectral import laplacian_matrix, spectral_complexity
from netfunc.topology import (curvature_summary, euler_characteristic,
                              expected_dimension_polynomial, inductive_dimension,
                              length_estimate)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_connected_counts_match_known_sequence(n):
    rep = extremal_search(n, functionals=("char_length",))
    assert rep.connected_count == CONNECTED_LABELED[n]


def test_extremal_small_order_values():
    rep = extremal_search(5)
    mu = rep.results["char_length"]
    assert mu.min_value == 1 and mu.min_witness == complete(5)
    assert mu.max_value == Fraction(2)  # (n+1)/3 for the path
    assert mu.max_witness.m == 4  # a tree
    chi = rep.results["euler_char"]
    assert chi.min_value <= 0 <= chi.max_value
    assert sum(mu.histogram.counts) == 728


def test_extremal_order_three_distribution():
    rep = extremal_search(3, functionals=("char_length",), bins=2)
    res = rep.results["char_length"]
    assert res.min_value == 1 and res.max_value == Fraction(4, 3)
    assert res.histogram.counts == (1, 3)  # one triangle, three labeled paths


def test_histogram_edges_are_the_ones_np_histogram_bins_with():
    gen = random.Random(11)
    for _ in range(500):
        lo = gen.uniform(-1e3, 1e3)
        hi = lo + gen.choice((gen.uniform(1e-9, 1.0), gen.uniform(1.0, 1e4)))
        bins = gen.randint(1, 200)
        edges = np.histogram([], bins=bins, range=(lo, hi))[1]
        assert Histogram((0,) * bins, lo, hi).bin_edges() == edges.tolist()
    for res in extremal_search(6).results.values():
        hist = res.histogram
        edges = np.histogram([], bins=len(hist.counts), range=(hist.lo, hist.hi))[1]
        assert hist.bin_edges() == edges.tolist()


def test_extremal_witnesses_reproduce_values():
    rep = extremal_search(5)
    mu = rep.results["char_length"]
    assert characteristic_length(mu.min_witness) == mu.min_value
    assert characteristic_length(mu.max_witness) == mu.max_value
    chi = rep.results["euler_char"]
    assert euler_characteristic(chi.min_witness) == chi.min_value
    assert euler_characteristic(chi.max_witness) == chi.max_value
    eta = rep.results["curvature_action"]
    assert curvature_summary(eta.min_witness).action == pytest.approx(eta.min_value)
    assert curvature_summary(eta.max_witness).action == pytest.approx(eta.max_value)
    xi = rep.results["log_complexity"]
    assert spectral_complexity(xi.min_witness).log_value == pytest.approx(xi.min_value)
    assert spectral_complexity(xi.max_witness).log_value == pytest.approx(xi.max_value)


def test_repeated_functional_is_tallied_once(monkeypatch):
    """A name given twice is one result, merged once per chunk."""
    monkeypatch.setattr(experiments, "CHUNK_SIZE", 32)
    assert (extremal_search(5, functionals=("char_length", "char_length"))
            == extremal_search(5, functionals=("char_length",)))


def test_extremal_worker_split_identical(monkeypatch):
    monkeypatch.setattr(experiments, "CHUNK_SIZE", 8)
    seq = extremal_search(4, workers=1)
    par = extremal_search(4, workers=3)
    assert seq.connected_count == par.connected_count
    for name in seq.results:  # values, witnesses, counts and histograms with lo and hi
        assert seq.results[name] == par.results[name]


@pytest.mark.parametrize("chunk", [8, 24])
def test_chunk_reduction_matches_full_array_reduction(monkeypatch, chunk):
    """Small chunks merged in order give the whole-array reduction of the
    row-mask kernel over every labeled graph: a tie across chunks keeps the
    first mask, and weighted counts add up to the labeled ones.  At n = 5 a
    graph on vertices 1..4 owns 16 cells, so a chunk of 8 cells rounds up to
    one of the 11 representatives and a chunk of 24 to two, the last chunk
    holding one."""
    monkeypatch.setattr(experiments, "CHUNK_SIZE", chunk)
    rep = extremal_search(5)
    want = row_mask_extremal(5, experiments.EXTREMAL_FUNCTIONALS)
    for name in ("char_length", "euler_char", "curvature_action"):
        assert rep.results[name] == want[name]
    got, old = rep.results["log_complexity"], want["log_complexity"]
    assert (got.evaluated, got.undefined) == (old.evaluated, old.undefined)
    assert got.min_value == pytest.approx(old.min_value, abs=1e-12)
    assert got.max_value == pytest.approx(old.max_value, abs=1e-12)


@pytest.mark.parametrize("n", [5, 6])
def test_log_complexity_extremes_are_exact(n):
    """Trees have one spanning tree and K_n has n^(n-2); the first tree in
    mask order is the star at 0, whose edges are the lowest bits."""
    xi = extremal_search(n, functionals=("log_complexity",)).results["log_complexity"]
    assert xi.min_value == math.log(n)
    assert xi.max_value == math.log(n ** (n - 1))
    assert xi.min_witness == star(n - 1)
    assert xi.max_witness == complete(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_orbit_scan_equals_full_scan(n):
    """One H per isomorphism class, its cells weighted by the orbit size,
    gives the scan over every labeled H: counts, histograms and witnesses."""
    assert repr(extremal_search(n)) == repr(full_scan_extremal(n))


def test_extremal_order_eight_end_to_end():
    """251,548,592 connected graphs on 8 vertices (OEIS A001187); the length
    runs from K_8's 1 to the path's 3, the spanning-tree count from a tree's 1
    to Cayley's 8^6; one and two workers give the same report."""
    rep = extremal_search(8)
    assert rep.connected_count == 251_548_592
    mu, xi = rep.results["char_length"], rep.results["log_complexity"]
    assert (mu.min_value, mu.max_value) == (1, 3)
    assert (xi.min_value, xi.max_value) == (math.log(8), math.log(8 ** 7))
    assert xi.max_value == pytest.approx(7 * math.log(8), rel=1e-15)
    assert extremal_search(8, workers=2) == rep


GRAPH_CLASSES = (1, 1, 2, 4, 11, 34, 156, 1044)  # graphs on k vertices up to isomorphism, A000088


@pytest.mark.parametrize("k", range(8))
def test_orbit_table_has_the_least_mask_of_each_class(k):
    """Each representative is the least mask among its relabellings, so no
    two share an orbit, and there are as many as isomorphism classes; the
    sizes add up to every labeled graph, and for k <= 5 each is k! / |Aut H|
    with the automorphisms counted on edge sets."""
    reps, sizes = experiments._orbits(k)
    assert reps.size == GRAPH_CLASSES[k]
    assert int(sizes.sum()) == 1 << (k * (k - 1) // 2)
    assert np.all(np.diff(reps) > 0)
    pairs = experiments.edge_mask_pairs(k)
    us, vs = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    perms = np.array(list(permutations(range(k))), dtype=np.intp).reshape(math.factorial(k), k)
    bits = np.int64(1) << np.arange(len(pairs), dtype=np.int64)
    for rep, size in zip(reps.tolist(), sizes.tolist()):
        adj = np.zeros((k, k), dtype=np.int64)
        adj[us, vs] = adj[vs, us] = rep >> np.arange(len(pairs)) & 1
        assert (adj[perms[:, us], perms[:, vs]] @ bits).min() == rep
        if k <= 5:
            edges = {frozenset(pair) for i, pair in enumerate(pairs) if rep >> i & 1}
            aut = sum({frozenset(perm[v] for v in e) for e in edges} == edges
                      for perm in permutations(range(k)))
            assert size == math.factorial(k) // aut


# graphs whose exact curvature action is 0 while their vertices' d2/d1 are
# not all 1: 1/3, 1/2, 1, 2, 3/2, 2 on six vertices; on seven, one 3/2 against
# one 2/3 and five 1s
ZERO_ACTION = {6: [(0, 3), (0, 4), (0, 5), (1, 2), (1, 4)],
               7: [(0, 1), (0, 5), (0, 6), (1, 2), (1, 6), (2, 3), (2, 5), (3, 4), (3, 6),
                   (4, 5)]}


@pytest.mark.parametrize("n", range(4, 9))
def test_curvature_is_one_float_per_isomorphism_class(n):
    """Seeded connected graphs under random relabellings of all n vertices
    get bit-identical kernel curvature; a graph whose d2 product equals its
    d1 product over the vertices with a second sphere gets exactly 0.0; and
    the scan's extremes are -log(n - 2) and its exact negation."""
    gen = random.Random(n)
    bit = {pair: i for i, pair in enumerate(experiments.edge_mask_pairs(n))}
    cases = [ZERO_ACTION[n]] if n in ZERO_ACTION else []
    while len(cases) < 40:
        g = experiments.graph_from_mask(n, gen.randrange(1 << len(bit)))
        if is_connected(g):
            cases.append(list(g.edges()))
    zeros = 0
    for edges in cases:
        perm = gen.sample(range(n), n)
        moved = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
        value, image = (_scan_range(n, mask, mask + 1, ("curvature_action",))["curvature_action"]
                        for mask in (sum(1 << bit[e] for e in es) for es in (edges, moved)))
        assert value.size == 1 and value.tobytes() == image.tobytes()
        dist = all_pairs_distances(from_edge_list(n, edges))
        d1, d2 = (dist == 1).sum(axis=1).tolist(), (dist == 2).sum(axis=1).tolist()
        counted = [(a, b) for a, b in zip(d1, d2) if b]
        if counted and math.prod(b for _, b in counted) == math.prod(a for a, _ in counted):
            zeros += 1
            assert value.tobytes() == np.float64(0.0).tobytes()
        assert value.tobytes() == np.float64(exact_curvature_action(d1, d2)).tobytes()
    assert zeros or n not in ZERO_ACTION
    eta = extremal_search(n, functionals=("curvature_action",)).results["curvature_action"]
    assert eta.min_value == -eta.max_value == -math.log(n - 2)


def _graph_rows(k, masks):
    """Graphs on k vertices by edge mask, as the (k, count) row masks the
    per-H tables read."""
    return experiments._row_masks(k, np.asarray(masks, dtype=np.int64))


@pytest.mark.parametrize("k", range(6))
def test_link_table_matches_euler_characteristic(k):
    masks = range(1 << (k * (k - 1) // 2))
    chi = experiments._link_chars(_graph_rows(k, masks), k)
    for h, mask in enumerate(masks):
        g = experiments.graph_from_mask(k, mask)
        for subset in range(1 << k):
            part = induced_subgraph(g, [v for v in range(k) if subset >> v & 1]).graph
            assert chi[subset, h] == euler_characteristic(part)


@pytest.mark.parametrize("k", range(1, 6))
def test_distance_tables_match_all_pairs_distances(k):
    """Every graph on k <= 5 vertices: H distances with _INF across
    components, and the distance from each vertex to every vertex set."""
    masks = range(1 << (k * (k - 1) // 2))
    d = experiments._distances(_graph_rows(k, masks), k)
    near = experiments._set_distances(d, k)
    for h, mask in enumerate(masks):
        dist = all_pairs_distances(experiments.graph_from_mask(k, mask))
        want = np.where(dist < 0, experiments._INF, dist)
        assert np.array_equal(d[:, :, h], want)
        for a in range(1 << k):
            members = [i for i in range(k) if a >> i & 1]
            assert near[:, a, h].tolist() == [min((int(want[x, i]) for i in members),
                                                  default=experiments._INF) for x in range(k)]


def _minor_cases(k):
    """Every graph on k <= 5 vertices; on 6 and 7, K_k and seeded draws."""
    total = 1 << (k * (k - 1) // 2)
    if k <= 5:
        return list(range(total))
    return [total - 1] + random.Random(k).sample(range(total), 40)


@pytest.mark.parametrize("k", range(8))
def test_principal_minor_table_matches_bareiss(k):
    """det L[U, U] for every U, singular ones included: an isolated vertex in
    U, or a whole component inside U, makes the minor 0."""
    masks = _minor_cases(k)
    minors = experiments._principal_minors(_graph_rows(k, masks), k)
    singular = 0
    for h, mask in enumerate(masks):
        lap = laplacian_matrix(experiments.graph_from_mask(k, mask)).tolist()
        for subset in range(1 << k):
            keep = [v for v in range(k) if subset >> v & 1]
            want = bareiss_determinant([[lap[i][j] for j in keep] for i in keep])
            assert minors[subset, h] == want
            singular += want == 0 and subset != (1 << k) - 1
    assert singular or k <= 1


def _oracle_ranges(n):
    """Every mask for n <= 6; at n = 7 and 8, seeded 1024-mask chunks, the
    first chunk, whose graphs on vertices 1..n-1 are edgeless or nearly so
    (the star at 0 is the one connected graph there with no such edge), and
    the last chunk, which holds K_n."""
    total = 1 << (n * (n - 1) // 2)
    if n <= 6:
        return [(0, total)]
    starts = [0] + random.Random(n).sample(range(0, total - 1024, 1024), 3) + [total - 1024]
    return [(lo, lo + 1024) for lo in starts]


def _scan_range(n, lo, hi, wants=experiments.EXTREMAL_FUNCTIONALS):
    """The chunk kernel's arrays for the connected graphs with masks in
    [lo, hi): every H the range touches, scanned whole, then cut to it."""
    k = n - 1
    out = experiments._scan_chunk(n, np.arange(lo >> k, ((hi - 1) >> k) + 1), wants)
    keep = (out["masks"] >= lo) & (out["masks"] < hi)
    return {name: values[keep] for name, values in out.items()}


@pytest.mark.parametrize("n", range(1, 9))
def test_scan_chunk_matches_row_mask_kernel(n):
    wants = experiments.EXTREMAL_FUNCTIONALS
    for lo, hi in _oracle_ranges(n):
        out = _scan_range(n, lo, hi)
        old = row_mask_scan(n, lo, hi, wants)
        assert np.array_equal(out["masks"], old["masks"])
        assert np.array_equal(out["char_length"], old["char_length"])
        assert np.array_equal(out["euler_char"], old["euler_char"])
        assert out["curvature_action"].tobytes() == old["curvature_action"].tobytes()
        assert np.allclose(np.log(n * out["tree_count"]), old["log_complexity"],
                           rtol=0, atol=1e-12)
        taus = [bareiss_determinant(reduced_laplacian(experiments.graph_from_mask(n, mask)))
                for mask in out["masks"].tolist()]
        assert out["tree_count"].tolist() == taus


def _kernel_rows(n, masks):
    """(mask, kernel values) for every mask the chunk kernel keeps, with
    log_complexity as log(n * tree_count)."""
    for lo, hi in masks:
        out = _scan_range(n, lo, hi)
        out["log_complexity"] = np.log(n * out["tree_count"])
        for i, mask in enumerate(out["masks"].tolist()):
            yield mask, {w: out[w][i] for w in experiments.EXTREMAL_FUNCTIONALS}


@pytest.mark.parametrize("n, sample", [(1, None), (2, None), (3, None), (4, None),
                                       (5, None), (6, 150), (7, 150)])
def test_scan_chunk_matches_registry_per_graph(n, sample):
    total = 1 << (n * (n - 1) // 2)
    if sample is None:
        ranges = [(0, total)]
    else:
        picks = random.Random(n).sample(range(total - 1), sample) + [total - 1]  # and K_n
        ranges = [(m, m + 1) for m in picks]
    kept = set()
    for mask, values in _kernel_rows(n, ranges):
        kept.add(mask)
        g = experiments.graph_from_mask(n, mask)
        assert values["char_length"] == wiener_index(g)
        assert values["euler_char"] == euler_characteristic(g)
        action = curvature_summary(g).action
        if action is None:
            assert math.isnan(values["curvature_action"])
        else:
            assert values["curvature_action"] == pytest.approx(action, abs=1e-12)
        assert values["log_complexity"] == pytest.approx(spectral_complexity(g).log_value,
                                                         abs=1e-9)
    scanned = [m for lo, hi in ranges for m in range(lo, hi)]
    assert kept == {m for m in scanned if is_connected(experiments.graph_from_mask(n, m))}


def test_extremal_rejects_large_or_unknown():
    with pytest.raises(InvalidParam):
        extremal_search(9)
    with pytest.raises(InvalidParam):
        extremal_search(4, functionals=("no_such",))
    with pytest.raises(InvalidParam, match="at least one functional"):
        extremal_search(7, functionals=())


def test_empty_functional_list_is_an_error():
    with pytest.raises(InvalidParam, match="at least one functional"):
        compute_report(complete(3), names=())
    assert list(compute_report(complete(3), names=None).entries) == list(FUNCTIONALS)


def test_unknown_functional_is_one_error():
    with pytest.raises(UnknownFunctional, match="^no_such$"):
        extremal_search(4, functionals=("char_length", "no_such"))
    with pytest.raises(UnknownFunctional, match="^no_such$"):
        compute_report(complete(3), ["char_length", "no_such"])


def test_ordered_map_starts_no_more_workers_than_calls(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    calls = [(x, 10 * x) for x in range(3)]
    assert rng.ordered_map(pow, calls, workers=5000) == [pow(x, 10 * x) for x in range(3)]
    assert rng.ordered_map(pow, calls, workers=2) == [pow(x, 10 * x) for x in range(3)]
    assert rng.ordered_map(pow, calls[:1], workers=5000) == [1]  # one call runs in-process
    assert started == [3, 2]


def test_growth_sweep_missing_parameter_fails_before_fan_out(monkeypatch):
    monkeypatch.setattr(rng, "ordered_map", None)  # any fan-out would raise TypeError
    with pytest.raises(InvalidParam, match="watts_strogatz needs --p"):
        growth_sweep("watts_strogatz", {"k": 4}, [10], 1)


@pytest.mark.parametrize("call", [
    lambda: ratio_dimension_sweep(8, [0.5], 0, seed=0),
    lambda: ratio_dimension_sweep(8, [0.5], 2.0, seed=0),
    lambda: extremal_search(2.5),
    lambda: extremal_search(True),
    lambda: extremal_search(4, bins=2.5),
    lambda: growth_sweep("erdos_renyi", {"p": 0.5}, [5], 1.5),
    lambda: growth_sweep("erdos_renyi", {"p": 0.5}, [5], True),
    lambda: mc_characteristic_length(Torus2(), 100000.0, 0),
    lambda: mc_mean_cluster(Torus2(), 0.01, 100000.0, 0),
    lambda: expected_dimension_polynomial(-1),
    lambda: expected_dimension_polynomial(3.0),
], ids=["no-samples", "float-samples", "float-n", "bool-n", "float-bins", "float-seeds",
        "bool-seeds", "float-length-samples", "float-cluster-samples", "negative-order",
        "float-order"])
def test_drivers_refuse_bad_counts(call):
    with pytest.raises(InvalidParam):
        call()


def test_growth_sweep_rejects_a_kind_without_n():
    with pytest.raises(InvalidParam, match="complete_bipartite takes no --n"):
        growth_sweep("complete_bipartite", {"a": 2, "b": 3}, [5, 9], 1)


def test_extremal_tiny_orders():
    rep = extremal_search(1)
    assert rep.connected_count == 1
    assert rep.results["euler_char"].min_value == 1
    rep = extremal_search(2)  # no vertex has a second sphere: curvature undefined
    eta = rep.results["curvature_action"]
    assert eta.evaluated == 0 and eta.undefined == 1 and eta.min_witness is None
    assert rep.results["char_length"].max_value == 1


def test_sweep_record_fields_and_flags():
    rec = evaluate_sweep_record(ModelSpec("erdos_renyi", {"n": 20, "p": 0.4}, seed=8))
    assert rec.n == 20
    assert rec.char_length > 1
    assert 0 < rec.mean_cluster < 1
    assert rec.cluster_length_ratio is not None
    assert rec.dimension is not None
    assert not rec.flags

    # orbital permutations: typically triangle-free, ratio flagged
    rec = evaluate_sweep_record(
        ModelSpec("orbital", {"n": 100, "generators": (("permutation",), ("permutation",))},
                  seed=5))
    if rec.mean_cluster == 0:
        assert rec.cluster_length_ratio is None
        assert rec.flags["cluster_length_ratio"] == "nu_zero"

    rec = evaluate_sweep_record(ModelSpec("complete", {"n": 6}, seed=0))
    assert rec.flags["cluster_length_ratio"] == "nu_one"
    assert rec.flags["curvature_action"] == "no_admissible_vertices"
    assert rec.curvature_action is None


def _hand_wired_sweep_record(spec):
    """The sweep record as it was computed before it read the functional
    registry: one guarded call per field, flags named by the exception."""
    g = build_model(spec)
    flags = {}

    def guard(name, fn, *errors):
        try:
            return fn()
        except errors as exc:
            flags[name] = getattr(exc, "reason", type(exc).__name__)
            return None

    summary = curvature_summary(g)
    if summary.action is None:
        flags["curvature_action"] = "no_admissible_vertices"
    values = dict(
        model=spec.describe(), seed=spec.seed, n=g.n, m=g.m,
        char_length=float(characteristic_length(g)),
        mean_cluster=float(mean_cluster(g)),
        cluster_length_ratio=guard("cluster_length_ratio",
                                   lambda: cluster_length_ratio(g), UndefinedRatio),
        dimension=guard("dimension", lambda: float(inductive_dimension(g)),
                        RecursionBudgetExceeded),
        mean_degree=summary.mean_degree,
        edge_density=float(summary.edge_density),
        curvature_action=summary.action,
        euler_char=guard("euler_char", lambda: euler_characteristic(g), CliqueBudgetExceeded),
        length_estimate=guard("length_estimate", lambda: length_estimate(g),
                              EstimatorUndefined),
    )
    return values, flags


PERMUTATIONS = (("permutation",), ("permutation",))
DIFFERENTIAL_SPECS = (
    [ModelSpec("erdos_renyi", {"n": n, "p": p}, seed=s)
     for n, p in ((12, 0.3), (20, 0.5), (30, 0.1), (16, 0.9)) for s in range(3)]
    + [ModelSpec("watts_strogatz", {"n": n, "k": 4, "p": 0.2}, seed=s)
       for n in (20, 60) for s in range(2)]
    + [ModelSpec("barabasi_albert", {"n": 40, "m": m}, seed=s) for m in (1, 3) for s in range(2)]
    + [ModelSpec("orbital", {"n": 50, "generators": gens}, seed=s)
       for gens in (PERMUTATIONS, (("quadratic", 1),)) for s in range(2)]
    + [ModelSpec("complete", {"n": 6}), ModelSpec("complete", {"n": 2})]
    + [ModelSpec("erdos_renyi", {"n": n, "p": 0.9}, seed=1) for n in (0, 1, 2)]
)


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda spec: spec.describe())
def test_sweep_record_matches_hand_wired_calls(spec):
    want, want_flags = _hand_wired_sweep_record(spec)
    rec = evaluate_sweep_record(spec)
    small = rec.n < 2
    for name in SWEEP_FIELDS:
        got = getattr(rec, name)
        if small and name == "edge_density":
            # the registry leaves edge density undefined below two vertices
            assert got is None and want[name] == 0.0
            continue
        assert got == want[name] and type(got) is type(want[name]), name
    if small:
        assert rec.flags.pop("edge_density") == "TooSmall: edge density needs n >= 2"
    assert rec.flags == want_flags


def test_sweep_budget_skips_carry_the_report_reason(monkeypatch):
    tiny = Caps(dimension_budget=2, clique_budget=5)
    monkeypatch.setattr(experiments, "compute_report",
                        lambda g, names: compute_report(g, names, caps=tiny))
    rec = evaluate_sweep_record(ModelSpec("complete", {"n": 8}))
    assert rec.dimension is None and rec.euler_char is None
    # the hand-wired guard flagged these as bare type names
    assert rec.flags["dimension"] == \
        "RecursionBudgetExceeded: more than 2 dimension subproblems"
    assert rec.flags["euler_char"] == "CliqueBudgetExceeded: more than 5 clique subproblems"
    assert rec.char_length == 1.0
    with pytest.raises(RecursionBudgetExceeded, match="more than 2 dimension subproblems"):
        ratio_dimension_sweep(8, [0.9], 2, seed=0)


def test_growth_sweep_deterministic_and_complete():
    records = growth_sweep("erdos_renyi", {"p": 0.2}, [12, 18], 3, seed=5)
    again = growth_sweep("erdos_renyi", {"p": 0.2}, [12, 18], 3, seed=5)
    assert len(records) == 6
    assert [r.model for r in records] == [r.model for r in again]
    assert [r.char_length for r in records] == [r.char_length for r in again]
    for rec in records:
        for name in SWEEP_FIELDS:
            assert hasattr(rec, name)


def test_growth_sweep_takes_numpy_vertex_counts():
    swept = growth_sweep("erdos_renyi", {"p": 0.5}, np.arange(6, 8), 1)
    assert swept == growth_sweep("erdos_renyi", {"p": 0.5}, [6, 7], 1)
    assert all(type(r.n) is int for r in swept)


def test_growth_sweep_worker_split_identical():
    seq = growth_sweep("erdos_renyi", {"p": 0.3}, [8, 10], 2, seed=4, workers=1)
    par = growth_sweep("erdos_renyi", {"p": 0.3}, [8, 10], 2, seed=4, workers=3)
    assert [(r.model, r.char_length, r.dimension) for r in seq] == \
        [(r.model, r.char_length, r.dimension) for r in par]


def test_growth_sweep_ws_preserves_mean_degree():
    records = growth_sweep("watts_strogatz", {"k": 4, "p": 0.1}, [20, 40], 3, seed=2)
    for rec in records:
        assert rec.mean_degree == pytest.approx(4.0)


def test_ratio_dimension_sweep_reproducible():
    table = ratio_dimension_sweep(12, [0.4, 0.5, 0.6], 20, seed=3)
    again = ratio_dimension_sweep(12, [0.4, 0.5, 0.6], 20, seed=3)
    assert [p.mean_ratio for p in table.points] == [p.mean_ratio for p in again.points]
    assert table.pearson == again.pearson
    assert all(p.samples == 20 for p in table.points)


def _hand_wired_ratio_dimension_sweep(n, p_grid, samples_per_p, seed):
    """The ratio-dimension loop as it was before it reduced sweep records."""
    points = []
    for ip, p in enumerate(p_grid):
        ratios, dims, excluded = [], [], 0
        for s in range(samples_per_p):
            g = erdos_renyi(n, p, rng.derive_seed(seed, ip, s))
            dims.append(float(inductive_dimension(g)))
            try:
                ratios.append(cluster_length_ratio(g))
            except UndefinedRatio:
                excluded += 1
        points.append(RatioDimensionPoint(
            p=float(p), mean_ratio=sum(ratios) / len(ratios) if ratios else None,
            mean_dimension=sum(dims) / len(dims), samples=samples_per_p, excluded=excluded))
    paired = [(pt.mean_ratio, pt.mean_dimension) for pt in points
              if pt.mean_ratio is not None]
    return points, _pearson(paired)


def test_ratio_dimension_sweep_matches_hand_wired_loop():
    grid = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]  # p = 1 draws K_n, whose ratio is undefined
    table = ratio_dimension_sweep(11, grid, 6, seed=17)
    points, pearson = _hand_wired_ratio_dimension_sweep(11, grid, 6, 17)
    assert table.points == points
    assert table.points[-1].mean_ratio is None and table.points[-1].excluded == 6
    assert table.pearson.hex() == pearson.hex()


def test_ratio_sweep_near_one_excludes():
    table = ratio_dimension_sweep(10, [0.99], 30, seed=1)
    assert table.points[0].excluded > 0


def test_bound_audit_complete_graph():
    checks = {c.name: c for c in bound_audit(complete(5))}
    assert all(c.holds for c in checks.values())
    assert checks["length_lower"].note == "equality"
    assert checks["length_upper_independence"].note == "equality"  # mu = beta = 1


def test_bound_audit_path_hits_order_bound():
    checks = {c.name: c for c in bound_audit(path(7))}
    assert checks["length_upper_order"].note == "equality"
    assert checks["length_lower_trace"].note == "equality"  # tree case
    assert all(c.holds for c in checks.values())


def test_bound_audit_disconnected_skips():
    checks = bound_audit(from_edge_list(4, [(0, 1), (2, 3)]))
    assert all(c.holds is None for c in checks)


@pytest.mark.parametrize("n", [6, 7])
def test_bound_audit_over_classes(n):
    # zero violations on every connected graph with 6 or 7 vertices, one per
    # isomorphism class (spanning-tree comparisons sampled here; exhausted for
    # <= 5 in the acceptance suite)
    sizes = 0
    for g, size in iter_connected_graph_classes(n):
        for c in bound_audit(g, tree_enumeration_limit=0):
            assert c.holds is not False, (sorted(g.edges()), c.name)
        sizes += size
    assert sizes == CONNECTED_LABELED[n]


def test_bound_audit_random_er():
    from netfunc.generators import erdos_renyi
    violations = []
    for seed in range(60):
        g = erdos_renyi(10, 0.4, seed)
        if not is_connected(g):
            continue
        for c in bound_audit(g):
            if c.holds is False:
                violations.append((seed, c))
    assert violations == []


def test_bound_audit_cap_skip():
    checks = {c.name: c for c in bound_audit(cycle(9), independence_cap=5)}
    assert checks["length_upper_independence"].holds is None
    assert all(c.holds for name, c in checks.items()
               if name != "length_upper_independence")


def test_wheel_and_star_audit():
    for g in (wheel(6), star(5), cycle(8)):
        assert all(c.holds for c in bound_audit(g))


@pytest.mark.parametrize("n", range(1, 8))
def test_tree_wiener_matches_distance_matrix(n):
    from conftest import iter_labeled_trees
    for tree in iter_labeled_trees(n):
        assert _tree_wiener(n, list(tree.edges())) == wiener_index(tree)


def test_tree_wiener_rejects_non_spanning_edge_sets():
    triangles = [s for s in combinations(complete(4).edges(), 3)
                 if len({x for e in s for x in e}) == 3]
    assert len(triangles) == 4
    assert all(_tree_wiener(4, s) is None for s in triangles)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exhaustive_audit_matches_brute_force_tree_minimum(n):
    from conftest import iter_connected_graphs
    for g in iter_connected_graphs(n):
        trees = [from_edge_list(n, s) for s in combinations(g.edges(), n - 1)]
        brute = min(wiener_index(t) for t in trees if is_connected(t))
        check = next(c for c in bound_audit(g) if c.name == "wiener_spanning_trees")
        assert (check.rhs, check.note) == (brute, "exhaustive"), sorted(g.edges())


def sampled_audit_graphs():
    """Seeded connected ER and WS draws up to 300 vertices, cycles, complete
    graphs, paths and stars."""
    draws = [erdos_renyi(n, p, seed) for n, p in ((12, 0.4), (60, 0.1), (150, 0.04), (300, 0.03))
             for seed in range(3)]
    draws += [watts_strogatz(n, k, 0.1, seed) for n, k in ((20, 4), (100, 6), (300, 4))
              for seed in range(2)]
    shapes = [f(n) for f in (cycle, complete, path, star) for n in (2, 3, 7, 30)
              if f is not cycle or n >= 3]
    return [g for g in draws if is_connected(g)] + shapes


def test_bfs_tree_wieners_match_per_root_trees():
    graphs = sampled_audit_graphs()
    assert len(graphs) > 25
    for g in graphs:
        wieners = per_root_tree_wieners(g)
        assert experiments._bfs_tree_wieners(g).tolist() == wieners, g
        assert experiments._min_spanning_tree_wiener(g, 0) == (min(wieners), "sampled(bfs-trees)")


@pytest.mark.parametrize("entries", [1, 50, 4000])
def test_bfs_tree_wieners_do_not_depend_on_the_root_chunk(entries, monkeypatch):
    g = next(g for seed in range(20) if is_connected(g := erdos_renyi(90, 0.06, seed)))
    want = per_root_tree_wieners(g)
    monkeypatch.setattr(experiments, "_ROOT_CHUNK_ENTRIES", entries)
    assert experiments._bfs_tree_wieners(g).tolist() == want


def test_bfs_tree_takes_the_least_closer_neighbor():
    # from root 0, vertex 3 has two neighbors one hop closer, 1 and 2; hung
    # from 1 (the least) it joins 1's leaves 4 and 5, hung from 2 it does not
    g = from_edge_list(6, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (1, 5)])
    least = wiener_index(from_edge_list(6, [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5)]))
    other = wiener_index(from_edge_list(6, [(0, 1), (0, 2), (2, 3), (1, 4), (1, 5)]))
    assert (least, other) == (56, 64)
    wieners = experiments._bfs_tree_wieners(g).tolist()
    assert wieners[0] == least
    assert wieners == per_root_tree_wieners(g)
