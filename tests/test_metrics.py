"""Distance functionals: lengths, clustering, centrality, magnitude."""

import functools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from netfunc import metrics, rng, topology
from netfunc.errors import (Disconnected, InvalidParam, TooSmall, UndefinedRatio,
                            VertexOutOfRange)
from netfunc.experiments import SWEEP_FUNCTIONALS
from netfunc.generators import (barabasi_albert, complete, complete_bipartite, cycle,
                                erdos_renyi, path, star, watts_strogatz, wheel)
from netfunc.graph import from_edge_list, induced_subgraph, per_graph
from netfunc.metrics import (characteristic_length, closeness_centrality,
                             cluster_length_ratio, distance_variance, local_cluster,
                             local_length, local_mean_distance, local_profile,
                             magnitude, mean_centrality, mean_cluster,
                             relative_characteristic_length, wiener_index)
from netfunc.report import compute_report
from netfunc.topology import second_sphere_size, vertex_curvature, vertex_dimension

from conftest import (CONNECTED_LABELED, brute_neighbor_edges, disjoint_union,
                      iter_connected_graph_classes, iter_connected_graphs, iter_graph_classes,
                      sweep_draws)


def test_characteristic_length_closed_forms():
    assert characteristic_length(complete(7)) == 1
    assert characteristic_length(cycle(5)) == Fraction(3, 2)
    assert characteristic_length(cycle(4)) == Fraction(4, 3)
    assert characteristic_length(path(6)) == Fraction(7, 3)
    assert characteristic_length(complete_bipartite(2, 3)) == Fraction(7, 5)
    assert all(type(characteristic_length(g)) is Fraction
               for g in (complete(7), path(1), from_edge_list(3, [(0, 1)])))


def test_characteristic_length_disconnected_component_mean():
    # unweighted mean of per-component values; singletons contribute 0
    g = from_edge_list(5, [(0, 1), (2, 3), (3, 4)])  # K_2, P_3
    assert characteristic_length(g) == (Fraction(1) + Fraction(4, 3)) / 2
    g = from_edge_list(3, [])
    assert characteristic_length(g) == 0
    assert characteristic_length(from_edge_list(1, [])) == 0


def test_local_mean_distance():
    assert local_mean_distance(complete(4), 2) == 1
    assert local_mean_distance(path(3), 1) == 1
    assert local_mean_distance(path(3), 0) == Fraction(3, 2)
    with pytest.raises(Disconnected):
        local_mean_distance(from_edge_list(3, [(0, 1)]), 0)


def test_relative_characteristic_length():
    assert relative_characteristic_length(complete(4), {0, 1, 2}) == 1
    assert relative_characteristic_length(cycle(6), {0, 3}) == 3
    assert relative_characteristic_length(star(4), {1, 2, 3, 4}) == 2
    with pytest.raises(TooSmall):
        relative_characteristic_length(complete(4), {1})
    with pytest.raises(Disconnected):
        relative_characteristic_length(from_edge_list(4, [(0, 1), (2, 3)]), {0, 2})


@pytest.mark.parametrize("subset, error", [
    ([1, 1], InvalidParam), ([0, 0, 3], InvalidParam), ([0, 1.0], InvalidParam),
    ([0, 7], VertexOutOfRange), ([0, -1], VertexOutOfRange)])
def test_relative_characteristic_length_refuses_bad_ids(subset, error):
    with pytest.raises(error):
        relative_characteristic_length(path(4), subset)


def test_relative_length_never_exceeds_induced_length():
    # geodesics of the ambient graph are no longer than inside the subgraph
    for g in iter_connected_graphs(5):
        for subset in ({0, 1, 2}, {0, 2, 4}, {1, 3}):
            sub = induced_subgraph(g, subset)
            from netfunc.graph import is_connected
            if not is_connected(sub.graph):
                continue
            assert (relative_characteristic_length(g, subset)
                    <= characteristic_length(sub.graph))


def test_local_length_paper_cases():
    assert local_length(complete(5), 0) == 1
    assert local_length(star(5), 0) == 2
    assert local_length(cycle(5), 3) == 2
    assert local_length(path(2), 0) == 2  # degree-1 convention


def test_local_cluster():
    assert local_cluster(complete(5), 1) == 1
    w7 = wheel(7)
    assert local_cluster(w7, 0) == Fraction(2, 3)      # rim
    assert local_cluster(w7, 7) == Fraction(2, 6)      # hub
    assert local_cluster(star(4), 0) == 0


def test_mean_cluster():
    assert mean_cluster(complete(6)) == 1
    assert mean_cluster(cycle(8)) == 0
    for n in range(5, 11):
        w = wheel(n)
        expect = (n * Fraction(2, 3) + Fraction(2, n - 1)) / (n + 1)
        assert mean_cluster(w) == expect


def test_mean_cluster_is_the_vertex_mean_of_the_cluster_coefficients():
    # summed per degree, ν equals sum(C(x)) / n exactly, on every class n <= 7
    # and on the draws of both benchmark sweeps
    graphs = [g for n in range(1, 8) for g, _ in iter_graph_classes(n)]
    for g in graphs + sweep_draws("sparse") + sweep_draws("dense"):
        nu = mean_cluster(g)
        assert type(nu) is Fraction
        assert nu == sum(local_cluster(g, x) for x in range(g.n)) / g.n
    assert mean_cluster(from_edge_list(0, [])) == 0


def test_neighbor_edges_match_the_pair_oracle():
    # each triangle is counted once, from its lowest vertex in (degree, id)
    # order, and adds one to each of its corners
    graphs = [erdos_renyi(60, p, rng.derive_seed(37, 60, int(p * 100)))
              for p in (0.02, 0.1, 0.3, 0.5, 0.8, 0.95)]
    graphs += [watts_strogatz(300, 6, 0.1, seed=2), watts_strogatz(50, 10, 0.5, seed=3),
               barabasi_albert(300, 3, 4), barabasi_albert(40, 8, 5), complete(1), complete(2),
               complete(9), from_edge_list(0, []), from_edge_list(7, []), path(1), path(12),
               star(1), star(30), wheel(9)]
    graphs.append(disjoint_union(*graphs[-8:], erdos_renyi(30, 0.4, 6)))
    for g in graphs:
        assert metrics._neighbor_edges(g) == brute_neighbor_edges(g)
    for g in sweep_draws("dense") + sweep_draws("sparse")[:6]:
        assert metrics._neighbor_edges(g) == brute_neighbor_edges(g)


def test_neighbor_edges_in_chunks(monkeypatch):
    # a few neighbour pairs a chunk: a tail's pairs split across chunks, and a
    # forward edge with more partners than a chunk holds takes a chunk alone
    monkeypatch.setattr(metrics, "_PAIR_CHUNK", 5)
    for g in [complete(12), erdos_renyi(40, 0.5, 9), wheel(20), star(6)]:
        assert metrics._neighbor_edges(g) == brute_neighbor_edges(g)


def test_mean_cluster_of_a_large_star_with_triangles():
    # a hub with 20,000 leaves and three triangles through it: the pair loop
    # tested 2·10^8 leaf pairs at the hub, the forward lists test none
    n = 20_007
    edges = [(0, v) for v in range(1, n)]
    edges += [(20_001 + 2 * t, 20_002 + 2 * t) for t in range(3)]
    g = from_edge_list(n, edges)
    started = time.perf_counter()
    nu = mean_cluster(g)
    assert time.perf_counter() - started < 5
    hub = Fraction(2 * 3, (n - 1) * (n - 2))
    assert nu == (hub + 6) / n
    assert metrics._neighbor_edges(g)[0] == 3 and sum(metrics._neighbor_edges(g)) == 9


def test_cluster_length_lemma_families_and_random():
    graphs = [complete(6), wheel(7), star(5), path(7), cycle(9),
              complete_bipartite(3, 4)]
    graphs += [erdos_renyi(18, p, seed) for p in (0.2, 0.5, 0.8) for seed in range(15)]
    for g in graphs:
        for x in range(g.n):
            if g.degree(x) >= 2:
                assert local_length(g, x) + local_cluster(g, x) == 2


def test_cluster_length_ratio():
    with pytest.raises(UndefinedRatio) as info:
        cluster_length_ratio(complete(5))
    assert info.value.reason == "nu_one"
    with pytest.raises(UndefinedRatio) as info:
        cluster_length_ratio(cycle(9))
    assert info.value.reason == "nu_zero"
    w = wheel(6)
    expect = float(characteristic_length(w)) / math.log(1 / float(mean_cluster(w)))
    assert cluster_length_ratio(w) == pytest.approx(expect)


def test_wiener_index():
    assert wiener_index(complete(4)) == 12
    assert wiener_index(path(3)) == 8
    assert wiener_index(cycle(4)) == 16
    g = complete(5)
    assert wiener_index(g) == 20 * characteristic_length(g)


def test_distance_variance():
    assert distance_variance(complete(6)) == 0
    assert distance_variance(path(3)) == 1
    assert distance_variance(star(4)) == 3


def test_centrality():
    assert closeness_centrality(complete(4), 0) == Fraction(1, 3)
    assert closeness_centrality(path(3), 1) == Fraction(1, 2)
    assert closeness_centrality(path(3), 0) == Fraction(1, 3)
    assert mean_centrality(path(3)) == (Fraction(1, 2) + 2 * Fraction(1, 3)) / 3


def test_magnitude_closed_form():
    assert magnitude(complete(1)) == pytest.approx(1.0)
    assert magnitude(complete(2)) == pytest.approx(2 / (1 + math.exp(-1)), abs=1e-12)
    for n in range(3, 9):
        expect = n / (1 + (n - 1) * math.exp(-1))
        assert magnitude(complete(n)) == pytest.approx(expect, abs=1e-10)


def test_magnitude_matches_library_solver():
    import numpy as np

    from netfunc.graph import all_pairs_distances

    for seed in range(8):
        g = erdos_renyi(12, 0.4, seed)
        from netfunc.graph import is_connected
        if not is_connected(g):
            continue
        dist = all_pairs_distances(g)
        z = np.exp(-np.array([[dist[i, j] for j in range(g.n)]
                              for i in range(g.n)], dtype=float))
        expect = float(np.linalg.solve(z, np.ones(g.n)).sum())
        assert magnitude(g) == pytest.approx(expect, abs=1e-9)


def test_magnitude_singular_z_is_undefined(monkeypatch):
    import numpy as np

    from netfunc import metrics
    from netfunc.errors import SingularZ
    from netfunc.report import compute_report

    # vertices 0 and 1 get identical distance rows, so Z has two equal rows
    fake = np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    monkeypatch.setattr(metrics, "all_pairs_distances", lambda g: fake)
    with pytest.raises(SingularZ):
        magnitude(complete(3))
    entry = compute_report(complete(3), ["magnitude"]).entries["magnitude"]
    assert entry.status == "undefined"


def check_length_bounds(n, weighted_graphs):
    """1 <= mu <= (n+1)/3, density lower bound, diameter and independence
    upper bounds, all as exact comparisons on every connected graph, given
    as (graph, how many labeled graphs it stands for)."""
    from netfunc.combinatorial import independence_number
    from netfunc.graph import all_pairs_distances

    top = Fraction(n + 1, 3)
    graphs = min_achievers = max_achievers = 0
    for g, weight in weighted_graphs:
        graphs += weight
        mu = characteristic_length(g)
        assert 1 <= mu <= top
        assert mu >= 2 - Fraction(2 * g.m, n * (n - 1))
        assert mu <= all_pairs_distances(g).max()
        assert mu <= independence_number(g)
        if mu == 1:
            min_achievers += weight
            assert g.m == n * (n - 1) // 2  # complete
        if mu == top:
            max_achievers += weight
            degrees = sorted(g.degree(x) for x in range(n))
            assert g.m == n - 1 and degrees[-1] <= 2  # a path
    assert graphs == CONNECTED_LABELED[n]
    assert min_achievers == 1
    assert max_achievers == (1 if n == 2 else math.factorial(n) // 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_length_bounds_exhaustive(n):
    check_length_bounds(n, ((g, 1) for g in iter_connected_graphs(n)))


@pytest.mark.parametrize("n", [6, 7])
def test_length_bounds_over_classes(n):
    check_length_bounds(n, iter_connected_graph_classes(n))


def test_local_profile():
    prof = local_profile(complete(4))
    assert all(r.cluster == 1 and r.length == 1 and r.mean_distance == 1 for r in prof)
    center = local_profile(star(4))[0]
    assert center.cluster == 0 and center.length == 2 and not center.low_degree
    leaf = local_profile(star(4))[1]
    assert leaf.low_degree and leaf.length == 2
    recs = local_profile(cycle(5))
    first = recs[0]
    assert all((r.cluster, r.length, r.mean_distance, r.dimension)
               == (first.cluster, first.length, first.mean_distance, first.dimension)
               for r in recs)
    # distance-based fields are unavailable on a disconnected graph
    rec = local_profile(from_edge_list(4, [(0, 1), (2, 3)]))[0]
    assert rec.mean_distance is None and rec.centrality is None
    assert rec.length == 2 and rec.low_degree


PER_VERTEX = [local_cluster, local_length, local_mean_distance, closeness_centrality,
              second_sphere_size, vertex_curvature, vertex_dimension]


@pytest.mark.parametrize("fn", PER_VERTEX, ids=lambda fn: fn.__name__)
def test_per_vertex_functions_check_the_id(fn):
    g = wheel(6)
    for bad in (-1, g.n):
        with pytest.raises(VertexOutOfRange):
            fn(g, bad)
    for bad in (1.0, "0"):
        with pytest.raises(InvalidParam):
            fn(g, bad)
    assert fn(g, np.int64(1)) == fn(g, 1)


def test_per_vertex_id_is_checked_before_the_size():
    g = from_edge_list(1, [])
    with pytest.raises(TooSmall, match="need at least two vertices"):
        local_mean_distance(g, 0)
    with pytest.raises(VertexOutOfRange):
        local_mean_distance(g, 1)


# the cached per-graph values of metrics and topology, by module and name
CACHED = [(metrics, "_neighbor_edges"), (metrics, "_cluster_coefficients"),
          (metrics, "_distance_totals"),
          (metrics, "characteristic_length"), (metrics, "mean_cluster"),
          (topology, "curvature_summary")]


@pytest.fixture
def builds(monkeypatch):
    """Counts, by name, how often each cached value in CACHED is computed."""
    counts = Counter()
    for module, name in CACHED:
        compute = getattr(module, name).__wrapped__

        @functools.wraps(compute)  # the same name, so the same cache key
        def counted(g, compute=compute, name=name):
            counts[name] += 1
            return compute(g)
        monkeypatch.setattr(module, name, per_graph(counted))
    return counts


def test_each_local_table_is_built_once_per_graph(builds):
    # ν sums the neighbor edge counts per degree, so the sweep needs no C(x) table
    compute_report(watts_strogatz(500, 6, 0.1, seed=1), SWEEP_FUNCTIONALS)
    assert builds == {name: 1 for _, name in CACHED if name != "_cluster_coefficients"}
    builds.clear()
    compute_report(watts_strogatz(60, 6, 0.1, seed=1), include_profile=True)
    assert builds == {name: 1 for _, name in CACHED}
