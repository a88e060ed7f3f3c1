"""Both views of the bit-parallel ball walk, the level counts and the distance
matrix, checked against Floyd-Warshall and the per-source BFS oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from netfunc.errors import Disconnected, EstimatorUndefined, NetfuncError, TooSmall
from netfunc.experiments import bound_audit
from netfunc.generators import erdos_renyi, path, watts_strogatz
from netfunc.graph import (UNREACHABLE, all_pairs_distances, ball, connected_components,
                           distance_levels, from_edge_list, is_connected)
from netfunc.metrics import (characteristic_length, closeness_centrality,
                             distance_variance, local_length, local_mean_distance,
                             mean_centrality, relative_characteristic_length,
                             wiener_index)
from netfunc.topology import curvature_summary, length_estimate, second_sphere_size

from conftest import (INF, bfs_distances, floyd_warshall, iter_graph_classes, iter_graphs,
                      iter_small_graphs, relabelled_graphs)


def test_levels_small_cases():
    assert distance_levels(from_edge_list(0, [])) == ()
    assert distance_levels(from_edge_list(3, [])) == ((1,), (1,), (1,))
    assert distance_levels(path(4)) == ((1, 1, 1, 1), (1, 2, 1), (1, 2, 1), (1, 1, 1, 1))
    g = from_edge_list(5, [(0, 1), (2, 3), (3, 4)])
    assert distance_levels(g) == ((1, 1), (1, 1), (1, 1, 1), (1, 2), (1, 1, 1))
    assert distance_levels(g) is distance_levels(g)  # cached


@pytest.mark.parametrize("n", range(7))
def test_levels_match_floyd_warshall_exhaustive(n):
    # every labelling up to n = 5, one seeded labelling per isomorphism class at 6
    for g in iter_small_graphs(n):
        levels = distance_levels(g)
        for x, row in enumerate(floyd_warshall(g)):
            finite = [d for d in row if d != INF]
            assert levels[x] == tuple(finite.count(k) for k in range(max(finite) + 1))


def assert_local_length_is_ball_length(g):
    # the definition: mean distance between the neighbors of x inside its ball
    for x in range(g.n):
        if g.degree(x) >= 2:
            sub = ball(g, x)
            sphere_ids = [i for i, v in enumerate(sub.vertices) if v != x]
            assert local_length(g, x) == relative_characteristic_length(sub.graph, sphere_ids)


@pytest.mark.parametrize("n", range(6))
def test_local_length_matches_ball_distances_exhaustive(n):
    for g in iter_graphs(n):
        assert_local_length_is_ball_length(g)


@pytest.mark.parametrize("n", [6, 7])
def test_local_length_matches_ball_distances_over_classes(n):
    sizes = 0
    for g, size in iter_graph_classes(n):
        assert_local_length_is_ball_length(g)
        sizes += size
    assert sizes == 2 ** (n * (n - 1) // 2)


# -- the per-source formulas the level layer replaced, on the BFS oracle --------
# `dist` is bfs_distances(g): rows of hop distances, UNREACHABLE across components.

def matrix_length(g, dist):
    values = []
    for comp in connected_components(g):
        k = len(comp)
        total = sum(dist[x][y] for x in comp for y in comp)
        values.append(Fraction(total, k * (k - 1)) if k >= 2 else Fraction(0))
    return sum(values) / len(values) if values else Fraction(0)


def matrix_row_total(dist, x):
    row = dist[x]
    if UNREACHABLE in row:
        raise Disconnected("vertex cannot reach the whole graph")
    return sum(row)


def matrix_second_sphere(dist, x):
    return sum(1 for d in dist[x] if d == 2)


def matrix_curvatures(g, dist):
    out = []
    for x in range(g.n):
        d1, d2 = g.degree(x), matrix_second_sphere(dist, x)
        out.append(math.log(d2 / d1) if d1 and d2 else None)
    return tuple(out)


def matrix_length_estimate(g, dist):
    d1 = 2 * g.m / g.n
    d2 = sum(matrix_second_sphere(dist, x) for x in range(g.n)) / g.n
    if d1 == 0 or d2 == 0 or d1 == d2:
        raise EstimatorUndefined("matrix path")
    return 1 + math.log(d1 / g.n) / math.log(d1 / d2)


def outcome(fn, *args):
    try:
        return fn(*args)
    except NetfuncError as exc:
        return type(exc)


SEEDED = {f"er-{n}-{p:g}-{seed}": erdos_renyi(n, p, seed)
          for n, p in ((40, 0.03), (120, 0.01), (300, 0.004), (60, 8 / 60), (300, 8 / 300))
          for seed in range(3)}
SEEDED.update({f"ws-{n}-{k}-{seed}": watts_strogatz(n, k, 0.1, seed)
               for n, k in ((50, 4), (200, 6), (300, 4)) for seed in range(2)})


def test_seeded_graphs_include_disconnected_draws():
    assert sum(not is_connected(g) for g in SEEDED.values()) >= 5


@pytest.mark.parametrize("g", SEEDED.values(), ids=SEEDED.keys())
def test_distance_matrix_matches_bfs_oracle(g):
    assert all_pairs_distances(g).tolist() == bfs_distances(g)


@pytest.mark.parametrize("g", SEEDED.values(), ids=SEEDED.keys())
def test_switched_functionals_match_matrix_path(g):
    n = g.n
    connected = is_connected(g)
    dist = bfs_distances(g)
    assert characteristic_length(g) == matrix_length(g, dist)
    totals = [outcome(matrix_row_total, dist, x) for x in range(n)]
    if connected:
        assert wiener_index(g) == sum(totals)
        assert distance_variance(g) == max(totals) - min(totals)
        assert mean_centrality(g) == sum(Fraction(1, t) for t in totals) / n
    else:
        for fn in (wiener_index, distance_variance, mean_centrality):
            with pytest.raises(Disconnected):
                fn(g)
    for x, total in enumerate(totals):
        if total is Disconnected:
            assert outcome(local_mean_distance, g, x) is Disconnected
            assert outcome(closeness_centrality, g, x) is Disconnected
        else:
            assert local_mean_distance(g, x) == Fraction(total, n - 1)
            assert closeness_centrality(g, x) == Fraction(1, total)
        assert second_sphere_size(g, x) == matrix_second_sphere(dist, x)
    summary = curvature_summary(g)
    curvatures = matrix_curvatures(g, dist)
    admissible = [s for s in curvatures if s is not None]
    assert summary.curvatures == curvatures
    assert summary.mean_second == sum(matrix_second_sphere(dist, x) for x in range(n)) / n
    assert summary.action == (math.fsum(admissible) / len(admissible) if admissible else None)
    assert summary.excluded == n - len(admissible)
    assert outcome(length_estimate, g) == outcome(matrix_length_estimate, g, dist)


@pytest.mark.parametrize("name", [name for name, g in SEEDED.items()
                                  if g.n <= 120 and is_connected(g)])
def test_audit_diameter_matches_matrix(name):
    g = SEEDED[name]
    rows = {r.name: r for r in bound_audit(g)}
    assert rows["length_upper_diameter"].rhs == all_pairs_distances(g).max()


def test_local_mean_distance_and_closeness_errors():
    with pytest.raises(TooSmall):
        local_mean_distance(from_edge_list(1, []), 0)
    with pytest.raises(TooSmall):
        closeness_centrality(from_edge_list(1, []), 0)
    with pytest.raises(Disconnected):
        mean_centrality(from_edge_list(1, []))


# -- relabelling invariance ------------------------------------------------------

@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(relabelled_graphs())
def test_relabelling_leaves_level_functionals_unchanged(pair):
    g, h = pair
    assert characteristic_length(g) == characteristic_length(h)
    assert outcome(wiener_index, g) == outcome(wiener_index, h)
    assert outcome(distance_variance, g) == outcome(distance_variance, h)
    assert sorted(distance_levels(g)) == sorted(distance_levels(h))
    assert curvature_summary(g).action == curvature_summary(h).action
