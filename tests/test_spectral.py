"""Laplacian spectrum, complexity, tree and forest counts."""

import math
from unittest import mock

import numpy as np
import pytest

from netfunc.errors import Disconnected
from netfunc.generators import (ModelSpec, build_model, complete, cycle, erdos_renyi, path,
                                watts_strogatz)
from netfunc.graph import from_edge_list, is_connected
from netfunc.metrics import characteristic_length
from netfunc.report import compute_report
from netfunc.spectral import (forest_complexity, laplacian_matrix, laplacian_spectrum,
                              pseudoinverse_trace_bound, spanning_tree_count,
                              spectral_complexity)

from conftest import (bareiss_determinant, brute_rooted_forest_count,
                      iter_connected_graphs, iter_graphs, iter_labeled_trees,
                      iter_small_graphs, laplacian_by_loop)


@pytest.mark.parametrize("n", range(7))
def test_laplacian_matrix_matches_loop_exhaustive(n):
    for g in iter_small_graphs(n):  # one per isomorphism class at n = 6
        lap = laplacian_matrix(g)
        assert lap.dtype == np.int64
        assert np.array_equal(lap, laplacian_by_loop(g))


@pytest.mark.parametrize("seed", range(4))
def test_laplacian_matrix_matches_loop_on_draws(seed):
    for g in (erdos_renyi(150, 0.03, seed), erdos_renyi(60, 0.5, seed),
              watts_strogatz(300, 6, 0.1, seed), from_edge_list(40, [(0, 39)])):
        assert np.array_equal(laplacian_matrix(g), laplacian_by_loop(g))


def test_spectrum_examples():
    spec = laplacian_spectrum(complete(3))
    assert spec.eigenvalues == pytest.approx((0, 3, 3), abs=1e-9)
    assert spec.component_count == 1
    assert laplacian_spectrum(complete(2)).eigenvalues == pytest.approx((0, 2))
    two = laplacian_spectrum(from_edge_list(4, [(0, 1), (2, 3)]))
    assert two.eigenvalues == pytest.approx((0, 0, 2, 2), abs=1e-9)
    assert two.component_count == 2


def test_spectrum_invariants():
    for g in [complete(6), cycle(9), path(7), from_edge_list(5, [(0, 1), (2, 3)])]:
        spec = laplacian_spectrum(g)
        assert sorted(spec.eigenvalues) == list(spec.eigenvalues)
        assert all(v >= -1e-9 for v in spec.eigenvalues)
        assert sum(spec.eigenvalues) == pytest.approx(2 * g.m, abs=1e-8)
        assert all(abs(v) < 1e-9 for v in spec.eigenvalues[:spec.component_count])


def test_report_computes_one_spectrum():
    spec = ModelSpec("erdos_renyi", {"n": 40, "p": 0.15}, seed=2)
    assert is_connected(build_model(spec))
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        rep = compute_report(build_model(spec))
    assert eigvalsh.call_count == 1
    # each value as computed on a graph of its own, with nothing cached
    fresh = {"complexity": spectral_complexity(build_model(spec)).value,
             "log_complexity": spectral_complexity(build_model(spec)).log_value,
             "trace_bound": pseudoinverse_trace_bound(build_model(spec))}
    assert {name: rep.entries[name].value for name in fresh} == fresh


def test_spectral_complexity_examples():
    assert spectral_complexity(complete(3)).value == pytest.approx(9, rel=1e-9)
    assert spectral_complexity(path(3)).value == pytest.approx(3, rel=1e-9)
    assert spectral_complexity(complete(4)).value == pytest.approx(64, rel=1e-9)
    assert spectral_complexity(from_edge_list(3, [])).value == pytest.approx(1.0)


def test_bareiss_determinant():
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant([[7]]) == 7
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[2, 0, 0], [0, 0, 3], [0, 5, 0]]) == -30
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0


def test_forest_complexity_examples():
    assert forest_complexity(from_edge_list(1, [])) == 1
    assert forest_complexity(complete(2)) == 3
    assert forest_complexity(complete(3)) == 16
    assert forest_complexity(complete(2)) == brute_rooted_forest_count(complete(2))
    assert forest_complexity(complete(3)) == brute_rooted_forest_count(complete(3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_forest_complexity_matches_brute_force(n):
    for g in iter_graphs(n):
        assert forest_complexity(g) == brute_rooted_forest_count(g)


def test_spanning_tree_count_examples():
    assert spanning_tree_count(complete(3)) == 3
    assert spanning_tree_count(complete(4)) == 16  # Cayley 4^2
    assert spanning_tree_count(cycle(5)) == 5
    for n in range(2, 8):
        assert spanning_tree_count(complete(n)) == n ** (n - 2)
    with pytest.raises(Disconnected):
        spanning_tree_count(from_edge_list(4, [(0, 1), (2, 3)]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_kirchhoff_cross_check_exhaustive(n):
    # complexity / n equals the exact spanning-tree count on every connected graph
    # (at n = 6, on one per isomorphism class)
    for g in iter_small_graphs(n, connected=True):
        trees = spanning_tree_count(g)
        logxi = spectral_complexity(g).log_value
        assert math.exp(logxi) / n == pytest.approx(trees, rel=1e-6)


def test_trace_bound_examples():
    assert pseudoinverse_trace_bound(complete(2)) == pytest.approx(1.0, abs=1e-9)
    assert pseudoinverse_trace_bound(path(3)) == pytest.approx(4 / 3, abs=1e-9)
    assert pseudoinverse_trace_bound(complete(4)) == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(Disconnected):
        pseudoinverse_trace_bound(from_edge_list(4, [(0, 1), (2, 3)]))


def test_trace_bound_tree_equality_small():
    for n in (2, 3, 4, 5):
        for tree in iter_labeled_trees(n):
            mu = float(characteristic_length(tree))
            assert abs(pseudoinverse_trace_bound(tree) - mu) <= 1e-9


@pytest.mark.parametrize("n", [4, 5])
def test_trace_bound_strict_for_non_trees(n):
    for g in iter_connected_graphs(n):
        if g.m == n - 1:
            continue
        assert pseudoinverse_trace_bound(g) < float(characteristic_length(g)) - 1e-9
