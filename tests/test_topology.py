"""Euler characteristic, dimension recursion, curvature, length estimate."""

import math
from fractions import Fraction

import pytest

from netfunc.errors import EstimatorUndefined, RecursionBudgetExceeded
from netfunc.generators import complete, cycle, erdos_renyi, path, star, wheel
from netfunc.graph import from_edge_list
from netfunc.report import encode_value
from netfunc.rng import derive_seed, generator
from netfunc.topology import (Polynomial, curvature_summary, euler_characteristic,
                              expected_dimension_polynomial, inductive_dimension,
                              length_estimate, vertex_dimension)

from conftest import graph_from_mask, iter_labeled_trees


def test_euler_characteristic_examples(octahedron):
    assert euler_characteristic(cycle(6)) == 0
    assert euler_characteristic(complete(4)) == 1
    assert euler_characteristic(octahedron) == 2


def test_euler_characteristic_trees_and_cycles():
    # every labeled tree on up to 8 vertices is contractible
    for n in range(1, 9):
        for tree in iter_labeled_trees(n):
            assert euler_characteristic(tree) == 1
    for n in range(4, 13):
        assert euler_characteristic(cycle(n)) == 0


def test_euler_characteristic_relabeling_invariant():
    g = graph_from_mask(6, 0b110101101010111)
    chi = euler_characteristic(g)
    gen = generator(17)
    for _ in range(5):
        perm = list(gen.permutation(6))
        relabeled = from_edge_list(6, [(perm[u], perm[v]) for u, v in g.edges()])
        assert euler_characteristic(relabeled) == chi


def test_inductive_dimension_families():
    for n in range(1, 6):
        assert inductive_dimension(complete(n + 1)) == n
    for n in range(4, 9):
        assert inductive_dimension(cycle(n)) == 1
    assert inductive_dimension(star(5)) == 1
    for n in range(5, 9):
        assert inductive_dimension(wheel(n)) == 2
    assert inductive_dimension(from_edge_list(0, [])) == -1
    assert inductive_dimension(from_edge_list(3, [])) == 0
    assert vertex_dimension(wheel(6), 6) == 2  # hub has a one-dimensional sphere


def test_inductive_dimension_range_exhaustive():
    # 0 <= dim <= n-1 with the top value exactly for complete graphs
    from conftest import iter_graphs
    for n in (1, 2, 3, 4, 5):
        for g in iter_graphs(n):
            d = inductive_dimension(g)
            assert 0 <= d <= n - 1
            assert (d == n - 1) == (g.m == n * (n - 1) // 2)


def test_dimension_budget():
    with pytest.raises(RecursionBudgetExceeded):
        inductive_dimension(complete(8), budget=3)


def test_expected_dimension_polynomials():
    assert expected_dimension_polynomial(0).coefficients == (Fraction(-1),)
    assert expected_dimension_polynomial(1).coefficients == (Fraction(0),)
    assert expected_dimension_polynomial(2).coefficients == (Fraction(0), Fraction(1))
    d3 = expected_dimension_polynomial(3)
    assert d3.coefficients == (Fraction(0), Fraction(2), Fraction(-1), Fraction(1))
    for n in range(1, 9):
        dn = expected_dimension_polynomial(n)
        assert dn(Fraction(1)) == n - 1   # complete-graph limit
        assert dn(Fraction(0)) == 0       # empty-graph limit
    # degree grows as C(n,2)
    assert expected_dimension_polynomial(5).degree() == 10


def test_polynomial_at_a_float_is_the_exact_value_rounded_once():
    """Horner's rule in floats drifts by 1.8e-9 here at p = 0.9."""
    d30 = expected_dimension_polynomial(30)
    for p in (0.5, 0.9):
        assert d30(p) == float(d30(Fraction(p)))
    assert d30(1) == 29 and isinstance(d30(Fraction(1, 2)), Fraction)


def test_expected_dimension_matches_monte_carlo():
    d5 = expected_dimension_polynomial(5)
    for p in (0.3, 0.6):
        values = [float(inductive_dimension(erdos_renyi(5, p, derive_seed(11, int(p * 10), s))))
                  for s in range(600)]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        se = math.sqrt(var / len(values))
        assert abs(mean - d5(p)) <= 3 * se + 1e-12


def test_polynomial_arithmetic():
    p = Polynomial.of(1, 2)      # 1 + 2x
    q = Polynomial.of(0, 0, 3)   # 3x^2
    assert (p + q).coefficients == (Fraction(1), Fraction(2), Fraction(3))
    assert (p * q).coefficients == (Fraction(0), Fraction(0), Fraction(3), Fraction(6))
    assert (2 * p).coefficients == (Fraction(2), Fraction(4))
    assert p(Fraction(1, 2)) == 2
    assert Polynomial.of(0, 1, 0).coefficients == (Fraction(0), Fraction(1))
    assert [encode_value(c, "rational")
            for c in expected_dimension_polynomial(2).coefficients] == \
        [{"num": "0", "den": "1"}, {"num": "1", "den": "1"}]


def test_curvature_summary():
    summary = curvature_summary(complete(5))
    assert summary.action is None and summary.excluded == 5
    assert summary.mean_degree == 4 and summary.edge_density == 1

    summary = curvature_summary(cycle(7))
    assert summary.action == pytest.approx(0.0)
    assert all(s == pytest.approx(0.0) for s in summary.curvatures)

    assert curvature_summary(path(4)).edge_density == Fraction(1, 2)
    assert curvature_summary(cycle(9)).edge_density == Fraction(2 * 9, 9 * 8)


def test_curvature_flat_cycles():
    for n in range(5, 12):
        for s in curvature_summary(cycle(n)).curvatures:
            assert s == pytest.approx(0.0)


def test_length_estimate_errors():
    with pytest.raises(EstimatorUndefined) as info:
        length_estimate(cycle(9))
    assert info.value.reason == "equal_spheres"
    with pytest.raises(EstimatorUndefined) as info:
        length_estimate(complete(5))
    assert info.value.reason == "zero_second_sphere"
    with pytest.raises(EstimatorUndefined):
        length_estimate(from_edge_list(4, []))


def test_length_estimate_tracks_er_length():
    from netfunc.metrics import characteristic_length
    rel_errors = []
    for seed in range(4):
        g = erdos_renyi(200, 0.06, derive_seed(23, seed))
        mu = float(characteristic_length(g))
        rel_errors.append(abs(length_estimate(g) - mu) / mu)
    assert sum(rel_errors) / len(rel_errors) < 0.25
