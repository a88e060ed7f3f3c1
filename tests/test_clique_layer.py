"""The bitmask clique walks: inductive dimension and clique counts against the
recursive oracles, their budgets, relabelling invariance, large cliques, and
the discrete Gauss-Bonnet theorem as an independent check of the Euler
characteristic."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings

from netfunc import rng
from netfunc.errors import CliqueBudgetExceeded, RecursionBudgetExceeded
from netfunc.generators import ModelSpec, build_model, complete, erdos_renyi
from netfunc.graph import adjacency_masks, from_edge_list, sphere
from netfunc.metrics import local_profile
from netfunc.report import Caps, compute_report
from netfunc.topology import (DIMENSION_BUDGET, _DimensionMemo, euler_characteristic,
                              inductive_dimension, simplex_counts, vertex_dimension,
                              vertex_dimensions)

from conftest import (PairDimensionMemo, brute_inductive_dimension, brute_simplex_counts,
                      iter_graphs, pair_inductive_dimension, pair_vertex_dimensions,
                      relabelled_graphs)


def alternating_sum(counts):
    return sum((-1) ** k * c for k, c in enumerate(counts))


def test_adjacency_masks():
    g = from_edge_list(4, [(0, 1), (0, 3), (2, 3)])
    assert adjacency_masks(g) == (0b1010, 0b0001, 0b1000, 0b0101)
    assert adjacency_masks(g) is adjacency_masks(g)


@pytest.mark.parametrize("n", range(7))
def test_dimension_and_euler_match_oracles_exhaustive(n):
    for g in iter_graphs(n):
        assert inductive_dimension(g) == brute_inductive_dimension(g) == \
            pair_inductive_dimension(g)
        assert vertex_dimensions(g) == pair_vertex_dimensions(g)
        assert euler_characteristic(g) == alternating_sum(brute_simplex_counts(g))


def test_dimension_and_euler_match_on_dense_sweep_draws():
    # the graphs of an er sweep at p = 0.5 over n = 40, 60, 80 with 4 seeds each
    nx = pytest.importorskip("networkx")
    for n in (40, 60, 80):
        for s in range(4):
            g = build_model(ModelSpec("erdos_renyi", {"p": 0.5, "n": n},
                                      seed=rng.derive_seed(7, n, s)))
            assert inductive_dimension(g) == brute_inductive_dimension(g)
            h = nx.Graph(list(g.edges()))
            h.add_nodes_from(range(g.n))
            chi = sum((-1) ** (len(c) - 1) for c in nx.enumerate_all_cliques(h))
            assert euler_characteristic(g) == chi


def test_vertex_dimensions_share_one_memo():
    for seed in range(6):
        g = erdos_renyi(25, 0.4, seed)
        shared = vertex_dimensions(g)
        assert shared == tuple(vertex_dimension(g, x) for x in range(g.n))
        assert tuple(r.dimension for r in local_profile(g)) == shared


# -- the scaled-integer memo against the reduced-pair oracle ----------------------

def assert_memo_matches_pairs(g, memo):
    """Every entry of `memo`, the root of each call included, equals the
    reduced-pair oracle's dimension of the same subset; taken in the order
    they were stored (children first), each oracle call is one subset."""
    oracle = PairDimensionMemo(g)
    for subset, value in memo.values.items():
        assert Fraction(value) / memo.scale == oracle.dimension(subset)


def hub_graph():
    """A hub joined to an edge {1, 2} and to 65 vertices of degree one: Δ = 67
    passes the scale cap, and the hub's sphere, of prime size 67, has
    dimension 1 - 65/67 = 2/67."""
    return from_edge_list(68, [(1, 2)] + [(0, v) for v in range(1, 68)])


@pytest.mark.parametrize("n,p", [(n, p) for n in (30, 40, 60) for p in (0.3, 0.5, 0.8)])
def test_dimension_matches_pair_memo_on_er_draws(n, p):
    g = erdos_renyi(n, p, rng.derive_seed(1414, n, int(p * 10)))
    full = (1 << n) - 1
    if (n, p) == (60, 0.8):
        # past the default budget: the entries stored before the raise still match
        memo = _DimensionMemo(g, 20_000)
        with pytest.raises(RecursionBudgetExceeded):
            memo.dimension(full)
        assert_memo_matches_pairs(g, memo)
        return
    memo = _DimensionMemo(g, DIMENSION_BUDGET)
    memo.dimension(full)
    assert_memo_matches_pairs(g, memo)
    if p < 0.8:
        assert vertex_dimensions(g) == pair_vertex_dimensions(g)


@pytest.mark.parametrize("n", range(1, 71))
def test_dimension_matches_pair_memo_on_complete_graphs(n):
    # K_n has 2^n - 1 nonempty subsets, so past n = 12 the budget stops the
    # walk; the subsets of the last vertices it stored cover the scale cap
    # (n >= 66 has Δ > 64)
    g = complete(n)
    memo = _DimensionMemo(g, 4096)
    if n <= 12:
        assert memo.dimension((1 << n) - 1) == n - 1 == pair_inductive_dimension(g)
    else:
        with pytest.raises(RecursionBudgetExceeded):
            memo.dimension((1 << n) - 1)
    assert memo.scale == factorial(min(n - 1, 64))
    assert all(value == memo.scale * (subset.bit_count() - 1)
               for subset, value in memo.values.items())
    assert_memo_matches_pairs(g, memo)


def test_non_integral_sphere_past_the_scale_cap():
    g = hub_graph()
    memo = _DimensionMemo(g, DIMENSION_BUDGET)
    hub_sphere = adjacency_masks(g)[0]
    assert memo.dimension(hub_sphere) == Fraction(2, 67)
    assert isinstance(memo.values[hub_sphere], Fraction)
    assert inductive_dimension(g) == pair_inductive_dimension(g) == \
        1 + (Fraction(2, 67) + 2) / 68
    assert vertex_dimensions(g) == pair_vertex_dimensions(g)
    assert_memo_matches_pairs(g, memo)


@pytest.mark.parametrize("g,budget", [(complete(200), 5000), (hub_graph(), DIMENSION_BUDGET)],
                         ids=["K200", "hub68"])
def test_memo_ints_stay_within_the_capped_scale(g, budget):
    # |dim| < n, so scale·dim needs at most log2(64!) + log2(n) bits
    memo = _DimensionMemo(g, budget)
    try:
        memo.dimension((1 << g.n) - 1)
    except RecursionBudgetExceeded:
        pass
    bound = factorial(64).bit_length() + g.n.bit_length()
    ints = [v for v in memo.values.values() if isinstance(v, int)]
    assert ints
    assert all(v.bit_length() <= bound for v in ints)


# -- budgets --------------------------------------------------------------------

def dimension_subproblems(g):
    """Distinct nonempty vertex subsets the dimension recursion evaluates."""
    seen = set()
    todo = [frozenset(range(g.n))]
    while todo:
        subset = todo.pop()
        if subset and subset not in seen:
            seen.add(subset)
            todo.extend(g.adj_sets[v] & subset for v in subset)
    return len(seen)


@pytest.mark.parametrize("g", [complete(6), erdos_renyi(14, 0.5, 3), erdos_renyi(20, 0.3, 4),
                               from_edge_list(3, [])],
                         ids=["K6", "er14", "er20", "empty3"])
def test_budgets_count_distinct_subsets_and_cliques(g):
    spent = dimension_subproblems(g)
    assert inductive_dimension(g, budget=spent) == brute_inductive_dimension(g)
    with pytest.raises(RecursionBudgetExceeded, match=f"more than {spent - 1} dimension"):
        inductive_dimension(g, budget=spent - 1)
    cliques = sum(simplex_counts(g).counts)
    assert list(simplex_counts(g, budget=cliques)) == brute_simplex_counts(g)
    with pytest.raises(CliqueBudgetExceeded, match=f"more than {cliques - 1} cliques"):
        simplex_counts(g, budget=cliques - 1)


def test_large_clique_is_skipped_with_budget_reasons():
    caps = Caps(clique_budget=10**5, dimension_budget=10**4)
    report = compute_report(complete(1100), ["dimension", "euler_char"], caps=caps)
    dim, chi = report.entries["dimension"], report.entries["euler_char"]
    assert dim.status == "skipped" and "more than 10000 dimension subproblems" in dim.reason
    assert chi.status == "skipped" and "more than 100000 cliques" in chi.reason


def test_shared_memo_charges_the_budget_per_vertex():
    # the sphere of every vertex of K_30 is K_29, whose 2^29 subsets exceed
    # the default budget; sharing the memo must not lift that limit
    with pytest.raises(RecursionBudgetExceeded, match="more than 1000000 dimension"):
        local_profile(complete(30))


# -- relabelling ------------------------------------------------------------------

@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(relabelled_graphs())
def test_relabelling_leaves_dimension_and_euler_unchanged(pair):
    g, h = pair
    assert inductive_dimension(g) == inductive_dimension(h)
    assert euler_characteristic(g) == euler_characteristic(h)
    assert sorted(vertex_dimensions(g)) == sorted(vertex_dimensions(h))


# -- discrete Gauss-Bonnet (Knill, arXiv:1009.2292) ---------------------------------

def gauss_bonnet_sum(g):
    """Sum over x of K(x) = 1 + sum_k (-1)^(k+1) V_k(S(x)) / (k+2)."""
    total = Fraction(0)
    for x in range(g.n):
        counts = simplex_counts(sphere(g, x).graph).counts
        total += 1 + sum(Fraction((-1) ** (k + 1) * v, k + 2) for k, v in enumerate(counts))
    return total


def test_gauss_bonnet_on_every_small_graph():
    for n in range(6):
        for g in iter_graphs(n):
            assert gauss_bonnet_sum(g) == euler_characteristic(g)


def test_gauss_bonnet_on_seeded_er_draws():
    for seed in range(100):
        g = erdos_renyi(12, 0.45, rng.derive_seed(1009, seed))
        assert gauss_bonnet_sum(g) == euler_characteristic(g)
