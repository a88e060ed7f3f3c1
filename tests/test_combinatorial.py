"""Exact NP-hard invariants: independence, chromatic number, arboricity, scale."""

from fractions import Fraction
from math import ceil

import pytest

from netfunc.errors import NoEdges, SizeCapExceeded
from netfunc.combinatorial import (_certify_partition, arboricity, chromatic_number,
                                   independence_number, scale_measure)
from netfunc.generators import (complete, complete_bipartite, cycle, erdos_renyi,
                                path, star)
from netfunc.graph import from_edge_list, induced_subgraph

from conftest import (brute_chromatic_number, brute_independence_number, iter_graphs)


def test_independence_examples():
    assert independence_number(complete(6)) == 1
    assert independence_number(cycle(5)) == 2
    assert independence_number(star(6)) == 6
    assert independence_number(from_edge_list(4, [])) == 4


def test_chromatic_examples():
    assert chromatic_number(cycle(5)) == 3
    assert chromatic_number(complete(4)) == 4
    assert chromatic_number(path(6)) == 2
    assert chromatic_number(from_edge_list(3, [])) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_independence_and_chromatic_match_brute_force(n):
    for g in iter_graphs(n):
        assert independence_number(g) == brute_independence_number(g)
        assert chromatic_number(g) == brute_chromatic_number(g)


def test_caps_raise():
    with pytest.raises(SizeCapExceeded):
        independence_number(complete(8), cap=5)
    with pytest.raises(SizeCapExceeded):
        chromatic_number(complete(8), cap=5)
    with pytest.raises(SizeCapExceeded):
        arboricity(complete(13))


def _check_witness(g, result):
    assigned = set()
    for forest in result.forests:
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in forest:
            assert g.has_edge(u, v)
            ru, rv = find(u), find(v)
            assert ru != rv, "witness forest contains a cycle"
            parent[ru] = rv
            assigned.add((u, v))
    assert assigned == set(g.edges())


def test_arboricity_examples():
    result = arboricity(complete_bipartite(4, 4))
    assert result.value == 3
    _check_witness(complete_bipartite(4, 4), result)
    for n in range(2, 9):
        result = arboricity(complete(n))
        assert result.value == ceil(n / 2)
        _check_witness(complete(n), result)
    assert arboricity(path(8)).value == 1
    assert arboricity(star(6)).value == 1
    assert arboricity(from_edge_list(4, [])).value == 0


def test_witness_check_refuses_cycles_repeats_and_gaps():
    edges = list(complete(4).edges())
    _certify_partition(4, edges, (((0, 1), (1, 2), (2, 3)), ((0, 2), (0, 3), (1, 3))))
    with pytest.raises(AssertionError, match="cycle"):  # the triangle 1 2 3
        _certify_partition(4, edges, (((0, 1), (0, 2)), ((1, 2), (1, 3), (2, 3)), ((0, 3),)))
    with pytest.raises(AssertionError, match="cycle"):  # an edge twice in one forest
        _certify_partition(3, [(0, 1)], (((0, 1), (0, 1)),))
    with pytest.raises(AssertionError, match="cover"):  # an edge in two forests
        _certify_partition(3, [(0, 1), (1, 2)], (((0, 1), (1, 2)), ((0, 1),)))
    with pytest.raises(AssertionError, match="cover"):  # an edge in none
        _certify_partition(4, edges, (((0, 1), (1, 2), (2, 3)), ((0, 2), (0, 3))))


def test_arboricity_density_lower_bound():
    # the returned value dominates ceil(m_H / (n_H - 1)) on induced subgraphs
    from netfunc.rng import generator
    gen = generator(77)
    for seed in range(10):
        g = erdos_renyi(9, 0.55, seed)
        a = arboricity(g).value
        for _ in range(12):
            size = int(gen.integers(2, 9))
            subset = sorted(gen.permutation(9)[:size].tolist())
            sub = induced_subgraph(g, subset).graph
            assert a >= ceil(sub.m / (sub.n - 1))


def test_arboricity_matches_brute_force_small():
    # exhaustive assignment check on every graph with <= 4 vertices
    from itertools import product
    for g in iter_graphs(4):
        edges = list(g.edges())
        if not edges:
            continue
        expect = None
        for k in range(1, len(edges) + 1):
            found = False
            for assign in product(range(k), repeat=len(edges)):
                ok = True
                for f in range(k):
                    parent = list(range(g.n))

                    def find(x):
                        while parent[x] != x:
                            parent[x] = parent[parent[x]]
                            x = parent[x]
                        return x

                    for i, (u, v) in enumerate(edges):
                        if assign[i] != f:
                            continue
                        ru, rv = find(u), find(v)
                        if ru == rv:
                            ok = False
                            break
                        parent[ru] = rv
                    if not ok:
                        break
                if ok:
                    found = True
                    break
            if found:
                expect = k
                break
        assert arboricity(g).value == expect


def test_exact_searches_match_brute_force_random():
    # seeded stress beyond the exhaustive small orders
    for seed in range(30):
        g = erdos_renyi(7, 0.45, seed)
        assert independence_number(g) == brute_independence_number(g)
        assert chromatic_number(g) == brute_chromatic_number(g)
    for seed in range(15):
        g = erdos_renyi(6, 0.7, 100 + seed)
        result = arboricity(g)
        if g.m:
            _check_witness(g, result)
        # brute force: smallest k admitting any acyclic assignment
        from itertools import product
        edges = list(g.edges())
        expect = 0
        if edges:
            for k in range(1, len(edges) + 1):
                done = False
                for assign in product(range(k), repeat=len(edges)):
                    ok = True
                    for f in range(k):
                        parent = list(range(g.n))

                        def find(x):
                            while parent[x] != x:
                                parent[x] = parent[parent[x]]
                                x = parent[x]
                            return x

                        for i, (u, v) in enumerate(edges):
                            if assign[i] != f:
                                continue
                            ru, rv = find(u), find(v)
                            if ru == rv:
                                ok = False
                                break
                            parent[ru] = rv
                        if not ok:
                            break
                    if ok:
                        done = True
                        break
                if done:
                    expect = k
                    break
        assert result.value == expect


def test_chromatic_arboricity_bound():
    for seed in range(20):
        g = erdos_renyi(10, 0.5, seed)
        if g.m == 0:
            continue
        assert chromatic_number(g) <= 2 * arboricity(g).value


def test_scale_measure():
    assert scale_measure(complete(3)) == 3
    assert scale_measure(star(3)) == 3
    assert scale_measure(complete(2)) == 1
    assert scale_measure(path(4)) == Fraction(1 * 2 + 2 * 2 + 2 * 1, 4)
    with pytest.raises(NoEdges):
        scale_measure(from_edge_list(3, []))
