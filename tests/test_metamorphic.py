"""Metamorphic tests over the whole functional registry: what a relabelling,
a disjoint union or a join must leave unchanged or combine, checked without
an oracle."""

import math
from itertools import zip_longest

from hypothesis import given, settings

from netfunc import rng
from netfunc.combinatorial import arboricity, chromatic_number, independence_number
from netfunc.generators import erdos_renyi
from netfunc.graph import connected_components
from netfunc.metrics import characteristic_length, mean_cluster
from netfunc.report import FUNCTIONALS, compute_report
from netfunc.spectral import forest_complexity
from netfunc.topology import euler_characteristic, inductive_dimension, simplex_counts

from conftest import disjoint_union, join, relabelled_graphs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(relabelled_graphs())
def test_relabelling_leaves_every_functional_unchanged(pair):
    # exact kinds are equal, and so is curvature_action, a correctly rounded
    # sum; other reals are within 1e-9 relative, or 1e-12 absolute where a
    # float sum cancels to zero; arboricity's witness forests name vertices,
    # so only its value is compared
    g, h = (compute_report(x).entries for x in pair)
    assert list(g) == list(h) == list(FUNCTIONALS)
    for name, a in g.items():
        b = h[name]
        assert (a.status, a.reason) == (b.status, b.reason), name
        if a.kind == "real" and a.status == "ok" and name != "curvature_action":
            assert math.isclose(a.value, b.value, rel_tol=1e-9, abs_tol=1e-12), name
        else:
            assert a.value == b.value, name


def seeded_pairs(seed):
    """200 pairs of ER draws on 0 to 8 vertices at random densities."""
    for draw in range(200):
        gen = rng.generator(seed, draw)
        yield tuple(erdos_renyi(int(gen.integers(0, 9)), float(gen.random()),
                                rng.derive_seed(seed, draw, side)) for side in range(2))


def test_disjoint_unions_follow_the_component_rules():
    # the clique complex, the rooted spanning forests, the components and the
    # independent sets of A ⊔ B are those of A and B side by side; ι and ν
    # are vertex means and μ a component mean, so their sums add
    checked = 0
    for a, b in seeded_pairs(1618):
        g = disjoint_union(a, b)
        assert euler_characteristic(g) == euler_characteristic(a) + euler_characteristic(b)
        assert list(simplex_counts(g)) == [x + y for x, y in zip_longest(
            simplex_counts(a), simplex_counts(b), fillvalue=0)]
        assert forest_complexity(g) == forest_complexity(a) * forest_complexity(b)
        c, ca, cb = (len(connected_components(x)) for x in (g, a, b))
        assert c == ca + cb
        for mean in (inductive_dimension, mean_cluster):
            assert g.n * mean(g) == a.n * mean(a) + b.n * mean(b), mean.__name__
        assert c * characteristic_length(g) == \
            ca * characteristic_length(a) + cb * characteristic_length(b)
        assert independence_number(g) == independence_number(a) + independence_number(b)
        assert chromatic_number(g, cap=16) == max(chromatic_number(a), chromatic_number(b))
        assert arboricity(g, cap=16).value == max(arboricity(a).value, arboricity(b).value)
        checked += min(a.n, b.n) == 0
    assert checked > 0  # some pair had an empty side


def test_euler_characteristic_of_a_join():
    # the clique complex of A + B is the join of the two complexes, so
    # χ(A + B) = χA + χB − χA·χB, the empty graphs (χ = 0) included
    checked = 0
    for a, b in seeded_pairs(2718):
        chi_a, chi_b = euler_characteristic(a), euler_characteristic(b)
        assert euler_characteristic(join(a, b)) == chi_a + chi_b - chi_a * chi_b
        checked += min(a.n, b.n) == 0
    assert checked > 0  # some pair had an empty side
