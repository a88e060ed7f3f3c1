"""Metamorphic tests over the whole functional registry: what a relabelling
or a join must leave unchanged or combine, checked without an oracle."""

import math

from hypothesis import given, settings

from netfunc import rng
from netfunc.generators import erdos_renyi
from netfunc.report import FUNCTIONALS, compute_report
from netfunc.topology import euler_characteristic

from conftest import join, relabelled_graphs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(relabelled_graphs())
def test_relabelling_leaves_every_functional_unchanged(pair):
    # exact kinds are equal and reals within 1e-9 relative, or 1e-12 absolute
    # where the sum is a cancellation to zero (curvature_action of a graph whose
    # curvatures cancel read 0.0 and 3.2e-17); arboricity's witness forests
    # name vertices, so only its value is compared
    g, h = (compute_report(x).entries for x in pair)
    assert list(g) == list(h) == list(FUNCTIONALS)
    for name, a in g.items():
        b = h[name]
        assert (a.status, a.reason) == (b.status, b.reason), name
        if a.kind == "real" and a.status == "ok":
            assert math.isclose(a.value, b.value, rel_tol=1e-9, abs_tol=1e-12), name
        else:
            assert a.value == b.value, name


def test_euler_characteristic_of_a_join():
    # the clique complex of A + B is the join of the two complexes, so
    # χ(A + B) = χA + χB − χA·χB, the empty graphs (χ = 0) included
    checked = 0
    for seed in range(200):
        gen = rng.generator(2718, seed)
        a, b = (erdos_renyi(int(gen.integers(0, 9)), float(gen.random()),
                            rng.derive_seed(2718, seed, side)) for side in range(2))
        chi_a, chi_b = euler_characteristic(a), euler_characteristic(b)
        assert euler_characteristic(join(a, b)) == chi_a + chi_b - chi_a * chi_b
        checked += min(a.n, b.n) == 0
    assert checked > 0  # some pair had an empty side
