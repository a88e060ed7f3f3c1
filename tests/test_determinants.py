"""The exact determinant kernel behind tree_count and forest_complexity,
differential against the Bareiss oracle and, where Bareiss is too slow, against
slogdet and residues modulo primes the kernel never uses."""

import itertools
import math

import numpy as np
import pytest

from netfunc import spectral
from netfunc.generators import erdos_renyi, watts_strogatz
from netfunc.graph import from_edge_list, is_connected
from netfunc.spectral import forest_complexity, laplacian_matrix, spanning_tree_count

from conftest import bareiss_determinant, iter_connected_graphs, iter_graphs

# above the kernel's primes, which all lie below 2^30
CHECK_PRIMES = (2_147_483_647, 2_147_483_629)


def forest_matrix(g):
    return laplacian_matrix(g) + np.eye(g.n, dtype=np.int64)


def tree_matrix(g):
    return laplacian_matrix(g)[1:, 1:]


def det_mod(matrix, p):
    """Determinant modulo a prime p < 2^31 by Gaussian elimination with pivoting."""
    a = np.array(matrix, dtype=np.int64) % p
    det = 1
    for k in range(len(a)):
        rows = np.flatnonzero(a[k:, k])
        if rows.size == 0:
            return 0
        pivot = k + int(rows[0])
        if pivot != k:
            a[[k, pivot]] = a[[pivot, k]]
            det = -det
        det = det * int(a[k, k]) % p
        factors = a[k + 1:, k] * pow(int(a[k, k]), -1, p) % p
        a[k + 1:, k:] = (a[k + 1:, k:] - factors[:, None] * a[k, k:]) % p
    return det % p


def connected_draw(build, seed):
    """The first connected draw of build(seed), build(seed + 1), ..."""
    while not is_connected(g := build(seed)):
        seed += 1
    return g


@pytest.mark.parametrize("n", range(6))
def test_forest_complexity_matches_bareiss_exhaustive(n):
    for g in iter_graphs(n):
        assert forest_complexity(g) == bareiss_determinant(forest_matrix(g))


@pytest.mark.parametrize("n", range(1, 7))
def test_tree_count_matches_bareiss_exhaustive(n):
    for g in iter_connected_graphs(n):
        assert spanning_tree_count(g) == bareiss_determinant(tree_matrix(g))


DRAWS = {
    "er30": lambda s: erdos_renyi(30, 0.2, s),
    "er80": lambda s: erdos_renyi(80, 0.08, s),
    "er150": lambda s: erdos_renyi(150, 0.05, s),
    "ws40": lambda s: watts_strogatz(40, 4, 0.2, s),
    "ws150": lambda s: watts_strogatz(150, 6, 0.1, s),
}


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_seeded_draws_match_bareiss(name):
    g = connected_draw(DRAWS[name], 17)
    assert forest_complexity(g) == bareiss_determinant(forest_matrix(g))
    assert spanning_tree_count(g) == bareiss_determinant(tree_matrix(g))


@pytest.mark.parametrize("build", [lambda s: erdos_renyi(300, 0.05, s),
                                   lambda s: watts_strogatz(300, 6, 0.2, s)],
                         ids=["er300", "ws300"])
def test_large_draws_match_slogdet_and_residues(build):
    g = connected_draw(build, 5)
    for value, matrix in ((forest_complexity(g), forest_matrix(g)),
                          (spanning_tree_count(g), tree_matrix(g))):
        sign, logdet = np.linalg.slogdet(matrix.astype(float))
        assert sign == 1
        assert math.log(value) == pytest.approx(logdet, rel=1e-9)
        for p in CHECK_PRIMES:
            assert value % p == det_mod(matrix, p)


def test_kernel_moves_past_a_prime_that_divides_a_minor():
    p, q = itertools.islice(spectral._primes(), 2)
    # p is the first prime the inverse tries, q the first cofactor prime
    assert spectral._spd_determinant(np.diag([p, 1, 1])) == p
    assert spectral._spd_determinant(np.diag([1, p, 3])) == 3 * p
    assert spectral._spd_determinant(np.diag([q, q])) == q * q


def test_empty_determinants_are_one():
    assert forest_complexity(from_edge_list(0, [])) == 1
    assert spanning_tree_count(from_edge_list(1, [])) == 1
