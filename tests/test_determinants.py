"""The exact determinant kernel behind tree_count and forest_complexity,
differential against the Bareiss oracle and, where Bareiss is too slow, against
slogdet and residues modulo primes the kernel never uses; its panel
eliminations mod p against the rank-one eliminations they replaced."""

import itertools
import math

import numpy as np
import pytest

from netfunc import spectral
from netfunc.generators import erdos_renyi, watts_strogatz
from netfunc.graph import from_edge_list, is_connected
from netfunc.spectral import forest_complexity, laplacian_matrix, spanning_tree_count

from conftest import (bareiss_determinant, iter_graphs, iter_small_graphs, rank_one_det_mod,
                      rank_one_inverse_mod)

# above the kernel's primes, which all lie below 2^23
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
    for g in iter_small_graphs(n, connected=True):  # one per class at n = 6
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
                                   lambda s: watts_strogatz(300, 6, 0.2, s),
                                   lambda s: watts_strogatz(800, 6, 0.1, s)],
                         ids=["er300", "ws300", "ws800"])
def test_large_draws_match_slogdet_and_residues(build):
    g = connected_draw(build, 5)
    for value, matrix in ((forest_complexity(g), forest_matrix(g)),
                          (spanning_tree_count(g), tree_matrix(g))):
        sign, logdet = np.linalg.slogdet(matrix.astype(float))
        assert sign == 1
        assert math.log(value) == pytest.approx(logdet, rel=1e-9)
        for p in CHECK_PRIMES:
            assert value % p == det_mod(matrix, p)


PANEL = spectral._PANEL
KERNEL_SIZES = (1, 2, PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 3, 300)


def panel_test_matrices(n):
    """A forest matrix of a seeded draw and a dense integer matrix with
    entries of both signs, both n x n."""
    spd = forest_matrix(erdos_renyi(n, min(1.0, 8 / n), n))
    dense = np.random.default_rng(n).integers(-60, 61, size=(n, n))
    return spd, dense


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_panel_kernels_match_rank_one_oracles(n):
    primes = list(itertools.islice(spectral._primes(), 3))
    for a in panel_test_matrices(n):
        for p in primes:
            det, inverse = spectral._inverse_mod(a, p)
            want_det, want_inverse = rank_one_inverse_mod(a, p)
            assert det == want_det != 0
            assert inverse.dtype == np.int64
            assert np.array_equal(inverse, want_inverse)
            assert spectral._det_mod(a, p) == rank_one_det_mod(a, p) == det


def with_vanishing_minor(a, j, p):
    """a with a[j, j] raised so that p divides its leading (j + 1)-minor: that
    minor is affine in a[j, j] with slope the j-minor.  Raising the diagonal
    keeps a symmetric positive definite."""
    minor = rank_one_det_mod(a[:j + 1, :j + 1], p)
    slope = rank_one_det_mod(a[:j, :j], p) if j else 1
    b = a.copy()
    b[j, j] += -minor * pow(slope, -1, p) % p
    return b


@pytest.mark.parametrize("j", [0, 1, PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 2])
def test_panel_kernels_stop_where_p_divides_a_leading_minor(j):
    p = next(spectral._primes())
    a = with_vanishing_minor(panel_test_matrices(2 * PANEL + 3)[0], j, p)
    assert rank_one_det_mod(a[:j + 1, :j + 1], p) == 0
    assert spectral._inverse_mod(a, p) == rank_one_inverse_mod(a, p) == (0, None)
    assert spectral._det_mod(a, p) == rank_one_det_mod(a, p) == 0
    # the determinant moves on to the next prime and stays exact
    value = spectral._spd_determinant(a)
    sign, logdet = np.linalg.slogdet(a.astype(float))
    assert sign == 1 and math.log(value) == pytest.approx(logdet, rel=1e-9)
    assert [value % q for q in CHECK_PRIMES] == [det_mod(a, q) for q in CHECK_PRIMES]


def test_kernels_refuse_primes_whose_sums_are_not_exact():
    a = np.eye(3, dtype=np.int64)
    too_big = spectral._prime_below(2 ** 24)
    with pytest.raises(OverflowError):
        spectral._inverse_mod(a, too_big)
    with pytest.raises(OverflowError):
        spectral._det_mod(a, too_big)
    with pytest.raises(OverflowError):
        spectral._gauss_jordan_mod(a, spectral._prime_below(2 ** 31))


def test_kernel_moves_past_a_prime_that_divides_a_minor():
    p, q = itertools.islice(spectral._primes(), 2)
    # p is the first prime the inverse tries, q the first cofactor prime
    assert spectral._spd_determinant(np.diag([p, 1, 1])) == p
    assert spectral._spd_determinant(np.diag([1, p, 3])) == 3 * p
    assert spectral._spd_determinant(np.diag([q, q])) == q * q


def test_empty_determinants_are_one():
    assert forest_complexity(from_edge_list(0, [])) == 1
    assert spanning_tree_count(from_edge_list(1, [])) == 1
