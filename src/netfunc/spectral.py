"""Laplacian functionals: spectrum, complexity, forest and tree counts.

Eigenvalues come from LAPACK (symmetric solver) with the rank pinned by the
component count, never by thresholding.  The combinatorial determinants
(tree count, rooted-forest count) are exact integers, independent of the
floating spectrum: both matrices, the reduced Laplacian of a connected graph
and L + I, are symmetric positive definite, and one kernel computes their
determinants by p-adic lifting mod primes below 2^23, bounded by the product
of the diagonal.

The eliminations mod p (FFLAS-FFPACK style: Dumas, Giorgi, Pernet, ACM TOMS
35(3), 2008) reduce late and let exact sums do the rest.  They work on
panels of 128 pivots.  Within a panel, Gauss-Jordan in int64 reduces only
the row and the column the next pivot reads; every other entry is a residue
less at most 128 products of two residues, below 2^53, far inside int64.
Across panels, one
float64 matmul applies a panel's 128 pivots to the rest of the matrix, and
subtracting the nearest multiple of p reduces the result to (-p, p): its
sums have at most 128 terms of at most (p - 1)^2 < 2^46, so each is an
integer below 2^53, which float64 holds exactly in any summation order, for
any BLAS thread count.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceFailure, Disconnected
from .graph import connected_components, neighbor_arrays


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Ascending Laplacian eigenvalues; the first component_count are the zeros."""

    eigenvalues: tuple
    component_count: int

    def nonzero(self):
        return self.eigenvalues[self.component_count:]


def laplacian_matrix(g):
    """L = D - A as an integer numpy array, from the adjacency arrays."""
    degrees, neighbors = neighbor_arrays(g)
    lap = np.diag(degrees)
    lap[np.repeat(np.arange(g.n), degrees), neighbors] = -1
    return lap


def laplacian_spectrum(g):
    """Eigenvalues of D - A, sorted ascending, with the component count;
    computed once per graph and cached on it."""
    if g._spectrum is None:
        g._spectrum = _spectrum(g)
    return g._spectrum


def _spectrum(g):
    if g.n == 0:
        return LaplacianSpectrum((), 0)
    try:
        eig = np.linalg.eigvalsh(laplacian_matrix(g).astype(float))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return LaplacianSpectrum(tuple(float(v) for v in np.sort(eig)),
                             len(connected_components(g)))


@dataclass
class SpectralComplexity:
    """Product of the nonzero Laplacian eigenvalues, carried in log form."""

    log_value: float
    value: Optional[float]  # None when the product overflows a double


def spectral_complexity(g):
    """Product of the n - #components largest Laplacian eigenvalues."""
    spec = laplacian_spectrum(g)
    nz = spec.nonzero()
    if not nz:
        return SpectralComplexity(0.0, 1.0)
    log_value = sum(math.log(v) for v in nz)
    value = math.exp(log_value) if log_value < 700 else None
    return SpectralComplexity(log_value, value)


# Exact determinants of symmetric positive definite integer matrices by p-adic
# lifting (Dixon, Numer. Math. 40, 1982; Abbott-Bronstein-Mulders, ISSAC 1999).
# Correctness rests on the Hadamard-Fischer bound alone.

_PRIME_TOP = 2 ** 23  # residues below 2^23: a product of two stays below 2^46
_PANEL = 128  # pivots per panel: _PANEL products of two residues stay below 2^53


def _check_exact(p, terms, bits):
    """Refuse p when a residue plus `terms` products of two residues mod p can
    reach 2^bits, the range in which the kernels' sums are exact."""
    if p + terms * (p - 1) ** 2 >= 2 ** bits:
        raise OverflowError(f"sums of {terms} products of residues mod {p} "
                            f"are not exact below 2^{bits}")


@functools.cache
def _prime_below(m):
    """The largest prime below m (trial division by odd numbers to sqrt(m))."""
    m -= 1 + m % 2
    while any(m % q == 0 for q in range(3, math.isqrt(m) + 1, 2)):
        m -= 2
    return m


def _primes():
    """The primes below _PRIME_TOP, descending."""
    p = _PRIME_TOP
    while True:
        p = _prime_below(p)
        yield p


def _gauss_jordan_mod(a, p):
    """(det a mod p, a^-1 mod p) by in-place Gauss-Jordan without pivoting,
    for an int64 matrix of at most _PANEL rows.

    Step k reduces row k and column k, the only entries its pivot reads, and
    subtracts a product of two residues from every other entry.  After n
    steps an entry lies between -n (p - 1)^2 and p, inside int64 while
    n (p - 1)^2 + p < 2^63.  A zero pivot returns (0, None).
    """
    n = len(a)
    _check_exact(p, n, 63)
    m = a % p
    det = 1
    for k in range(n):
        m[k] %= p
        col = m[:, k] % p
        pivot = int(col[k])
        if pivot == 0:
            return 0, None
        det = det * pivot % p
        m[:, k] = 0  # column k becomes -col / pivot, row k becomes row k / pivot
        m[k, k] = 1
        row = m[k] * pow(pivot, -1, p) % p
        m -= col[:, None] * row
        m[k] = row
    return det, m % p


def _reduce(m, p):
    """m less the multiple of p nearest to it, in place, for a float64 array
    of integers of magnitude below p + _PANEL (p - 1)^2, as the panel
    products leave them.  Then m / p is below 2^31, so its two roundings
    leave the quotient within 1/2 + 2^-21 of it, and the result is an exact
    integer of magnitude at most p / 2 + p 2^-21 < p."""
    q = m * (1.0 / p)
    np.rint(q, out=q)
    q *= p
    m -= q
    return m


def _panels(n):
    """The slices of _PANEL consecutive pivots that cover 0..n-1."""
    return [slice(k, k + _PANEL) for k in range(0, n, _PANEL)]


def _inverse_mod(a, p):
    """(det a mod p, a^-1 mod p) by Gauss-Jordan without pivoting, a panel of
    pivots at a time.

    A symmetric positive definite matrix has positive leading minors, so a
    zero pivot means p divides one of them; that returns (0, None) and the
    caller moves to another prime.  Panel K inverts its pivot block by
    `_gauss_jordan_mod`, then eliminates column block K from every other row
    with one matmul.  Entries between panels are residues in (-p, p), so a
    product sum has at most _PANEL terms of at most (p - 1)^2 each.
    """
    _check_exact(p, _PANEL, 53)
    m = (a % p).astype(float)
    det = 1
    for panel in _panels(len(m)):
        det_k, inv_k = _gauss_jordan_mod(m[panel, panel].astype(np.int64), p)
        if det_k == 0:
            return 0, None
        det = det * det_k % p
        col = m[:, panel].copy()  # block K becomes -col inv_k, rows K become inv_k rows K
        m[:, panel] = 0
        m[panel, panel] = np.eye(len(inv_k))
        row = _reduce(inv_k @ m[panel], p)
        m -= col @ row
        m[panel] = row
        _reduce(m, p)
    return det, np.mod(m, p).astype(np.int64)


def _det_mod(a, p):
    """det a mod p by block elimination without pivoting, 0 when a pivot
    vanishes (as in _inverse_mod); a third of the inverse's work.

    Panel K inverts its pivot block and replaces the trailing block by its
    Schur complement, D - C (inv_k B), one matmul of at most _PANEL terms
    per entry.
    """
    _check_exact(p, _PANEL, 53)
    m = (a % p).astype(float)
    det = 1
    for panel in _panels(len(m)):
        det_k, inv_k = _gauss_jordan_mod(m[panel, panel].astype(np.int64), p)
        if det_k == 0:
            return 0
        det = det * det_k % p
        rest = slice(panel.stop, None)
        x = _reduce(inv_k @ m[panel, rest], p)
        trailing = m[rest, rest]
        trailing -= m[rest, panel] @ x
        _reduce(trailing, p)
    return det


def _denominator(y, mod, num_bound):
    """Denominator of the fraction num/den == y (mod `mod`) with |num| <= num_bound
    (Wang's rational reconstruction; unique when mod > 2 num_bound den)."""
    r0, r1, t0, t1 = mod, y, 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    return abs(t1) // math.gcd(r1, t1)


def _lifted_denominator(a, inverse, p, h):
    """A divisor d of det a: the lcm of the denominators of x = a^-1 b.

    b holds n fixed integers below 2^16, (40503 i + 12345) mod 2^16; only
    the size of d, and so the cost of the cofactor, depends on it.  The
    inverse mod p lifts x p-adically to x mod p^k, with p^k > 2 N H, where
    N = n max(b) H bounds the numerators of det(a) x.  Rational
    reconstruction of d x, entry by entry, grows d to the lcm.
    """
    n = len(a)
    b = (40503 * np.arange(n, dtype=np.int64) + 12345) % 2 ** 16
    num_bound = n * int(b.max()) * h
    # |r| stays below max(b) + the largest row sum of |a|, so inverse @ r fits int64
    if n * p * (int(b.max()) + int(np.abs(a).sum(axis=1).max())) >= 2 ** 63:
        raise OverflowError(f"{n} x {n} matrix too large for the int64 lifting")
    r, digits, mod = b, [], 1
    while mod <= 2 * num_bound * h:
        x = inverse @ r % p
        r = (r - a @ x) // p
        digits.append(x.tolist())
        mod *= p
    xs = [0] * n
    for x in reversed(digits):
        xs = [v * p + e for v, e in zip(xs, x)]
    d = 1
    for v in xs:
        d *= _denominator(d * v % mod, mod, num_bound)
    return d


def _spd_determinant(a):
    """Exact det of a symmetric positive definite int64 matrix.

    H, the product of the diagonal, bounds det a (Hadamard-Fischer).  d comes
    from p-adic lifting with the inverse mod one prime p, and the cofactor
    det(a) / d by CRT from det mod p and further primes, until their product
    exceeds 2 H / d.  When 2 H < p there is nothing to lift: d = 1 and det a
    is its residue mod p.
    """
    n = len(a)
    if n == 0:
        return 1
    h = math.prod(np.diagonal(a).tolist())
    primes = _primes()
    for p in primes:
        det_p, inverse = _inverse_mod(a, p)
        if det_p:
            break
    d = _lifted_denominator(a, inverse, p, h) if 2 * h >= p else 1
    cofactor, modulus = det_p * pow(d, -1, p) % p, p
    while modulus * d <= 2 * h:
        q = next(primes)
        det_q = _det_mod(a, q)
        if det_q:
            residue = det_q * pow(d, -1, q) % q
            cofactor += modulus * ((residue - cofactor) * pow(modulus, -1, q) % q)
            modulus *= q
    return d * cofactor


def forest_complexity(g):
    """Number of rooted spanning forests, det(L + I), as an exact integer."""
    lap = laplacian_matrix(g) + np.eye(g.n, dtype=np.int64)
    return _spd_determinant(lap)


def spanning_tree_count(g):
    """Number of spanning trees: the (0,0) minor of the Laplacian, exactly."""
    if g.n == 0:
        raise Disconnected("empty graph has no spanning tree")
    if len(connected_components(g)) != 1:
        raise Disconnected("spanning trees need a connected graph")
    lap = laplacian_matrix(g)
    return _spd_determinant(lap[1:, 1:])


def pseudoinverse_trace_bound(g):
    """Lower length bound 2 tr(L+) / (n - 1) from the pseudo-inverse trace."""
    if g.n < 2:
        raise Disconnected("bound needs a connected graph on >= 2 vertices")
    spec = laplacian_spectrum(g)
    if spec.component_count != 1:
        raise Disconnected("bound needs a connected graph")
    trace = sum(1.0 / v for v in spec.nonzero())
    return 2.0 * trace / (g.n - 1)
