"""Laplacian functionals: spectrum, complexity, forest and tree counts.

Eigenvalues come from LAPACK (symmetric solver) with the rank pinned by the
component count, never by thresholding.  The combinatorial determinants
(tree count, rooted-forest count) are exact integers, independent of the
floating spectrum: both matrices, the reduced Laplacian of a connected graph
and L + I, are symmetric positive definite, and one kernel computes their
determinants by p-adic lifting mod primes below 2^30, bounded by the product
of the diagonal.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
from .errors import ConvergenceFailure, Disconnected
from .graph import connected_components


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Ascending Laplacian eigenvalues; the first component_count are the zeros."""

    eigenvalues: tuple
    component_count: int

    def nonzero(self):
        return self.eigenvalues[self.component_count:]


def laplacian_matrix(g):
    """L = D - A as an integer numpy array."""
    lap = np.zeros((g.n, g.n), dtype=np.int64)
    for u in range(g.n):
        lap[u, u] = g.degree(u)
        for v in g.adj[u]:
            lap[u, v] = -1
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

_PRIME_TOP = 2 ** 30  # residues below 2^30: every product of two stays below 2^60


@functools.cache
def _prime_below(m):
    """The largest prime below m (trial division; m <= 2^30 needs odd divisors to 2^15)."""
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


def _inverse_mod(a, p):
    """(det a mod p, a^-1 mod p) by in-place Gauss-Jordan without pivoting.

    A symmetric positive definite matrix has positive leading minors, so a
    zero pivot means p divides one of them; that returns (0, None) and the
    caller moves to another prime.
    """
    m = a % p
    det = 1
    for k in range(len(m)):
        pivot = int(m[k, k])
        if pivot == 0:
            return 0, None
        det = det * pivot % p
        col = m[:, k].copy()
        m[:, k] = 0  # column k becomes -col / pivot, row k becomes row k / pivot
        m[k, k] = 1
        row = m[k] * pow(pivot, -1, p) % p
        m -= col[:, None] * row
        m %= p
        m[k] = row
    return det, m


def _det_mod(a, p):
    """det a mod p by elimination without pivoting, 0 when a pivot vanishes
    (as in _inverse_mod); a third of the inverse's work."""
    m = a % p
    det = 1
    for k in range(len(m)):
        pivot = int(m[k, k])
        if pivot == 0:
            return 0
        det = det * pivot % p
        factors = m[k + 1:, k] * pow(pivot, -1, p) % p
        m[k + 1:, k + 1:] -= factors[:, None] * m[k, k + 1:]
        m[k + 1:, k + 1:] %= p
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

    b is a fixed draw of n integers below 2^16 from a seeded stream; only
    the size of d, and so the cost of the cofactor, depends on it.  The
    inverse mod p lifts x p-adically to x mod p^k, with p^k > 2 N H, where
    N = n max(b) H bounds the numerators of det(a) x.  Rational
    reconstruction of d x, entry by entry, grows d to the lcm.
    """
    n = len(a)
    b = rng.generator(0).integers(0, 2 ** 16, size=n)
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
