"""The clique complex (clique counts, Euler characteristic, inductive
dimension), curvature and the mean-field length estimator.

Both clique walks run on the bitmask adjacency of `graph.adjacency_masks`: a
vertex subset is a Python int, and the sphere of v inside subset S is
masks[v] & S.  `simplex_counts` grows cliques by ordered extension, and χ is
their alternating sum.  The dimension of every subset reached is memoized on
its bitmask as one number, scale·dim(S), with scale = min(Δ, 64)! for the
maximum degree Δ.  By induction from dim(∅) = −1, the denominator of dim(S)
divides |S|!, and every subset below the root lies inside a sphere, so
|S| <= Δ: whenever |S| <= 64 the scaled value is an int, and each subset
costs one add per child and one divmod by |S|.  Only the root and, when
Δ > 64, subsets of more than 64 vertices fall back to a Fraction, and only
when their value is not integral.  The cap keeps every int within
log2(64!) + log2(n) bits (about 300), where scale = Δ! would grow with Δ.
Both walks keep their frames on an explicit stack, so neither is bounded by
the interpreter's recursion limit.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional

from .errors import CliqueBudgetExceeded, EstimatorUndefined, RecursionBudgetExceeded
from .graph import adjacency_masks, distance_levels

# -- clique counts and the Euler characteristic --------------------------------

CLIQUE_BUDGET = 100_000_000  # default cap on the cliques one simplex_counts call visits


class SimplexCounts(tuple):
    """counts[k] = number of complete subgraphs on k+1 vertices."""

    __slots__ = ()

    @property
    def counts(self):
        return tuple(self)


def simplex_counts(g, budget=CLIQUE_BUDGET):
    """Count complete subgraphs of every size.

    Cliques are enumerated by ordered extension (Chiba-Nishizeki, SIAM J.
    Comput. 14, 1985): a clique (v_0 < ... < v_k) is only grown by common
    neighbors larger than v_k, so each clique is visited exactly once.  The
    walk keeps (candidate bitmask, size) frames on an explicit stack.  A frame
    stands for one clique per candidate bit, all counted at once; a candidate
    v with common neighbors above it pushes the frame of the clique's
    extensions through v.  Frames pushed together are popped largest v first,
    so the frames waiting on the stack extend cliques that end at distinct
    vertices: there are at most n of them, however deep the walk goes.
    Raises CliqueBudgetExceeded past `budget` visited cliques.
    """
    masks = adjacency_masks(g)
    counts = []
    seen = 0
    stack = [((1 << g.n) - 1, 0)] if g.n else []
    while stack:
        cand, size = stack.pop()
        found = cand.bit_count()
        seen += found
        if seen > budget:
            raise CliqueBudgetExceeded(f"more than {budget} cliques")
        if size == len(counts):
            counts.append(0)
        counts[size] += found
        while cand:
            low = cand & -cand
            cand ^= low  # what is left of cand lies above the vertex of low
            grown = cand & masks[low.bit_length() - 1]
            if grown:
                stack.append((grown, size + 1))
    return SimplexCounts(counts)


def euler_characteristic(g, budget=CLIQUE_BUDGET):
    """Alternating sum of the complete-subgraph counts."""
    return sum((-1) ** k * c for k, c in enumerate(simplex_counts(g, budget=budget)))


# -- inductive dimension ------------------------------------------------------

DIMENSION_BUDGET = 1_000_000  # distinct subsets one dimension call may evaluate
_SCALE_CAP = 64  # the memo scales by at most 64! (see the module docstring)


def inductive_dimension(g, budget=DIMENSION_BUDGET):
    """Average vertex dimension; the empty graph has dimension -1.

    dim(G) = 1 + mean over vertices of dim(S(v)), evaluated on induced
    subgraphs.  Memoized on the vertex set inside the ambient graph (unit
    spheres repeat a lot), with a budget on the distinct subsets evaluated.
    """
    return _DimensionMemo(g, budget).dimension((1 << g.n) - 1)


def vertex_dimension(g, x, budget=DIMENSION_BUDGET):
    """1 + dimension of the unit sphere at x."""
    return 1 + _DimensionMemo(g, budget).dimension(adjacency_masks(g)[x])


def vertex_dimensions(g):
    """vertex_dimension(g, x) for every vertex x, from one shared memo.

    The budget is charged per vertex, on the subsets that vertex's call adds
    to the memo: never more than its separate call would evaluate, so every
    vertex that fits alone still fits, and one that does not still raises.
    """
    memo = _DimensionMemo(g, DIMENSION_BUDGET)
    return tuple(1 + memo.dimension(mask) for mask in adjacency_masks(g))


class _DimensionMemo:
    """Dimensions of the induced subgraphs of one graph, keyed on bitmasks.

    `values` maps a vertex bitmask S to scale·dim(S), where
    scale = min(Δ, _SCALE_CAP)! for the maximum degree Δ: an int whenever
    |S| <= min(Δ, _SCALE_CAP) (see the module docstring), else an int or a
    Fraction.  Each call evaluates at most `budget` distinct nonempty subsets
    not already in the memo; the next raises RecursionBudgetExceeded.
    """

    def __init__(self, g, budget):
        self.masks = adjacency_masks(g)
        degree = max(map(int.bit_count, self.masks), default=0)
        self.scale = factorial(min(degree, _SCALE_CAP))
        self.values = {0: -self.scale}  # the empty graph
        self.budget = budget

    def dimension(self, subset):
        """Dimension of the subgraph induced on the bitmask `subset`, as a Fraction."""
        masks, values, scale = self.masks, self.values, self.scale
        known = values.get
        self.spent = 0
        # A frame is [subset, its vertices not yet visited, the sum of its
        # children's values so far].
        stack = []
        if subset not in values:
            self._spend()
            stack.append([subset, subset, 0])
        while stack:
            frame = stack[-1]
            s, rest, acc = frame
            while rest:
                low = rest & -rest
                rest ^= low
                child = masks[low.bit_length() - 1] & s
                value = known(child)
                if value is None:
                    break
                acc += value
            else:
                # every child is known: scale·dim = scale + acc / |s|
                size = s.bit_count()
                q, r = divmod(acc, size)
                value = values[s] = scale + (Fraction(acc, size) if r else q)
                stack.pop()
                if stack:
                    stack[-1][2] += value
                continue
            frame[1] = rest
            frame[2] = acc
            self._spend()
            stack.append([child, child, 0])
        return Fraction(values[subset]) / scale

    def _spend(self):
        self.spent += 1
        if self.spent > self.budget:
            raise RecursionBudgetExceeded(
                f"more than {self.budget} dimension subproblems")


# -- expected dimension on G(n, p) --------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial with exact rational coefficients, index = degree."""

    coefficients: tuple

    @staticmethod
    def of(*coeffs):
        return Polynomial(_trim(tuple(Fraction(c) for c in coeffs)))

    def degree(self):
        return len(self.coefficients) - 1

    def __add__(self, other):
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return Polynomial(_trim(tuple(merged)))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            a, b = self.coefficients, other.coefficients
            out = [Fraction(0)] * (len(a) + len(b) - 1 or 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        out[i + j] += ca * cb
            return Polynomial(_trim(tuple(out)))
        return Polynomial(_trim(tuple(c * Fraction(other) for c in self.coefficients)))

    __rmul__ = __mul__

    def __call__(self, p):
        """The value at p, exact for a Fraction or int p; a float p is evaluated
        exactly at Fraction(p) and rounded once."""
        if isinstance(p, float):
            return float(self(Fraction(p)))
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * p + c
        return acc


def _trim(coeffs):
    end = len(coeffs)
    while end > 1 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end] if coeffs else (Fraction(0),)


def expected_dimension_polynomial(n):
    """Expected inductive dimension of G(n, p) as an exact polynomial in p.

    Built from the recursion d_{m+1} = 1 + sum_k C(m,k) p^k (1-p)^(m-k) d_k
    with d_0 = -1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    one = Polynomial.of(1)
    p = Polynomial.of(0, 1)
    q = Polynomial.of(1, -1)  # 1 - p
    d = [Polynomial.of(-1)]
    for m in range(0, n):
        # powers of p and (1-p) up to m
        p_pow = [one]
        q_pow = [one]
        for _ in range(m):
            p_pow.append(p_pow[-1] * p)
            q_pow.append(q_pow[-1] * q)
        acc = Polynomial.of(1)
        for k in range(m + 1):
            acc = acc + comb(m, k) * (p_pow[k] * q_pow[m - k] * d[k])
        d.append(acc)
    return d[n]


# -- curvature ----------------------------------------------------------------

@dataclass
class CurvatureSummary:
    """Degree/second-neighborhood averages and the curvature action."""

    mean_degree: float                 # average sphere-1 size
    mean_second: float                 # average sphere-2 size
    edge_density: Fraction             # 2m / (n(n-1))
    action: Optional[float]            # mean of s(x) over admissible vertices
    curvatures: tuple                  # per-vertex s(x) = log(d2(x)/d1(x)), None if inadmissible
    excluded: int                      # vertices skipped (degree 0 or no distance-2 vertices)


def second_sphere_size(g, x):
    """Number of vertices at hop distance exactly 2 from x."""
    counts = distance_levels(g)[x]
    return counts[2] if len(counts) > 2 else 0


def vertex_curvature(g, x):
    """s(x) = log(d2(x)/d1(x)); None when either sphere is empty."""
    d1 = g.degree(x)
    d2 = second_sphere_size(g, x)
    if d1 == 0 or d2 == 0:
        return None
    return math.log(d2 / d1)


def curvature_summary(g):
    """Averages of degree, second-sphere size, edge density and curvature.

    Vertices with an empty sphere of radius 1 or 2 carry no curvature; they
    are excluded from the action and counted in `excluded`.
    """
    n = g.n
    curvatures = tuple(vertex_curvature(g, x) for x in range(n))
    admissible = [s for s in curvatures if s is not None]
    return CurvatureSummary(
        mean_degree=2 * g.m / n if n else 0.0,
        mean_second=sum(second_sphere_size(g, x) for x in range(n)) / n if n else 0.0,
        edge_density=Fraction(2 * g.m, n * (n - 1)) if n >= 2 else Fraction(0),
        action=sum(admissible) / len(admissible) if admissible else None,
        curvatures=curvatures,
        excluded=n - len(admissible),
    )


def length_estimate(g):
    """Mean-field estimate 1 + log(d1/n) / log(d1/d2) of the characteristic
    length, from the global averages d1 (degree) and d2 (second sphere)."""
    n = g.n
    if n == 0:
        raise EstimatorUndefined("empty")
    d1 = 2 * g.m / n
    d2 = sum(second_sphere_size(g, x) for x in range(n)) / n
    if d1 == 0:
        raise EstimatorUndefined("zero_degree")
    if d2 == 0:
        raise EstimatorUndefined("zero_second_sphere")
    if d1 == d2:
        raise EstimatorUndefined("equal_spheres")
    return 1 + math.log(d1 / n) / math.log(d1 / d2)
