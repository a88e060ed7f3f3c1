"""The clique complex (clique counts, Euler characteristic, inductive
dimension and its expectation over G(n, p)), curvature and the mean-field
length estimator.

The clique complex is one memoized subset recursion, `_memoized`, on the
bitmask adjacency of `graph.adjacency_masks`: a vertex subset is a Python
int, value(S) = close(S, Σ_{v∈S} value(masks[v] & S)) is kept per bitmask,
frames live on an explicit stack (so the interpreter's recursion limit does
not bound it), and a budget caps the distinct subsets one call evaluates.

The recursion stops at four vertices.  There the degree multiset fixes the
graph up to isomorphism, so `_SMALL_GRAPHS` keys each of the 18 graphs on 1-4
vertices by its degree code Σ_{v∈T} 8^deg_T(v) and holds its dimension and
clique counts.  A child of at most four vertices that misses the memo takes
its value from there, without a frame; it counts as one evaluated subset and
its own subsets are never evaluated.  Five vertices would not do: P5 and
K3 + K2 share the degrees 2, 2, 2, 1, 1 but not the dimension.

The dimension runs it on the adjacency masks, where masks[v] & S is the sphere
of v in S, and stores scale·dim(S) with scale = min(Δ, 64)! for the maximum
degree Δ.  By induction from dim(∅) = −1, the denominator of dim(S) divides
|S|!, and every subset below the root lies inside a sphere, so |S| <= Δ:
whenever |S| <= 64 the scaled value is an int, and each subset costs one add
per child and one divmod by |S|.  Only the root and, when Δ > 64, subsets of
more than 64 vertices fall back to a Fraction, and only when their value is
not integral.  The cap keeps every int within log2(64!) + log2(n) bits (about
300), where scale = Δ! would grow with Δ.

The clique counts run it on the lower masks masks[v] & ((1 << v) − 1), where
masks[v] & S is N(v) ∩ S_{<v}.  A nonempty clique of S is its top vertex v
over a clique of N(v) ∩ S_{<v}, so the clique polynomial F_S(t) = Σ_j c_j t^j
(c_j the cliques of j vertices) obeys F_S = 1 + t·Σ_{v∈S} F_{N(v)∩S_{<v}},
with F_∅ = 1 and each single vertex seeded as 1 + t.  `_clique_polynomial`
runs it at one integer t, so a child costs one add.  The Euler characteristic
reads F at t = −1: χ = c_1 − c_2 + … = 1 − F(−1), and every stored value is a
small int.  The counts read F at t = 2^B, B = Δ + n.bit_length() + 1.  B is
enough: a subset below the root lies in a lower neighbourhood, of at most Δ
vertices, so c_j <= C(Δ, j) <= 2^Δ; a root coefficient sums at most n of
those, so is at most n·2^Δ < 2^B; a partial sum of children is digitwise at
most the full one, so no digit carries.  F's base-2^B digits are the counts.
Both visit the same subsets in the same order, so they spend the same budget.

The expected dimension over G(n, p) is a polynomial in p with integer
coefficients, built as lists of Python ints (`expected_dimension_polynomial`).

`curvature_summary` is cached per graph (`graph.per_graph`) and is the one
place that reads d2(x), the number of vertices at distance 2, from the level
counts.  `second_sphere_size`, `vertex_curvature` and `length_estimate` read
its tables and means.  The per-vertex functions check the vertex id with
`graph.vertex_set` first.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional

from .errors import (CliqueBudgetExceeded, EstimatorUndefined, InvalidParam,
                     RecursionBudgetExceeded)
from .generators import _well_typed
from .graph import adjacency_masks, distance_levels, per_graph, vertex_set

# -- the subset recursion -----------------------------------------------------

def _memoized(subset, masks, values, close, budget, exceeded, unit, full, leaves):
    """value(subset), where value(S) = close(S, Σ_{v∈S} value(masks[v] & S)).

    `values` holds the caller's seeds (the empty set among them) and every
    subset evaluated so far; a child of at most four vertices is valued from
    `leaves` by its degree code in the masks `full`.  Evaluating more than
    `budget` subsets not yet in `values` raises `exceeded`."""
    known = values.get
    # A frame is [subset, its vertices not yet visited, the sum of its
    # children's values so far].
    stack = [] if subset in values else [[subset, subset, 0]]
    spent = len(stack)
    while stack:
        if spent > budget:
            raise exceeded(f"more than {budget} {unit} subproblems")
        frame = stack[-1]
        s, rest, acc = frame
        while rest:
            low = rest & -rest
            rest ^= low
            child = masks[low.bit_length() - 1] & s
            value = known(child)
            if value is None:
                if child.bit_count() > _TABLE_SIZE:
                    break
                spent += 1
                if spent > budget:
                    raise exceeded(f"more than {budget} {unit} subproblems")
                value = values[child] = leaves[_degree_code(child, full)]
            acc += value
        else:
            value = values[s] = close(s, acc)
            stack.pop()
            if stack:
                stack[-1][2] += value
            continue
        frame[1] = rest
        frame[2] = acc
        spent += 1
        stack.append([child, child, 0])
    return values[subset]


_TABLE_SIZE = 4  # the most vertices a table-valued subset has
# degree code -> (dimension, clique counts (c_1, ..., c_k)) of each graph on 1-4
# vertices; in order: K1; 2K1, K2; 3K1, K2+K1, P3, K3; 4K1, K2+2K1, 2K2, P3+K1,
# P4, K(1,3), K3+K1, C4, paw, diamond, K4
_SMALL_GRAPHS = {
    1: (Fraction(0), (1,)), 2: (Fraction(0), (2,)), 16: (Fraction(1), (2, 1)),
    3: (Fraction(0), (3,)), 17: (Fraction(2, 3), (3, 1)), 80: (Fraction(1), (3, 2)),
    192: (Fraction(2), (3, 3, 1)), 4: (Fraction(0), (4,)), 18: (Fraction(1, 2), (4, 1)),
    32: (Fraction(1), (4, 2)), 81: (Fraction(3, 4), (4, 2)), 144: (Fraction(1), (4, 3)),
    536: (Fraction(1), (4, 3)), 193: (Fraction(3, 2), (4, 3, 1)), 256: (Fraction(1), (4, 4)),
    648: (Fraction(5, 3), (4, 4, 1)), 1152: (Fraction(2), (4, 5, 2)),
    2048: (Fraction(3), (4, 6, 4, 1)),
}


def _degree_code(subset, masks):
    """Σ_{v∈subset} 8^deg(v), degrees taken in the subgraph induced on `subset`."""
    code = 0
    rest = subset
    while rest:
        low = rest & -rest
        rest ^= low
        code += 1 << 3 * (masks[low.bit_length() - 1] & subset).bit_count()
    return code


# -- clique counts and the Euler characteristic --------------------------------

CLIQUE_BUDGET = 4_000_000  # distinct subsets one clique-polynomial call may evaluate


class SimplexCounts(tuple):
    """counts[k] = number of complete subgraphs on k+1 vertices."""

    __slots__ = ()

    @property
    def counts(self):
        return tuple(self)


def _clique_polynomial(g, t, budget):
    """F(t) = Σ_j c_j t^j, c_j the complete subgraphs on j vertices (c_0 = 1),
    at the integer t, by the subset recursion on the lower masks (see the
    module docstring).  Raises CliqueBudgetExceeded past `budget` distinct
    subsets of two or more vertices."""
    masks = adjacency_masks(g)
    lower = [mask & ((1 << v) - 1) for v, mask in enumerate(masks)]
    values = dict.fromkeys((1 << v for v in range(g.n)), 1 + t) | {0: 1}
    leaves = {code: 1 + sum(c * t ** k for k, c in enumerate(counts, 1))
              for code, (_, counts) in _SMALL_GRAPHS.items()}
    return _memoized((1 << g.n) - 1, lower, values, lambda s, acc: 1 + t * acc,
                     budget, CliqueBudgetExceeded, "clique", masks, leaves)


def simplex_counts(g, budget=CLIQUE_BUDGET):
    """Count complete subgraphs of every size: the base-2^B digits of the
    clique polynomial at t = 2^B (see the module docstring).  Raises
    CliqueBudgetExceeded past `budget` distinct subsets of two or more vertices."""
    width = max(map(int.bit_count, adjacency_masks(g)), default=0) + g.n.bit_length() + 1
    packed = _clique_polynomial(g, 1 << width, budget)
    digit = (1 << width) - 1
    return SimplexCounts(packed >> k & digit for k in range(width, packed.bit_length(), width))


def euler_characteristic(g, budget=CLIQUE_BUDGET):
    """Alternating sum of the complete-subgraph counts, 1 − F(−1); raises
    CliqueBudgetExceeded where simplex_counts(g, budget) would."""
    return 1 - _clique_polynomial(g, -1, budget)


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
    (x,) = vertex_set(g, (x,))
    return 1 + _DimensionMemo(g, budget).dimension(adjacency_masks(g)[x])


def vertex_dimensions(g, budget=DIMENSION_BUDGET):
    """vertex_dimension(g, x, budget) for every vertex x, from one shared memo.

    The budget is charged per vertex, on the subsets that vertex's call adds
    to the memo: never more than its separate call would evaluate, so every
    vertex that fits alone still fits, and one that does not still raises.
    """
    memo = _DimensionMemo(g, budget)
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
        # a child lies in a sphere, so has at most Δ vertices; those entries scale to ints
        self.leaves = {code: int(self.scale * dim) for code, (dim, counts) in _SMALL_GRAPHS.items()
                       if counts[0] <= degree}
        self.budget = budget

    def dimension(self, subset):
        """Dimension of the subgraph induced on the bitmask `subset`, as a Fraction."""
        value = _memoized(subset, self.masks, self.values, self._close, self.budget,
                          RecursionBudgetExceeded, "dimension", self.masks, self.leaves)
        return Fraction(value) / self.scale

    def _close(self, s, acc):  # scale·dim(S) = scale + acc / |S|
        size = s.bit_count()
        q, r = divmod(acc, size)
        return self.scale + (Fraction(acc, size) if r else q)


# -- expected dimension on G(n, p) --------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial with exact rational coefficients, index = degree."""

    coefficients: tuple

    def degree(self):
        return len(self.coefficients) - 1

    def __call__(self, p):
        """The value at p, exact for a Fraction or int p; a float p is evaluated
        exactly at Fraction(p) and rounded once."""
        if isinstance(p, float):
            return float(self(Fraction(p)))
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * p + c
        return acc


def expected_dimension_polynomial(n):
    """Expected inductive dimension of G(n, p) as an exact polynomial in p.

    Built from the recursion d_{m+1} = 1 + Σ_k C(m, k) p^k (1 − p)^(m−k) d_k
    with d_0 = −1, on integer coefficients: every term is a product of integer
    polynomials.  rows[k] holds (1 − p)^(m−k)·d_k, added at offset k for p^k,
    and takes one more factor 1 − p per step.  The term k = m alone reaches degree C(m+1, 2), with the
    leading coefficient of d_m, so every d_n with n >= 2 is monic of degree C(n, 2).
    """
    if not _well_typed("n", n) or n < 0:
        raise InvalidParam(f"n must be a nonnegative integer, got {n!r}")
    d = [-1]  # coefficients of d_m, index = degree
    rows = []
    for m in range(n):
        rows = [[a - b for a, b in zip(row + [0], [0] + row)] for row in rows] + [d]
        d = [1] + [0] * (m * (m + 1) // 2)
        for k, row in enumerate(rows):
            c = comb(m, k)
            for j, x in enumerate(row, k):
                d[j] += c * x
    return Polynomial(tuple(map(Fraction, d)))


# -- curvature ----------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureSummary:
    """Degree/second-neighborhood averages and the curvature action; frozen,
    since `curvature_summary` keeps one on the graph for every caller."""

    mean_degree: float                 # average sphere-1 size
    mean_second: float                 # average sphere-2 size
    edge_density: Fraction             # 2m / (n(n-1))
    action: Optional[float]            # mean of s(x) over admissible vertices
    curvatures: tuple                  # per-vertex s(x) = log(d2(x)/d1(x)), None if inadmissible
    excluded: int                      # vertices skipped (degree 0 or no distance-2 vertices)
    second_spheres: tuple              # per-vertex d2(x), the vertices at distance 2


def second_sphere_size(g, x):
    """Number of vertices at hop distance exactly 2 from x."""
    (x,) = vertex_set(g, (x,))
    return curvature_summary(g).second_spheres[x]


def vertex_curvature(g, x):
    """s(x) = log(d2(x)/d1(x)); None when either sphere is empty."""
    (x,) = vertex_set(g, (x,))
    return curvature_summary(g).curvatures[x]


@per_graph
def curvature_summary(g):
    """Averages of degree, second-sphere size, edge density and curvature; cached.

    Vertices with an empty sphere of radius 1 or 2 carry no curvature; they
    are excluded from the action and counted in `excluded`.
    """
    n = g.n
    seconds = tuple(counts[2] if len(counts) > 2 else 0 for counts in distance_levels(g))
    curvatures = tuple(math.log(d2 / len(neighbors)) if neighbors and d2 else None
                       for neighbors, d2 in zip(g.adj, seconds))
    admissible = [s for s in curvatures if s is not None]
    return CurvatureSummary(
        mean_degree=2 * g.m / n if n else 0.0,
        mean_second=sum(seconds) / n if n else 0.0,
        edge_density=Fraction(2 * g.m, n * (n - 1)) if n >= 2 else Fraction(0),
        action=sum(admissible) / len(admissible) if admissible else None,
        curvatures=curvatures,
        excluded=n - len(admissible),
        second_spheres=seconds,
    )


def length_estimate(g):
    """Mean-field estimate 1 + log(d1/n) / log(d1/d2) of the characteristic
    length, from the global averages d1 (degree) and d2 (second sphere)."""
    n = g.n
    if n == 0:
        raise EstimatorUndefined("empty")
    summary = curvature_summary(g)
    d1, d2 = summary.mean_degree, summary.mean_second
    if d1 == 0:
        raise EstimatorUndefined("zero_degree")
    if d2 == 0:
        raise EstimatorUndefined("zero_second_sphere")
    if d1 == d2:
        raise EstimatorUndefined("equal_spheres")
    return 1 + math.log(d1 / n) / math.log(d1 / d2)
