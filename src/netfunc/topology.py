"""The clique complex (clique counts, Euler characteristic, inductive
dimension and its expectation over G(n, p)), curvature and the mean-field
length estimator.

The clique complex is one recursion on vertex subsets,
value(S) = close(|S|, Σ_{v∈S} value(S ∩ step[v])), on the bitmask adjacency
of `graph.adjacency_masks`, and one closure in numpy, `_Closure`,
computes it.  A subset is a row of ⌈n/64⌉ uint64 words.  The closure is
found in rounds, as a multi-source BFS expands a frontier: the first round
splits the root into its children, and each later round splits every subset
the round before stored for the first time.  A round's child rows are made at
most `_CHUNK_BYTES` at a time, from the members of each row (only its
nonzero words are unpacked).  Each chunk is deduped (sorted by key, keeping
the inverse) and looked up in one sorted index of the subsets stored so far;
the new ones get ids.  A child S ∩ step[v] lies in S − {v}, so it is strictly
smaller than S, and once no round finds a new subset the values are computed
one size level at a time from the smallest up, each level by one gathered
sum of its children's values.  The index keys a row of one word by the word
itself and a longer row by a hash of its words; every duplicate and every
hit is then checked word by word, and a collision switches the closure to
keying rows by all their words.  The hash pays: keying every row by its
bytes made the dimension and χ of the benchmark sweeps' draws a fifth
slower on the dense ones and a tenth on the sparse.  There are as many
rounds as the recursion is deep, fewer than its size levels, so the numpy
calls per call stay few; that matters on sparse graphs, whose closures are
small.

The closure stops at four vertices.  There the degree multiset fixes the
graph up to isomorphism, so `_SMALL_GRAPHS` keys each of the 18 graphs on 1-4
vertices by its degree code Σ_{v∈T} 8^deg_T(v) and holds its dimension and
clique counts.  A subset of at most four vertices is valued from there, by a
vectorised degree code; it counts as one evaluated subset, and only the root
is split at that size.  Five vertices would not do: P5 and K3 + K2 share the
degrees 2, 2, 2, 1, 1 but not the dimension.

The budget does not depend on the order of the search.  The closure is the
set the depth-first recursion visits: the root and, below each split subset,
its children, where a subset is split if it is the root or has more than
four vertices.  Membership in that set is a property of the subset, not of
the order it is found in, so `spent`, the distinct subsets a call stores,
equals the recursion's count, and a call raises exactly when that count
exceeds its budget, with the same exception and message.  A call that raises
stores nothing.  `vertex_dimensions` values the spheres in vertex order on
one closure, and each sphere is charged only the subsets it adds to it (a
sphere already stored costs nothing and is not split again).
Memory is bounded with the count.  A call stores at most `budget` rows of
8·⌈n/64⌉ bytes, and keeps, until the values are computed, one child id of
8 bytes for each member of each subset it splits: at most `budget` subsets
of at most Δ members (the root's n aside).  Beyond those it holds the child
rows of one chunk and their sort, a few times `_CHUNK_BYTES`, and at the end
one size level's gathered child ids.  So a call past its budget stops in
bounded memory.

The dimension runs it on the adjacency masks, where masks[v] & S is the sphere
of v in S.  By induction from dim(∅) = −1, the denominator of dim(S) divides
|S|!, and −1 <= dim(S) <= |S| − 1.  Every subset below the root lies inside a
sphere, so |S| <= Δ for the maximum degree Δ.  A subset of at most
top = min(Δ, 18) vertices holds (top!)·dim(S) in int64: an integer, at most
17·18! < 2^57 in magnitude, so a sum of at most 18 children stays below
18·17·18! < 2^61.  A larger subset holds scale·dim(S) with scale =
min(Δ, 64)! as a Python int, and its children held in int64 are rescaled by
scale/top!.  Whenever |S| <= 64 that value is an int; only the root and, when
Δ > 64, subsets of more than 64 vertices fall back to a Fraction, and only
when their value is not integral.  The cap keeps every int within
log2(64!) + log2(n) bits (about 300), where scale = Δ! would grow with Δ.  Of
the 221,039 subsets of the twelve ER(n, 0.5) draws, n ∈ {40, 60, 80}, of the
benchmark's dense sweep, 5,025 are past 18 vertices.

The clique counts run it on the lower masks masks[v] & ((1 << v) − 1), where
masks[v] & S is N(v) ∩ S_{<v}.  A nonempty clique of S is its top vertex v
over a clique of N(v) ∩ S_{<v}, so the clique polynomial F_S(t) = Σ_j c_j t^j
(c_j the cliques of j vertices) obeys F_S = 1 + t·Σ_{v∈S} F_{N(v)∩S_{<v}},
with F_∅ = 1 and each single vertex seeded as 1 + t.  `_CliqueClosure` runs
it at one integer t.  The Euler characteristic reads F at t = −1:
χ = c_1 − c_2 + … = 1 − F(−1).  |F_S(−1)| is at most the number of cliques
of S, the empty one included, so at most 2^|S|, and a sum of |S| children is
below |S|·2^(|S|−1); for |S| <= 58 both fit int64, and larger subsets hold
Python ints.  The counts read F at t = 2^B, B = Δ + n.bit_length() + 1, in
Python ints throughout.  B is enough: a subset below the root lies in a lower
neighbourhood, of at most Δ vertices, so c_j <= C(Δ, j) <= 2^Δ; a root
coefficient sums at most n of those, so is at most n·2^Δ < 2^B; a partial sum
of children is digitwise at most the full one, so no digit carries.  F's
base-2^B digits are the counts.  Both visit the same subsets, so they spend
the same budget.

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

import numpy as np

from .errors import (CliqueBudgetExceeded, EstimatorUndefined, InvalidParam,
                     RecursionBudgetExceeded)
from .generators import _well_typed
from .graph import adjacency_masks, distance_levels, neighbor_arrays, per_graph, vertex_set

# -- the subset closure -------------------------------------------------------

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
_CHUNK_BYTES = 1 << 22  # the most bytes of child rows made at once


def _rows(masks, words):
    """The int bitmasks `masks` as rows of `words` uint64 words, low word first."""
    data = b"".join(mask.to_bytes(8 * words, "little") for mask in masks)
    return np.frombuffer(data, dtype="<u8").astype(np.uint64).reshape(len(masks), words)


@per_graph
def _adjacency_rows(g):
    """The adjacency masks as rows of ⌈n/64⌉ uint64 words; cached."""
    words = max(1, -(-g.n // 64))
    degrees, neighbors = neighbor_arrays(g)
    rows = np.zeros((g.n, words), dtype=np.uint64)
    # the neighbours run in order, so each word's bits are consecutive
    at = np.repeat(np.arange(g.n) * words, degrees) + (neighbors >> 6)
    starts = np.flatnonzero(np.diff(at, prepend=-1))
    bits = np.uint64(1) << (neighbors & 63).astype(np.uint64)
    rows.ravel()[at[starts]] = np.bitwise_or.reduceat(bits, starts) if len(bits) else 0
    return rows


def _lower(rows):
    """rows[v] & ((1 << v) − 1) for each v: the neighbours below v."""
    n, words = rows.shape
    word, bit = np.divmod(np.arange(n), 64)
    column = np.arange(words)
    below = np.where(column < word[:, None], ~np.uint64(0),
                     np.where(column == word[:, None],
                              (np.uint64(1) << bit.astype(np.uint64))[:, None] - np.uint64(1),
                              np.uint64(0)))
    return rows & below


def _members(rows):
    """(r, v) for every vertex v of every row r, by row and then by vertex.
    Only the nonzero words are unpacked."""
    words = np.flatnonzero(rows)
    octets = rows.ravel()[words].astype("<u8", copy=False).view(np.uint8)
    bits = np.flatnonzero(np.unpackbits(octets, bitorder="little"))
    r, w = np.divmod(words[bits >> 6], rows.shape[1])
    return r, 64 * w + (bits & 63)


def _degree_codes(rows, full):
    """Σ_{v∈T} 8^deg_T(v) for each row T, deg_T taken in the subgraph T
    induces; `full` holds the adjacency rows.  The sums are exact in float64."""
    r, v = _members(rows)
    degrees = np.bitwise_count(full[v] & rows[r]).sum(axis=1, dtype=np.int64)
    return np.bincount(r, 8.0 ** degrees, len(rows)).astype(np.int64)


def _int_or_fraction(x):
    return x.numerator if x.denominator == 1 else x


class _Closure:
    """The subsets one recursion visits from the roots it is given, one root
    a call, and their values (see the module docstring).

    value(S) = close(|S|, Σ_{v∈S} value(S ∩ step[v])), step[v] the neighbours
    of v, or with `lower` those below v.  A subset of at most
    len(seeds) − 1 vertices is a seed, valued by its size and with its size
    as id; the others get ids in the order they are found, and one of at
    most four vertices is valued from `leaves` (degree code -> value).  A
    value x is held as small_scale·x in int64 for a subset of at most `top`
    vertices, and as scale·x, a Python int or Fraction, above.  Each `value`
    call charges `spent` with the subsets it stores, and one that would
    store more than `budget` raises `exceeded` and stores nothing.
    """

    def __init__(self, g, lower, seeds, top, small_scale, scale, leaves, budget, exceeded, unit):
        self.full = _adjacency_rows(g)
        self.words = words = self.full.shape[1]
        self.step = _lower(self.full) if lower else self.full
        self.seeded = len(seeds) - 1
        self.top, self.small_scale, self.scale = top, small_scale, scale
        self.ratio = scale // small_scale
        self.budget, self.exceeded, self.unit = budget, exceeded, unit
        self.hashed = words > 1  # rows are keyed by a hash of their words until two collide
        self.salt = np.arange(words, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        self.small_leaves = np.zeros(max(_SMALL_GRAPHS) + 1, dtype=np.int64)
        self.big_leaves = np.zeros(max(_SMALL_GRAPHS) + 1, dtype=object)
        for code, x in leaves.items():
            self._put(self.small_leaves, self.big_leaves, code, _SMALL_GRAPHS[code][1][0], x)
        self.count = len(seeds)
        self.rows = np.zeros((1024, words), dtype=np.uint64)  # by id, as are the values
        self.small = np.zeros(1024, dtype=np.int64)
        self.big = np.zeros(1024, dtype=object)
        for size, x in enumerate(seeds):
            self._put(self.small, self.big, size, size, x)
        self.keys = np.zeros(0, dtype=np.uint64)  # the stored subsets' keys, ascending
        self.ids = np.zeros(0, dtype=np.intp)  # and their ids, in the same order
        self.spent = 0

    def _put(self, small, big, i, size, x):
        if size <= self.top:
            small[i] = int(self.small_scale * x)
        else:
            big[i] = _int_or_fraction(self.scale * x)

    def value(self, subset):
        """scale·x for the int bitmask `subset`."""
        known = self.count
        try:
            i = self._visit(subset)
        except self.exceeded:
            # forget the subsets the call stored and the values it wrote, so the
            # ids it handed out start at zero when a later call reuses them
            keep = self.ids < known
            self.keys, self.ids, self.count = self.keys[keep], self.ids[keep], known
            self.small[known:] = 0
            self.big[known:] = 0
            raise
        return int(self.small[i]) * self.ratio if subset.bit_count() <= self.top else self.big[i]

    def _visit(self, subset):
        """Store the subsets the root `subset` reaches that are not stored yet,
        splitting each new one once, then value the split ones from the
        smallest up; return the root's id."""
        self.spent = 0
        self.limit = self.count + self.budget  # the most ids this call can reach
        size = subset.bit_count()
        if size <= self.seeded:
            return size  # a seed's id is its size
        known = self.count
        frontier = []  # (ids, sizes) stored and not yet split
        split = []     # (ids, sizes, child ids in row order) of the subsets split
        sizes = np.array([size], dtype=np.intp)
        (root,) = self._identify(_rows([subset], self.words), sizes, frontier).tolist()
        if root >= known and size <= _TABLE_SIZE:  # a table-valued root is split too
            frontier.append((np.array([root], dtype=np.intp), sizes))
        while frontier:
            parts = zip(*frontier)
            frontier = []
            self._split(*(np.concatenate(part) for part in parts), split, frontier)
        if not split:
            return root
        ids, sizes, children = (np.concatenate(part) for part in zip(*split))
        starts = np.cumsum(sizes) - sizes
        order = np.argsort(sizes, kind="stable")
        bounds = np.flatnonzero(np.diff(sizes[order])) + 1
        for at in np.split(order, bounds):  # a level at a time, the smallest first
            size = int(sizes[at[0]])
            if size <= _TABLE_SIZE:
                continue
            kids = children[starts[at, None] + np.arange(size)]
            if size <= self.top:
                self.small[ids[at]] = self._close_small(size, self.small[kids].sum(axis=1))
            else:
                acc = self.big[kids].sum(axis=1)
                if self.top >= 0:
                    acc += self.ratio * self.small[kids].astype(object).sum(axis=1)
                self.big[ids[at]] = np.array(self._close_big(size, acc), dtype=object)
        return root

    def _split(self, ids, sizes, split, frontier):
        """Find the children S ∩ step[v] of the subsets `ids` (of `sizes`
        vertices), at most _CHUNK_BYTES of child rows at a time; a seed child's
        id is its size."""
        ends = np.cumsum(sizes)
        per = _CHUNK_BYTES // (8 * self.words)  # child rows
        start = 0
        while start < len(ids):
            stop = max(start + 1, int(np.searchsorted(ends, ends[start] - sizes[start] + per,
                                                      side="right")))
            part = self.rows[ids[start:stop]]
            r, v = _members(part)
            children = part[r] & self.step[v]
            child_ids = np.bitwise_count(children).sum(axis=1, dtype=np.intp)
            stored = child_ids > self.seeded
            if stored.any():
                child_ids[stored] = self._identify(children[stored], child_ids[stored], frontier)
            split.append((ids[start:stop], sizes[start:stop], child_ids))
            start = stop

    def _identify(self, rows, sizes, frontier):
        """The ids of `rows` (of `sizes` vertices), storing and charging the new
        ones: one of at most four vertices is valued from the table, and the
        others join `frontier`, to be split."""
        keys = self._keys(rows)
        order = np.argsort(keys)
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        inverse = np.empty(len(keys), dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        keys, order = keys[first], order[first]
        unique = rows[order]  # one row of each key
        at = np.searchsorted(self.keys, keys)
        hit = at < len(self.keys)
        hit[hit] = self.keys[at[hit]] == keys[hit]
        if self.hashed and ((unique[inverse] != rows).any()
                            or (self.rows[self.ids[at[hit]]] != unique[hit]).any()):
            self.hashed = False  # two rows share a hash: key them by their words from now on
            self.keys = self._keys(self.rows[self.ids])
            sort = np.argsort(self.keys)
            self.keys, self.ids = self.keys[sort], self.ids[sort]
            return self._identify(rows, sizes, frontier)
        new = ~hit
        fresh = int(np.count_nonzero(new))
        self.spent += fresh
        if self.spent > self.budget:
            raise self.exceeded(f"more than {self.budget} {self.unit} subproblems")
        ids = np.empty(len(keys), dtype=np.intp)
        ids[hit] = self.ids[at[hit]]
        if fresh:
            ids[new] = np.arange(self.count, self.count + fresh)
            self.keys = np.insert(self.keys, at[new], keys[new])
            self.ids = np.insert(self.ids, at[new], ids[new])
            self._grow(self.count + fresh)
            ids_new, unique, sizes = ids[new], unique[new], sizes[order[new]]
            self.rows[ids_new] = unique
            self.count += fresh
            leaf = sizes <= _TABLE_SIZE
            if leaf.any():
                codes = _degree_codes(unique[leaf], self.full)
                small = sizes[leaf] <= self.top
                self.small[ids_new[leaf][small]] = self.small_leaves[codes[small]]
                self.big[ids_new[leaf][~small]] = self.big_leaves[codes[~small]]
            frontier.append((ids_new[~leaf], sizes[~leaf]))
        return ids[inverse]

    def _grow(self, count):
        if count > len(self.small):
            size = max(count, min(2 * len(self.small), self.limit))
            # in place, so the old rows and the new need not be held at once
            self.rows.resize((size, self.words), refcheck=False)
            self.small.resize(size, refcheck=False)
            self.big = np.concatenate([self.big, np.zeros(size - len(self.big), dtype=object)])

    def _keys(self, rows):
        if self.words == 1:
            return rows[:, 0]
        if self.hashed:  # the splitmix64 finalizer of each salted nonzero word, summed
            r, w = np.divmod(np.flatnonzero(rows), self.words)
            z = rows[r, w] + self.salt[w]
            z ^= z >> np.uint64(30)
            z *= np.uint64(0xBF58476D1CE4E5B9)
            z ^= z >> np.uint64(27)
            z *= np.uint64(0x94D049BB133111EB)
            z ^= z >> np.uint64(31)
            return np.add.reduceat(z, np.flatnonzero(np.diff(r, prepend=-1)))  # mod 2^64
        return np.ascontiguousarray(rows).view(np.dtype((np.void, 8 * self.words))).ravel()


# -- clique counts and the Euler characteristic --------------------------------

CLIQUE_BUDGET = 4_000_000  # distinct subsets one clique-polynomial call may evaluate
_CHI_TOP = 58  # |F_S(−1)| fits int64 for |S| <= 58 (see the module docstring)


class SimplexCounts(tuple):
    """counts[k] = number of complete subgraphs on k+1 vertices."""

    __slots__ = ()

    @property
    def counts(self):
        return tuple(self)


class _CliqueClosure(_Closure):
    """F_S(t) = Σ_j c_j t^j, c_j the complete subgraphs on j vertices of S
    (c_0 = 1), at the integer t, by the closure on the lower masks.  Values of
    subsets of at most `top` vertices are int64; raises CliqueBudgetExceeded
    past `budget` distinct subsets of two or more vertices."""

    def __init__(self, g, t, top, budget):
        leaves = {code: 1 + sum(c * t ** k for k, c in enumerate(counts, 1))
                  for code, (_, counts) in _SMALL_GRAPHS.items()}
        super().__init__(g, True, (1, 1 + t), top, 1, 1, leaves, budget,
                         CliqueBudgetExceeded, "clique")
        self.t = t

    def _close_small(self, k, acc):
        return 1 + self.t * acc

    _close_big = _close_small


def simplex_counts(g, budget=CLIQUE_BUDGET):
    """Count complete subgraphs of every size: the base-2^B digits of the
    clique polynomial at t = 2^B (see the module docstring).  Raises
    CliqueBudgetExceeded past `budget` distinct subsets of two or more vertices."""
    width = max(map(len, g.adj), default=0) + g.n.bit_length() + 1
    packed = _CliqueClosure(g, 1 << width, -1, budget).value((1 << g.n) - 1)  # no int64 level
    digit = (1 << width) - 1
    return SimplexCounts(packed >> k & digit for k in range(width, packed.bit_length(), width))


def euler_characteristic(g, budget=CLIQUE_BUDGET):
    """Alternating sum of the complete-subgraph counts, 1 − F(−1); raises
    CliqueBudgetExceeded where simplex_counts(g, budget) would."""
    return 1 - _CliqueClosure(g, -1, _CHI_TOP, budget).value((1 << g.n) - 1)


# -- inductive dimension ------------------------------------------------------

DIMENSION_BUDGET = 1_000_000  # distinct subsets one dimension call may evaluate
_SCALE_CAP = 64  # Python-int values scale by at most 64! (see the module docstring)
_INT64_CAP = 18  # int64 values scale by at most 18!


def inductive_dimension(g, budget=DIMENSION_BUDGET):
    """Average vertex dimension; the empty graph has dimension -1.

    dim(G) = 1 + mean over vertices of dim(S(v)), evaluated on induced
    subgraphs, each distinct vertex set once, with a budget on the distinct
    subsets evaluated.
    """
    return _DimensionClosure(g, budget).dimension((1 << g.n) - 1)


def vertex_dimension(g, x, budget=DIMENSION_BUDGET):
    """1 + dimension of the unit sphere at x."""
    (x,) = vertex_set(g, (x,))
    return 1 + _DimensionClosure(g, budget).dimension(adjacency_masks(g)[x])


def vertex_dimensions(g, budget=DIMENSION_BUDGET):
    """vertex_dimension(g, x, budget) for every vertex x, from one shared closure.

    The spheres are valued in vertex order, and each is charged only the
    subsets it adds to the closure: never more than its separate call would
    evaluate, so every vertex that fits alone still fits, and one that does
    not still raises.
    """
    closure = _DimensionClosure(g, budget)
    return tuple(1 + closure.dimension(mask) for mask in adjacency_masks(g))


class _DimensionClosure(_Closure):
    """Dimensions of the induced subgraphs of one graph, by the closure on the
    adjacency masks.

    A subset S of at most top = min(Δ, 18) vertices holds (top!)·dim(S) in
    int64, a larger one scale·dim(S) with scale = min(Δ, 64)!: an int
    whenever |S| <= min(Δ, 64), else an int or a Fraction (see the module
    docstring).  Each call evaluates at most `budget` distinct nonempty
    subsets not already stored; the next raises RecursionBudgetExceeded.
    """

    def __init__(self, g, budget):
        degree = max(map(len, g.adj), default=0)
        top = min(degree, _INT64_CAP)
        leaves = {code: dim for code, (dim, _) in _SMALL_GRAPHS.items()}
        super().__init__(g, False, (-1,), top, factorial(top),
                         factorial(min(degree, _SCALE_CAP)), leaves, budget,
                         RecursionBudgetExceeded, "dimension")

    def dimension(self, subset):
        """Dimension of the subgraph induced on the bitmask `subset`, as a Fraction."""
        return Fraction(self.value(subset)) / self.scale

    def _close_small(self, k, acc):  # (top!)·dim(S) = top! + acc / |S|, exactly
        return self.small_scale + acc // k

    def _close_big(self, k, acc):  # scale·dim(S) = scale + acc / |S|
        return [self.scale + (Fraction(a, k) if a % k else a // k) for a in acc]


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
