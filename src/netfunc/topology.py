"""The clique complex (clique counts, Euler characteristic, inductive
dimension and its expectation over G(n, p)), curvature and the mean-field
length estimator.

The clique complex is one recursion on vertex subsets,
value(S) = close(|S|, Σ_{v∈S} value(S ∩ step[v])), and one closure in numpy,
`_Closure`, computes it.  A subset, the call's root included (all n vertices
or one vertex's sphere), is a row of W = ⌈n/64⌉ uint64 words, the layout of
`adjacency_rows`.  The closure is found in rounds, as a multi-source BFS
expands a frontier: the first round splits the root into its children, and
each later round splits every subset the round before stored for the first
time.  Child rows are made from each row's members (only nonzero words are
unpacked), at most `_CHUNK_BYTES` of them at a time: whole subsets while
their members fit, a larger one, such as the root, that many members at a
time.  Each slice is deduped (sorted by key, keeping the inverse) and looked
up in one sorted index of the stored subsets; the new ones get ids.  A child
S ∩ step[v] lies in S − {v}, so once no round finds a new subset the values
are computed one size level at a time from the smallest up, each level by one
gathered sum of its children's values.  The index keys a one-word row by the
word and a longer row by a hash of its words; every duplicate and hit is then
checked word by word, and a collision switches to keying rows by all their
words (keying every row by its bytes made the benchmark sweeps' dimension and
χ a fifth slower on the dense draws, a tenth on the sparse).  There are as
many rounds as the recursion is deep, so the numpy calls per call stay few,
which matters on the small closures of sparse graphs.

The width W alone picks how each per-row step runs.  Rows of at most
`_NARROW_WORDS` = 2 words (n <= 128) are worked a word column at a time: the
subset sizes are a popcount per column; the hash keys are the salted
splitmix64 sum over the nonzero words, added up a column at a time, so a key
does not depend on the path that computed it; a one-word row is unpacked
whole into its members, and a two-word row finds a nonzero word's row and
column by shifts, not `divmod`; and a leaf's degrees are popcounts per
column, read against an exact table of powers of 8.  Wider rows, mostly
zero words on sparse graphs, unpack and hash only their nonzero words.  Every
row is gathered with `take` and `compress`, which copy rows of a few words
several times faster than fancy indexing, and unpacked bits are scanned as
booleans, about twice as fast as bytes.  On the twelve ER(n, 0.5) draws of
the benchmark's dense sweep (n ∈ {40, 60, 80}, rows of one and two words),
the dimension went from 330 to 178 ms in-process (medians of 6 alternating
runs, 2 shared cores); the sparse sweep's dimension and χ (rows of 4 to 32
words) went from 102 to 76 ms, from the gathers.  Tried and measured slower,
so not kept: taking a child's id from its sibling's child list (ι +17 %, as
the rank lookups cost more than the rows they save); a numpy open-addressing
index in place of the sorted keys (+70 %); column loops on wide rows (sparse
+30 %); unpacking every word of a two-word row (+8 %); and int64 partial sums
in the value pass (+9 %).

The closure stops at four vertices.  There the degree multiset fixes the
graph up to isomorphism, so `_SMALL_GRAPHS` keys each of the 18 graphs on 1-4
vertices by its degree code Σ_{v∈T} 8^deg_T(v) and holds its dimension and
clique counts.  A subset of at most four vertices is valued from there, by a
vectorised degree code; it counts as one evaluated subset, and only the root
is split at that size.  Five vertices would not do: P5 and K3 + K2 share the
degrees 2, 2, 2, 1, 1 but not the dimension.  The 18 values, held at a
closure's scales, are built once per scales (and per t for the clique
polynomial) and shared read-only.

The budget does not depend on the order of the search.  The closure is the
set the depth-first recursion visits: the root and, below each split subset,
its children, where a subset is split if it is the root or has more than
four vertices.  Membership in that set is a property of the subset, not of
the order it is found in, so `spent`, the distinct subsets a call stores,
equals the recursion's count, and a call raises exactly when that count
exceeds its budget, with the same exception and message.  A call that raises
stores nothing.

Memory is bounded with the count.  A call reads the adjacency rows, its one
row set of 8nW bytes; stores at most `budget` rows of 8W bytes, grown in
place by a quarter at a time; keeps one 8-byte child id per member of each
subset it splits (at most `budget` subsets of at most Δ members, and the
root's n); and holds a few `_CHUNK_BYTES` of child rows, their sort and their
leaves' degree codes per slice.  So a call past its budget stops in bounded
memory.

The dimension runs it on the adjacency rows, where rows[v] & S is the sphere
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

The clique counts run it on the same rows, each child S ∩ rows[v] cut by
`_below` to N(v) ∩ S_{<v}.  A nonempty clique of S is its top vertex v
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
its tables and means.  The action's sum is a `math.fsum`, rounded once in any
order, so no relabelling moves its last bits.  The per-vertex functions check
the vertex id with `graph.vertex_set` first.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional

import numpy as np

from .errors import (CliqueBudgetExceeded, EstimatorUndefined, InvalidParam,
                     RecursionBudgetExceeded)
from .generators import _well_typed
from .graph import distance_levels, neighbor_arrays, per_graph, vertex_set

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
_NARROW_WORDS = 2  # rows of at most this many words take the column kernels


def _vertex_row(n):
    """The row of all n vertices: bits 0..n−1 of ⌈n/64⌉ uint64 words."""
    bits = np.arange(64 * max(1, -(-n // 64))) < n
    return np.packbits(bits, bitorder="little").view("<u8").astype(np.uint64)


@per_graph
def adjacency_rows(g):
    """rows[v] has bit u, in word u // 64 of ⌈n/64⌉ uint64 words, for each
    neighbor u of v; cached, read-only."""
    degrees, heads = neighbor_arrays(g)
    tails = np.repeat(np.arange(g.n), degrees)
    words = max(1, -(-g.n // 64))
    rows = np.zeros((g.n, words), dtype=np.uint64)
    at = tails * words + (heads >> 6)  # by tail, then head: each word's bits are consecutive
    starts = np.flatnonzero(np.diff(at, prepend=-1))
    bits = np.uint64(1) << (heads & 63).astype(np.uint64)
    rows.ravel()[at[starts]] = np.bitwise_or.reduceat(bits, starts) if len(bits) else 0
    rows.flags.writeable = False
    return rows


def _below(rows, v):
    """Cut each row i of the C-contiguous `rows` to its members below v[i], in
    place: the words after v[i]'s are zeroed, and its own is masked with
    2^(v[i] mod 64) − 1."""
    word = v >> 6
    rows *= np.arange(rows.shape[1]) <= word[:, None]
    low = (np.uint64(1) << (v & 63).astype(np.uint64)) - np.uint64(1)
    rows.ravel()[word + rows.shape[1] * np.arange(len(rows))] &= low


def _sizes(rows):
    """The vertices of each row."""
    if rows.shape[1] > _NARROW_WORDS:
        return np.bitwise_count(rows).sum(axis=1, dtype=np.intp)
    sizes = np.bitwise_count(rows[:, 0]).astype(np.intp)
    for column in range(1, rows.shape[1]):
        sizes += np.bitwise_count(rows[:, column])
    return sizes


def _bits(words):
    """The flat indices of the set bits of the uint64 array `words`, bit 0 of
    word 0 first."""
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.flatnonzero(np.unpackbits(octets, bitorder="little").view(bool))


def _members(rows):
    """(r, v) for every vertex v of every row r, by row and then by vertex.
    One-word rows are unpacked whole; wider ones only their nonzero words,
    whose row and column a two-word row finds by shifts."""
    words = rows.shape[1]
    narrow = words <= _NARROW_WORDS
    if narrow and words == 1:
        bits = _bits(rows)
        return bits >> 6, bits & 63
    at = np.flatnonzero(rows)
    bits = _bits(rows.ravel()[at])
    at = at[bits >> 6]
    r, w = (at >> 1, at & 1) if narrow and words == 2 else np.divmod(at, words)
    return r, 64 * w + (bits & 63)


_EIGHTS = 8.0 ** np.arange(_TABLE_SIZE)  # 8^deg, exact, for the degrees in a leaf


def _degree_codes(rows, full):
    """Σ_{v∈T} 8^deg_T(v) for each row T of at most four vertices, deg_T taken
    in the subgraph T induces; `full` holds the adjacency rows.  The sums are
    exact in float64."""
    r, v = _members(rows)
    if rows.shape[1] <= _NARROW_WORDS:
        degrees = np.bitwise_count(full[:, 0][v] & rows[:, 0][r])
        for column in range(1, rows.shape[1]):
            degrees += np.bitwise_count(full[:, column][v] & rows[:, column][r])
    else:
        degrees = np.bitwise_count(full.take(v, axis=0) & rows.take(r, axis=0)).sum(axis=1)
    return np.bincount(r, _EIGHTS[degrees], len(rows)).astype(np.int64)


_SALT = np.uint64(0x9E3779B97F4A7C15)  # word c of a row is salted by c times this


def _splitmix(z):
    """The splitmix64 finalizer, in place on the uint64 array z."""
    shifted = np.right_shift(z, np.uint64(30))
    z ^= shifted
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def _hash_keys(rows):
    """Σ splitmix64(word + salt of its column) over the nonzero words of each
    nonempty row, mod 2^64."""
    words = rows.shape[1]
    salt = np.arange(words, dtype=np.uint64) * _SALT
    if words <= _NARROW_WORDS:
        keys = np.zeros(len(rows), dtype=np.uint64)
        z = np.empty(len(rows), dtype=np.uint64)
        for column in range(words):
            word = rows[:, column]
            _splitmix(np.add(word, salt[column], out=z))
            z *= word != 0
            keys += z
        return keys
    at = np.flatnonzero(rows)
    row, column = np.divmod(at, words)
    z = _splitmix(rows.ravel()[at] + salt[column])
    return np.add.reduceat(z, np.flatnonzero(np.diff(row, prepend=-1)))  # mod 2^64


def _int_or_fraction(x):
    return x.numerator if x.denominator == 1 else x


def _merged(old, kept, new, spots):
    """One array holding `old` at `kept` and `new` at `spots`: np.insert, with
    the places found once for the index's keys and ids."""
    out = np.empty(len(kept), dtype=old.dtype)
    out[kept] = old
    out[spots] = new
    return out


def _put(small, big, i, size, x, scales):
    """Hold the value x of a subset of `size` vertices at i, as `_Closure` does
    at scales = (top, small_scale, scale)."""
    top, small_scale, scale = scales
    if size <= top:
        small[i] = int(small_scale * x)
    else:
        big[i] = _int_or_fraction(scale * x)


def _leaf_tables(values, scales):
    """The tables (int64, object) of the values (degree code -> x) of the
    graphs on 1-4 vertices, held as `_put` holds them; read-only, since the
    closures of one scale share them."""
    small = np.zeros(max(_SMALL_GRAPHS) + 1, dtype=np.int64)
    big = np.zeros(max(_SMALL_GRAPHS) + 1, dtype=object)
    for code, x in values.items():
        _put(small, big, code, _SMALL_GRAPHS[code][1][0], x, scales)
    small.flags.writeable = big.flags.writeable = False
    return small, big


class _Closure:
    """The subsets one recursion visits, one root a call, and their values
    (see the module docstring): value(S) = close(|S|, Σ_{v∈S} value(S ∩
    step[v])), step[v] the adjacency row of v, or with `lower` its neighbours
    below v.  A subset of at most len(seeds) − 1 vertices is a seed, with its
    size as id; the others get ids in the order they are found, and one of at
    most four vertices is valued from `leaves`, the pair of tables of
    `_leaf_tables`.  With scales = (top, small_scale, scale), a value x is held
    as small_scale·x in int64 for a subset of at most `top` vertices, else as
    scale·x, a Python int or Fraction.  A call charges `spent` with the subsets
    it stores; one past `budget` raises `exceeded` and stores nothing."""

    def __init__(self, g, lower, seeds, scales, leaves, budget, exceeded, unit):
        self.full = adjacency_rows(g)
        self.words = words = self.full.shape[1]
        self.lower = lower
        self.seeded = len(seeds) - 1
        self.top, self.small_scale, self.scale = top, small_scale, scale = scales
        self.ratio = scale // small_scale
        self.budget, self.exceeded, self.unit = budget, exceeded, unit
        self.hashed = words > 1  # rows are keyed by a hash of their words until two collide
        self.small_leaves, self.big_leaves = leaves
        self.count = len(seeds)
        self.rows = np.zeros((1024, words), dtype=np.uint64)  # by id, as are the values
        self.small = np.zeros(1024, dtype=np.int64)
        self.big = np.zeros(1024, dtype=object)
        for size, x in enumerate(seeds):
            _put(self.small, self.big, size, size, x, scales)
        self.keys = np.zeros(0, dtype=np.uint64)  # the stored subsets' keys, ascending
        self.ids = np.zeros(0, dtype=np.intp)  # and their ids, in the same order
        self.spent = 0

    def value(self, root):
        """scale·x for the subset in the row `root`."""
        known = self.count
        size = int(np.bitwise_count(root).sum())
        try:
            i = self._visit(root, size)
        except self.exceeded:
            # forget its subsets and values: a later call reuses the ids from zero
            keep = self.ids < known
            self.keys, self.ids, self.count = self.keys[keep], self.ids[keep], known
            self.small[known:] = 0
            self.big[known:] = 0
            raise
        return int(self.small[i]) * self.ratio if size <= self.top else self.big[i]

    def _visit(self, root, size):
        """Store the subsets the row `root` (of `size` vertices) reaches that
        are not stored yet, splitting each new one once, then value the split
        ones from the smallest up; return the root's id."""
        self.spent = 0
        self.limit = self.count + self.budget  # the most ids this call can reach
        if size <= self.seeded:
            return size  # a seed's id is its size
        known = self.count
        frontier = []  # (ids, sizes) stored and not yet split
        split = []     # (ids, sizes, child ids in row order) of the subsets split
        sizes = np.array([size], dtype=np.intp)
        (root,) = self._identify(root[None], sizes, frontier).tolist()
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
        vertices), `per` members (_CHUNK_BYTES of child rows) at a time."""
        ends = np.cumsum(sizes)
        per = max(1, _CHUNK_BYTES // (8 * self.words))
        start = 0
        while start < len(ids):
            stop = max(start + 1, int(np.searchsorted(ends, ends[start] - sizes[start] + per,
                                                      side="right")))
            part = self.rows.take(ids[start:stop], axis=0)
            r, v = _members(part)
            child_ids = []
            for at in range(0, len(r), per):
                rows = part.take(r[at:at + per], axis=0) & self.full.take(v[at:at + per], axis=0)
                if self.lower:
                    _below(rows, v[at:at + per])
                child_ids.append(self._children(rows, frontier))
            split.append((ids[start:stop], sizes[start:stop], np.concatenate(child_ids)))
            start = stop

    def _children(self, rows, frontier):
        """The ids of the child rows `rows`; a seed's id is its size."""
        ids = _sizes(rows)
        stored = ids > self.seeded
        if stored.all():
            ids = self._identify(rows, ids, frontier)
        elif stored.any():
            ids[stored] = self._identify(rows.compress(stored, axis=0), ids[stored], frontier)
        return ids

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
        unique = rows.take(order, axis=0)  # one row of each key
        at = np.searchsorted(self.keys, keys)
        hit = at < len(self.keys)
        hit[hit] = self.keys[at[hit]] == keys[hit]
        if self.hashed and ((unique.take(inverse, axis=0) != rows).any()
                            or (self.rows.take(self.ids[at[hit]], axis=0)
                                != unique.compress(hit, axis=0)).any()):
            self.hashed = False  # two rows share a hash: key them by their words from now on
            self.keys = self._keys(self.rows.take(self.ids, axis=0))
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
            spots = at[new] + np.arange(fresh)  # the new keys' places in the grown index
            kept = np.ones(len(self.keys) + fresh, dtype=bool)
            kept[spots] = False
            self.keys = _merged(self.keys, kept, keys[new], spots)
            self.ids = _merged(self.ids, kept, ids[new], spots)
            self._grow(self.count + fresh)
            ids_new, sizes = ids[new], sizes[order[new]]
            unique = self.rows[self.count:self.count + fresh] = unique.compress(new, axis=0)
            self.count += fresh
            leaf = sizes <= _TABLE_SIZE
            if leaf.any():
                codes = _degree_codes(unique.compress(leaf, axis=0), self.full)
                small = sizes[leaf] <= self.top
                self.small[ids_new[leaf][small]] = self.small_leaves[codes[small]]
                self.big[ids_new[leaf][~small]] = self.big_leaves[codes[~small]]
            frontier.append((ids_new[~leaf], sizes[~leaf]))
        return ids[inverse]

    def _grow(self, count):
        if count > len(self.small):
            # by a quarter, in place: few rows stand empty, old and new are never both held
            size = max(count, min(len(self.small) + len(self.small) // 4, self.limit))
            self.rows.resize((size, self.words), refcheck=False)
            self.small.resize(size, refcheck=False)
            self.big.resize(size, refcheck=False)  # new entries hold the int 0

    def _keys(self, rows):
        if self.words == 1:
            return rows[:, 0]
        if self.hashed:
            return _hash_keys(rows)
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


@functools.lru_cache(maxsize=128)
def _clique_leaves(t, scales):
    """The leaves' F(t), built once per (t, scales)."""
    return _leaf_tables({code: 1 + sum(c * t ** k for k, c in enumerate(counts, 1))
                         for code, (_, counts) in _SMALL_GRAPHS.items()}, scales)


class _CliqueClosure(_Closure):
    """F_S(t) = Σ_j c_j t^j, c_j the complete subgraphs on j vertices of S
    (c_0 = 1), at the integer t, by the closure with `lower`.  Values of
    subsets of at most `top` vertices are int64; raises CliqueBudgetExceeded
    past `budget` distinct subsets of two or more vertices."""

    def __init__(self, g, t, top, budget):
        scales = (top, 1, 1)
        super().__init__(g, True, (1, 1 + t), scales, _clique_leaves(t, scales), budget,
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
    packed = _CliqueClosure(g, 1 << width, -1, budget).value(_vertex_row(g.n))  # no int64 level
    digit = (1 << width) - 1
    return SimplexCounts(packed >> k & digit for k in range(width, packed.bit_length(), width))


def euler_characteristic(g, budget=CLIQUE_BUDGET):
    """Alternating sum of the complete-subgraph counts, 1 − F(−1); raises
    CliqueBudgetExceeded where simplex_counts(g, budget) would."""
    return 1 - _CliqueClosure(g, -1, _CHI_TOP, budget).value(_vertex_row(g.n))


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
    return _DimensionClosure(g, budget).dimension(_vertex_row(g.n))


def vertex_dimension(g, x, budget=DIMENSION_BUDGET):
    """1 + dimension of the unit sphere at x."""
    (x,) = vertex_set(g, (x,))
    return 1 + _DimensionClosure(g, budget).dimension(adjacency_rows(g)[x])


def vertex_dimensions(g, budget=DIMENSION_BUDGET):
    """vertex_dimension(g, x, budget) for every vertex x, from one closure:
    each sphere, in vertex order, is charged only the subsets it adds, never
    more than its separate call, so each vertex fits or raises as it alone would."""
    closure = _DimensionClosure(g, budget)
    return tuple(1 + closure.dimension(row) for row in closure.full)


@functools.lru_cache(maxsize=128)
def _dimension_leaves(scales):
    """The leaves' dimensions, built once per scales; Δ fixes the scales, and
    past Δ = 64 they stay the same."""
    return _leaf_tables({code: dim for code, (dim, _) in _SMALL_GRAPHS.items()}, scales)


class _DimensionClosure(_Closure):
    """Dimensions of the induced subgraphs of one graph, by the closure on the
    adjacency rows.

    A subset S of at most top = min(Δ, 18) vertices holds (top!)·dim(S) in
    int64, a larger one scale·dim(S) with scale = min(Δ, 64)!: an int
    whenever |S| <= min(Δ, 64), else an int or a Fraction (see the module
    docstring).  Each call evaluates at most `budget` distinct nonempty
    subsets not already stored; the next raises RecursionBudgetExceeded.
    """

    def __init__(self, g, budget):
        degree = max(map(len, g.adj), default=0)
        top = min(degree, _INT64_CAP)
        scales = (top, factorial(top), factorial(min(degree, _SCALE_CAP)))
        super().__init__(g, False, (-1,), scales, _dimension_leaves(scales), budget,
                         RecursionBudgetExceeded, "dimension")

    def dimension(self, root):
        """Dimension of the subgraph induced on the row `root`, as a Fraction."""
        return Fraction(self.value(root)) / self.scale

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
        action=math.fsum(admissible) / len(admissible) if admissible else None,
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
