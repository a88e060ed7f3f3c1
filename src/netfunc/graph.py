"""Immutable finite simple graphs, their distance walks and edge-list I/O.

Vertices are dense integer ids 0..n-1.  The adjacency is stored once, as
sorted tuples (deterministic iteration, membership by bisection), and read in
two numpy layouts built from them: `neighbor_arrays` (compressed sparse rows,
cached), from which `spectral` builds the Laplacian, the audit its BFS trees,
`metrics` its triangle counts and this module the bit rows, and
`adjacency_rows`, ⌈n/64⌉ uint64 words per vertex, the one bit layout, on which
`topology` runs its clique complex and `combinatorial` its exact searches.
Hop distances come from one bit-parallel walk that grows every vertex's ball a
hop per round, read through two views: `distance_levels` (cached level
counts) and `all_pairs_distances` (the full numpy matrix); `metrics` sums
distances inside a vertex subset straight from the walk.  One single-source
BFS, `_bfs_parents`, serves the components here, the audit's tree Wiener
index and arboricity's forest paths.  Graphs never mutate after construction,
so every operation here is a pure function that can be called concurrently,
and `per_graph` keeps a value computed from the graph alone on it: the level
counts, the neighbor and adjacency arrays, the Laplacian spectrum and the
component partition, which every connectivity guard in the package reads.
"""

import functools
import os
import sys
from bisect import bisect_left
from itertools import chain
from operator import index
from typing import NamedTuple

import numpy as np

from .errors import InvalidParam, LoopEdge, NetfuncError, ParseError, VertexOutOfRange

UNREACHABLE = -1

# A vertex holds at least its empty adjacency set and that set's list slot
# (224 bytes on 64-bit CPython); from_edge_list(10**6, []) peaks near 364.
_VERTEX_BYTES = sys.getsizeof(set()) + 8


class Graph:
    """Finite simple graph: no loops, no multi-edges, undirected.

    `adj[u]` is the sorted tuple of u's neighbors, the one copy of the adjacency
    (`neighbor_arrays` caches it as numpy arrays).  Lists that are not a simple
    undirected graph on 0..n-1 raise VertexOutOfRange, LoopEdge or InvalidParam
    (non-integer n, wrong length, non-integer ids, repeated or one-way neighbors).
    """

    __slots__ = ("n", "adj", "m", "_cache")

    def __init__(self, n, adj):
        try:  # numpy integers become ints, so the bitmask shifts stay exact
            self.n = index(n)
            adj = list(adj)
            ids = list(range(min(self.n, len(adj))))  # a wrong count is refused by _validate
            self.adj = tuple(_shared(sorted(map(index, neighbors)), ids) for neighbors in adj)
        except TypeError:
            raise InvalidParam("the vertex count and the adjacency lists' vertex ids "
                               "must be integers") from None
        self.m = sum(len(x) for x in self.adj) // 2
        self._cache = {}  # per_graph's values, by function name
        self._validate()

    def _validate(self):
        if len(self.adj) != self.n:
            raise InvalidParam(f"{len(self.adj)} adjacency lists for {self.n} vertices")
        inward = [[] for _ in self.adj]  # inward[v]: the u with v in adj[u], ascending
        for u, neighbors in enumerate(self.adj):
            if neighbors and (neighbors[0] < 0 or neighbors[-1] >= self.n):
                neighbors = [v for v in neighbors if 0 <= v < self.n]
            for v in neighbors:
                inward[v].append(u)
        for u, neighbors in enumerate(self.adj):
            if not neighbors:
                continue
            if neighbors[0] < 0 or neighbors[-1] >= self.n:
                raise VertexOutOfRange(f"neighbor of {u} outside 0..{self.n - 1}")
            if u in neighbors:
                raise LoopEdge(f"self-loop at vertex {u}")
            if len(set(neighbors)) != len(neighbors):
                raise InvalidParam(f"repeated neighbor of vertex {u}")
            if inward[u] != list(neighbors) and (lacking := set(neighbors).difference(inward[u])):
                v = min(lacking)  # the least v whose list lacks u
                raise InvalidParam(f"{v} is a neighbor of {u} but not {u} of {v}")

    def degree(self, x):
        (x,) = vertex_set(self, (x,))
        return len(self.adj[x])

    def has_edge(self, u, v):
        (u,), (v,) = vertex_set(self, (u,)), vertex_set(self, (v,))
        at = bisect_left(self.adj[u], v)
        return at < len(self.adj[u]) and self.adj[u][at] == v

    def edges(self):
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _shared(neighbors, ids):
    """The sorted ids `neighbors` as a tuple of the int objects in `ids`, so a
    graph holds one int per vertex rather than one per edge end (K_1100 as
    parsed: 172 → 108 MB); ids outside 0..n-1 stay as given, for `_validate`."""
    if neighbors and 0 <= neighbors[0] and neighbors[-1] < len(ids):
        return tuple(map(ids.__getitem__, neighbors))
    return tuple(neighbors)


def per_graph(compute):
    """Decorate compute(g) to run once per graph: the graph keeps the value,
    which every caller shares and so must be immutable, under the function's
    name, so graphs still pickle."""
    key = f"{compute.__module__}.{compute.__qualname__}"

    @functools.wraps(compute)
    def cached(g):
        if key not in g._cache:
            g._cache[key] = compute(g)
        return g._cache[key]
    return cached


class Subgraph(NamedTuple):
    """An induced subgraph together with the map from its ids to the parent's."""

    graph: Graph
    vertices: tuple  # vertices[i] = id in the parent graph of local vertex i


def from_edge_list(n, edges):
    """Build a graph on n vertices from (u, v) pairs.

    Duplicate and reversed pairs collapse to a single edge.  Raises
    InvalidParam when n is not an integer, LoopEdge on u == v,
    VertexOutOfRange on ids outside 0..n-1 and, before allocating, MemoryError
    when n vertices at _VERTEX_BYTES each outweigh physical memory.
    """
    try:
        n = index(n)
    except TypeError:
        raise InvalidParam(f"the vertex count must be an integer, not {n!r}") from None
    if n < 0:
        raise VertexOutOfRange("negative vertex count")
    if n * _VERTEX_BYTES > _physical_memory():
        raise MemoryError(f"vertex count {n} does not fit in memory")
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, adj)


def _physical_memory():
    """Bytes of physical memory; infinite where os.sysconf cannot tell."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return float("inf")
    return memory if memory > 0 else float("inf")


def _ball_walk(g):
    """Grow every vertex's ball one hop per round, all sources together.

    One Python-int bitset per vertex (multi-source BFS, Then et al., PVLDB
    8(4), 2014): bit s of reach[v] is set once d(s, v) <= k, and reach_k[v] =
    reach_{k-1}[v] | OR of reach_{k-1}[u] over neighbors u of v.  By symmetry
    reach[v] is also the ball of radius k around v.  Round k yields the
    vertices whose ball grew and, for each, its sphere of radius k,
    reach_k & ~reach_{k-1}.  A vertex whose ball stops growing has covered its
    component and leaves the walk.

    Round k reads reach_{k-1} and writes reach_k into a second buffer, then
    the two swap.  A vertex leaves on a round in which its ball did not grow,
    so both buffers end up holding its final ball.
    """
    adj = g.adj
    reach = [1 << v for v in range(g.n)]
    grown = reach.copy()
    active = [v for v in range(g.n) if adj[v]]
    while active:
        still = []
        spheres = []
        for v in active:
            r = old = reach[v]
            for u in adj[v]:
                r |= reach[u]
            grown[v] = r
            if r != old:
                still.append(v)
                spheres.append(r ^ old)
        reach, grown = grown, reach
        if still:
            yield still, spheres
        active = still


@per_graph
def distance_levels(g):
    """levels[x][k] = number of vertices at hop distance k from x; cached.

    levels[x][0] == 1 and sum(levels[x]) is the size of x's component.
    """
    levels = [[1] for _ in range(g.n)]
    for grew, spheres in _ball_walk(g):
        for v, s in zip(grew, spheres):
            levels[v].append(s.bit_count())
    return tuple(tuple(row) for row in levels)


def all_pairs_distances(g):
    """n x n numpy int matrix of hop distances, UNREACHABLE across components.

    Not cached: each call runs the walk again.  Round k packs the spheres of
    radius k into the rows of the vertices whose ball grew, unpacks all n rows
    into one mask and sets its entries to k.
    """
    n = g.n
    dist = np.full((n, n), UNREACHABLE, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    width = (n + 7) // 8
    for k, (grew, spheres) in enumerate(_ball_walk(g), start=1):
        packed = np.zeros((n, width), dtype=np.uint8)
        packed[grew] = np.frombuffer(b"".join(s.to_bytes(width, "little") for s in spheres),
                                     dtype=np.uint8).reshape(len(grew), width)
        dist[np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)] = k
    return dist


@per_graph
def neighbor_arrays(g):
    """(degrees, neighbors) as read-only int64 numpy arrays, cached: the sorted neighbors of
    each vertex in turn, those of v from the sum of the degrees before v (compressed rows)."""
    degrees = np.fromiter(map(len, g.adj), dtype=np.int64, count=g.n)
    neighbors = np.fromiter(chain.from_iterable(g.adj), dtype=np.int64, count=2 * g.m)
    degrees.flags.writeable = neighbors.flags.writeable = False
    return degrees, neighbors


def _bit_rows(g, lower):
    """Row v has bit u, in word u // 64 of ⌈n/64⌉ uint64 words, for each
    neighbor u of v (with `lower`, each one below v)."""
    degrees, heads = neighbor_arrays(g)
    tails = np.repeat(np.arange(g.n), degrees)
    if lower:
        keep = heads < tails
        tails, heads = tails[keep], heads[keep]
    words = max(1, -(-g.n // 64))
    rows = np.zeros((g.n, words), dtype=np.uint64)
    at = tails * words + (heads >> 6)  # by tail, then head: each word's bits are consecutive
    starts = np.flatnonzero(np.diff(at, prepend=-1))
    bits = np.uint64(1) << (heads & 63).astype(np.uint64)
    rows.ravel()[at[starts]] = np.bitwise_or.reduceat(bits, starts) if len(bits) else 0
    return rows


@per_graph
def adjacency_rows(g):
    """rows[v] has bit u set iff u is a neighbor of v; cached, read-only."""
    rows = _bit_rows(g, False)
    rows.flags.writeable = False
    return rows


def lower_adjacency_rows(g):
    """adjacency_rows(g) keeping in row v only the neighbors below v; not cached."""
    return _bit_rows(g, True)


def _bfs_parents(adj, source):
    """BFS tree of the vertices reachable from `source`, as a dict from each
    vertex to its parent (the source's is None) whose keys run in BFS order.
    `adj[x]` lists the neighbors of x: a list indexed by vertex or a dict."""
    parent = {source: None}
    order = [source]
    for x in order:
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    return parent


@per_graph
def connected_components(g):
    """Partition of the vertex set by reachability, cached: a tuple of sorted
    vertex tuples, ordered by least vertex."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if not seen[s]:
            comp = tuple(sorted(_bfs_parents(g.adj, s)))
            for v in comp:
                seen[v] = True
            comps.append(comp)
    return tuple(comps)


def is_connected(g):
    """True when g has at most one component, so on 0 and 1 vertices too."""
    return len(connected_components(g)) <= 1


def vertex_set(g, vertices):
    """The ids in `vertices`, sorted, as a tuple; raises InvalidParam on a
    non-integer or repeated id and VertexOutOfRange on one outside 0..n-1."""
    try:
        verts = sorted(map(index, vertices))
    except TypeError:
        raise InvalidParam("vertex ids must be integers") from None
    if verts and (verts[0] < 0 or verts[-1] >= g.n):
        bad = verts[0] if verts[0] < 0 else verts[-1]
        raise VertexOutOfRange(f"vertex {bad} outside 0..{g.n - 1}")
    for u, v in zip(verts, verts[1:]):
        if u == v:
            raise InvalidParam(f"vertex {u} repeated")
    return tuple(verts)


def induced_subgraph(g, vertices):
    """Relabeled subgraph on `vertices`, keeping only edges inside the set."""
    verts = vertex_set(g, vertices)
    index = {v: i for i, v in enumerate(verts)}
    adj = [[index[w] for w in g.adj[v] if w in index] for v in verts]
    return Subgraph(Graph(len(verts), adj), verts)


def sphere(g, x):
    """Induced subgraph on the neighbors of x (the unit sphere at x)."""
    (x,) = vertex_set(g, (x,))
    return induced_subgraph(g, g.adj[x])


def ball(g, x):
    """Induced subgraph on {x} and its neighbors (the closed unit ball at x)."""
    (x,) = vertex_set(g, (x,))
    return induced_subgraph(g, (x,) + g.adj[x])


# Edge-list text format: UTF-8, '#' comment lines, then "n <count>", then "u v" lines.

def open_text(path, mode="r"):
    """Open a UTF-8 text file, reading bytes that are not UTF-8 as lone
    surrogates; an OS failure becomes a NetfuncError naming the path."""
    try:
        return open(path, mode, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        action = "read" if mode == "r" else "write"
        raise NetfuncError(f"cannot {action} {path}: {exc.strerror or exc}") from None


def write_edge_list(g, path, header_comments=()):
    """Write the canonical edge-list file: edges u < v, lexicographic order."""
    with open_text(path, "w") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        fh.write(f"n {g.n}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def read_edge_list(path):
    """Parse an edge-list file; raises ParseError with the offending line number."""
    n = None
    edges = []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line.isascii():
                try:  # undecodable bytes read as lone surrogates, which do not encode
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError("bytes that are not UTF-8 text", lineno) from None
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if n is None:
                if len(parts) != 2 or parts[0] != "n":
                    raise ParseError("expected header 'n <count>'", lineno)
                try:
                    n = int(parts[1])
                except ValueError:
                    raise ParseError(f"bad vertex count {parts[1]!r}", lineno) from None
                if n < 0:
                    raise ParseError("negative vertex count", lineno)
                header = lineno
                continue
            if len(parts) != 2:
                raise ParseError("expected 'u v'", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"non-integer edge {line!r}", lineno) from None
            if u == v:
                raise ParseError(f"self-loop {u} {v}", lineno)
            if not (0 <= u < n) or not (0 <= v < n):
                raise ParseError(f"vertex out of range in {line!r}", lineno)
            edges.append((u, v))
    if n is None:
        raise ParseError("missing 'n <count>' header", 1)
    try:
        return from_edge_list(n, edges)
    except MemoryError:
        raise ParseError(f"vertex count {n} does not fit in memory", header) from None
