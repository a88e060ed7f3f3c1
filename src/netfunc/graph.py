"""Immutable finite simple graphs and their metric primitives.

Vertices are dense integer ids 0..n-1.  Adjacency is stored as sorted tuples
(deterministic iteration) plus frozensets (O(1) membership), and on demand as
Python-int bitmasks (`adjacency_masks`), on which the clique walks run:
`simplex_counts` here and the dimension walk in `topology`.  Graphs never
mutate after construction, so every operation here is a pure function that
can be called concurrently.
"""

from collections import deque
from operator import index
from typing import NamedTuple

from .errors import (CliqueBudgetExceeded, InvalidParam, LoopEdge, ParseError,
                     VertexOutOfRange)

UNREACHABLE = -1


class Graph:
    """Finite simple graph: no loops, no multi-edges, undirected.

    `adj[u]` lists the neighbors of u.  The lists must describe a simple
    undirected graph on 0..n-1; anything else raises VertexOutOfRange,
    LoopEdge or InvalidParam (wrong length, non-integer ids, repeated or
    one-way neighbors).
    """

    __slots__ = ("n", "adj", "adj_sets", "m", "_dist", "_levels", "_masks", "_hash")

    def __init__(self, n, adj):
        self.n = n
        try:  # numpy integers become ints, so the bitmask shifts stay exact
            self.adj = tuple(tuple(sorted(map(index, neighbors))) for neighbors in adj)
        except TypeError:
            raise InvalidParam("adjacency lists must hold integer vertex ids") from None
        self.adj_sets = tuple(frozenset(x) for x in self.adj)
        self.m = sum(len(x) for x in self.adj) // 2
        self._dist = None
        self._levels = None
        self._masks = None
        self._hash = None
        self._validate()

    def _validate(self):
        if len(self.adj) != self.n:
            raise InvalidParam(f"{len(self.adj)} adjacency lists for {self.n} vertices")
        adj_sets = self.adj_sets
        for u, neighbors in enumerate(self.adj):
            if not neighbors:
                continue
            if neighbors[0] < 0 or neighbors[-1] >= self.n:
                raise VertexOutOfRange(f"neighbor of {u} outside 0..{self.n - 1}")
            if u in adj_sets[u]:
                raise LoopEdge(f"self-loop at vertex {u}")
            if len(adj_sets[u]) != len(neighbors):
                raise InvalidParam(f"repeated neighbor of vertex {u}")
            for v in neighbors:
                if u not in adj_sets[v]:
                    raise InvalidParam(f"{v} is a neighbor of {u} but not {u} of {v}")

    def degree(self, x):
        return len(self.adj[x])

    def has_edge(self, u, v):
        return v in self.adj_sets[u]

    def edges(self):
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.adj))
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class Subgraph(NamedTuple):
    """An induced subgraph together with the map from its ids to the parent's."""

    graph: Graph
    vertices: tuple  # vertices[i] = id in the parent graph of local vertex i


class DistanceMatrix:
    """All-pairs hop distances; UNREACHABLE marks cross-component pairs."""

    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        self.n = n
        self.rows = rows

    def get(self, x, y):
        return self.rows[x][y]

    def row(self, x):
        return self.rows[x]

    def eccentricity(self, x):
        """Largest finite distance from x (UNREACHABLE entries ignored)."""
        return max((d for d in self.rows[x] if d != UNREACHABLE), default=0)

    def diameter(self):
        return max(self.eccentricity(x) for x in range(self.n)) if self.n else 0


def from_edge_list(n, edges):
    """Build a graph on n vertices from (u, v) pairs.

    Duplicate and reversed pairs collapse to a single edge.  Raises LoopEdge
    on u == v and VertexOutOfRange on ids outside 0..n-1.
    """
    if n < 0:
        raise VertexOutOfRange("negative vertex count")
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, adj)


def _bfs_row(g, source):
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        dx = dist[x]
        for y in g.adj[x]:
            if dist[y] == UNREACHABLE:
                dist[y] = dx + 1
                queue.append(y)
    return dist


def all_pairs_distances(g):
    """BFS-exact hop distances; cached on the graph after the first call."""
    if g._dist is None:
        g._dist = DistanceMatrix(g.n, tuple(tuple(_bfs_row(g, s)) for s in range(g.n)))
    return g._dist


def distance_levels(g):
    """levels[x][k] = number of vertices at hop distance k from x; cached.

    levels[x][0] == 1 and sum(levels[x]) is the size of x's component.  All
    sources advance together on Python-int bitsets (multi-source BFS, Then et
    al., PVLDB 8(4), 2014): bit s of reach[v] is set once d(s, v) <= k, and
    reach_k[v] = reach_{k-1}[v] | OR of reach_{k-1}[u] over neighbors u of v.
    By symmetry reach[v] is also the ball of radius k around v, so the growth
    of its popcount is v's level count.  A vertex whose ball stops growing
    has covered its component and leaves the active list.
    """
    if g._levels is None:
        adj = g.adj
        reach = [1 << v for v in range(g.n)]
        size = [1] * g.n
        levels = [[1] for _ in range(g.n)]
        active = [v for v in range(g.n) if adj[v]]
        while active:
            grown = []
            for v in active:
                r = reach[v]
                for u in adj[v]:
                    r |= reach[u]
                grown.append(r)
            still = []
            for v, r in zip(active, grown):
                reach[v] = r
                count = r.bit_count()
                if count > size[v]:
                    levels[v].append(count - size[v])
                    size[v] = count
                    still.append(v)
            active = still
        g._levels = tuple(tuple(row) for row in levels)
    return g._levels


def adjacency_masks(g):
    """masks[v] has bit u set iff u is a neighbor of v; cached on the graph."""
    if g._masks is None:
        masks = []
        for neighbors in g.adj:
            mask = 0
            for u in neighbors:
                mask |= 1 << u
            masks.append(mask)
        g._masks = tuple(masks)
    return g._masks


def connected_components(g):
    """Partition the vertex set by reachability; components sorted by least vertex."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in g.adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    queue.append(y)
        comps.append(sorted(comp))
    return comps


def is_connected(g):
    return g.n <= 1 or len(connected_components(g)) == 1


def induced_subgraph(g, vertices):
    """Relabeled subgraph on `vertices`, keeping only edges inside the set."""
    verts = sorted(vertices)
    index = {v: i for i, v in enumerate(verts)}
    adj = [[index[w] for w in g.adj[v] if w in index] for v in verts]
    return Subgraph(Graph(len(verts), adj), tuple(verts))


def sphere(g, x):
    """Induced subgraph on the neighbors of x (the unit sphere at x)."""
    return induced_subgraph(g, g.adj[x])


def ball(g, x):
    """Induced subgraph on {x} and its neighbors (the closed unit ball at x)."""
    return induced_subgraph(g, (x,) + g.adj[x])


class SimplexCounts:
    """counts[k] = number of complete subgraphs on k+1 vertices."""

    __slots__ = ("counts",)

    def __init__(self, counts):
        self.counts = tuple(counts)

    def __getitem__(self, k):
        return self.counts[k]

    def __len__(self):
        return len(self.counts)

    def __eq__(self, other):
        other_counts = other.counts if isinstance(other, SimplexCounts) else tuple(other)
        return self.counts == other_counts

    def __repr__(self):
        return f"SimplexCounts{self.counts}"


def simplex_counts(g, budget=100_000_000):
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


# Edge-list text format: '#' comment lines, then "n <count>", then "u v" lines.

def write_edge_list(g, path, header_comments=()):
    """Write the canonical edge-list file: edges u < v, lexicographic order."""
    with open(path, "w") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        fh.write(f"n {g.n}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def read_edge_list(path):
    """Parse an edge-list file; raises ParseError with the offending line number."""
    n = None
    edges = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
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
    return from_edge_list(n, edges)
