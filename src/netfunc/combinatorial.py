"""Exact exponential invariants with hard vertex caps.

All searches are exact; when a graph exceeds the cap the caller gets a
SizeCapExceeded instead of an estimate, and report layers surface that as a
skip.  Python-int masks of the adjacency, built from `g.adj`, keep the
branch-and-bound tight up to the caps.
Arboricity's witness is certified by component counts: a set of edges on n
vertices is a forest iff it has n - c edges, c its number of components.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import ceil

from .errors import NoEdges, SizeCapExceeded
from .graph import _bfs_parents, connected_components, from_edge_list

INDEPENDENCE_CAP = 30
CHROMATIC_CAP = 20
ARBORICITY_CAP = 12


def _masks(g):
    """masks[v] has bit u set iff u is a neighbor of v."""
    return [sum(1 << u for u in neighbors) for neighbors in g.adj]


def _max_clique(masks, n):
    """Size of a maximum clique, branch-and-bound with a greedy coloring bound."""
    if n == 0:
        return 0
    best = 0

    def color_order(cand):
        """Greedy color classes over cand; returns (vertex, class index + 1)
        pairs in ascending class order.  The class index bounds any clique
        inside the remaining candidates."""
        classes = []
        c = cand
        while c:
            v = c.bit_length() - 1
            c &= ~(1 << v)
            for ci, cmask in enumerate(classes):
                if not (cmask & masks[v]):
                    classes[ci] = cmask | (1 << v)
                    break
            else:
                classes.append(1 << v)
        out = []
        for ci, cmask in enumerate(classes):
            while cmask:
                v = cmask.bit_length() - 1
                cmask &= ~(1 << v)
                out.append((v, ci + 1))
        return out

    def expand(cand, size):
        nonlocal best
        ordered = color_order(cand)
        for v, bound in reversed(ordered):
            if size + bound <= best:
                return  # bounds ascend, so every earlier vertex prunes too
            if size + 1 > best:
                best = size + 1
            nxt = cand & masks[v]
            if nxt:
                expand(nxt, size + 1)
            cand &= ~(1 << v)

    expand((1 << n) - 1, 0)
    return best


def independence_number(g, cap=INDEPENDENCE_CAP):
    """Largest pairwise non-adjacent vertex set, via max clique on the complement."""
    if g.n > cap:
        raise SizeCapExceeded(f"independence search capped at {cap} vertices")
    full = (1 << g.n) - 1
    masks = [full & ~(m | (1 << v)) for v, m in enumerate(_masks(g))]
    return _max_clique(masks, g.n)


def clique_number(g, cap=INDEPENDENCE_CAP):
    """Largest complete subgraph size (same search on the graph itself)."""
    if g.n > cap:
        raise SizeCapExceeded(f"clique search capped at {cap} vertices")
    return _max_clique(_masks(g), g.n)


def chromatic_number(g, cap=CHROMATIC_CAP):
    """Exact chromatic number by deepening k until a proper coloring exists."""
    if g.n > cap:
        raise SizeCapExceeded(f"chromatic search capped at {cap} vertices")
    n = g.n
    if n == 0:
        return 0
    if g.m == 0:
        return 1
    masks = _masks(g)
    # order vertices by degree (descending) so conflicts show early
    order = sorted(range(n), key=lambda v: -len(g.adj[v]))
    lower = clique_number(g, cap=cap)

    def colorable(k):
        members = [0] * k  # vertices carrying each color

        def assign(i, used):
            if i == n:
                return True
            v = order[i]
            # symmetry break: allow at most one fresh color beyond those in use
            for c in range(min(used + 1, k)):
                if not (members[c] & masks[v]):
                    members[c] |= 1 << v
                    if assign(i + 1, max(used, c + 1)):
                        return True
                    members[c] &= ~(1 << v)
            return False

        return assign(0, 0)

    k = lower
    while not colorable(k):
        k += 1
    return k


@dataclass
class ArboricityResult:
    """Minimum forest count plus an explicit witness partition of the edges."""

    value: int
    forests: tuple  # forests[i] = tuple of (u, v) edges forming a forest


def arboricity(g, cap=ARBORICITY_CAP):
    """Minimum number of forests covering every edge, with a witness.

    Edges are inserted greedily into k forests; when an edge fits nowhere, a
    breadth-first augmenting search over swap chains (move an edge of a
    blocking cycle to another forest) either makes room or proves that k
    forests cannot hold the edge set.  k starts at the density lower bound
    ceil(m / (n-1)) and grows until the insertion succeeds.
    """
    if g.n > cap:
        raise SizeCapExceeded(f"arboricity search capped at {cap} vertices")
    edges = list(g.edges())
    if not edges:
        return ArboricityResult(0, ())
    k = max(1, ceil(len(edges) / (g.n - 1)))
    while True:
        assignment = _partition_into_forests(g.n, edges, k)
        if assignment is not None:
            forests = [[] for _ in range(k)]
            for e, f in sorted(assignment.items()):
                forests[f].append(e)
            result = ArboricityResult(k, tuple(tuple(f) for f in forests))
            _certify_partition(g.n, edges, result.forests)
            return result
        k += 1


def _certify_partition(n, edges, forests):
    """Every returned witness is checked: each forest has n - c edges on the
    c components it leaves, so it has no cycle, and the forests cover E."""
    for forest in forests:
        if len(forest) != n - len(connected_components(from_edge_list(n, forest))):
            raise AssertionError("arboricity witness contains a cycle")
    if sorted(chain.from_iterable(forests)) != sorted(edges):
        raise AssertionError("arboricity witness does not cover the edge set")


def _partition_into_forests(n, edges, k):
    forests = [dict() for _ in range(k)]  # adjacency: vertex -> set of vertices

    def blocking_path(f, u, v):
        """Edges of the u-v path in forest f, or None when u, v are separated."""
        adj = forests[f]
        if u not in adj or v not in adj:
            return None
        parent = _bfs_parents(adj, u)
        if v not in parent:
            return None
        out = []
        while parent[v] is not None:
            out.append((min(parent[v], v), max(parent[v], v)))
            v = parent[v]
        return out

    def add(f, e):
        forests[f].setdefault(e[0], set()).add(e[1])
        forests[f].setdefault(e[1], set()).add(e[0])

    def remove(f, e):
        forests[f][e[0]].discard(e[1])
        forests[f][e[1]].discard(e[0])

    assignment = {}
    for e0 in edges:
        # BFS over edges needing a slot; meta[e] = (forest e left, edge that evicted it)
        meta = {e0: None}
        queue = deque([e0])
        final = None
        while queue and final is None:
            e = queue.popleft()
            for f in range(k):
                p = blocking_path(f, e[0], e[1])
                if p is None:
                    final = (e, f)
                    break
                for blocker in p:
                    if blocker not in meta:
                        meta[blocker] = (f, e)
                        queue.append(blocker)
        if final is None:
            return None
        e, f = final
        while True:
            info = meta[e]
            if info is None:
                add(f, e)
                assignment[e] = f
                break
            f_old, evictor = info
            remove(f_old, e)
            add(f, e)
            assignment[e] = f
            e, f = evictor, f_old
    return assignment


def scale_measure(g):
    """Total degree-product edge weight divided by the largest single weight."""
    weights = [len(g.adj[u]) * len(g.adj[v]) for u, v in g.edges()]
    if not weights:
        raise NoEdges("scale measure needs at least one edge")
    return Fraction(sum(weights), max(weights))
