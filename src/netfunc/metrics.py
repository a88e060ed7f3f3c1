"""Distance-based functionals.

Everything derived from hop distances is computed as an exact Fraction, so
identities and bounds downstream are equality checks rather than tolerance
checks.  Only the similarity magnitude and the cluster-length ratio are
floating point.

Each local quantity is computed once per graph, by one function, and kept on
the graph by `graph.per_graph`: `_neighbor_edges` holds the edge count among
each vertex's neighbors, `_cluster_coefficients` C(x) from it, and
`_distance_totals` the total distance from each vertex.  Every other function
reads these tables.  μ (`characteristic_length`) and ν (`mean_cluster`) are
cached too, so the cluster-length ratio reads them.  The public per-vertex
functions check the vertex id with `graph.vertex_set` before reading a table.

The edges among the neighbours of x are the triangles through x, and
`_neighbor_edges` counts them over degree-ordered forward neighbours (Chiba
and Nishizeki, SIAM J. Comput. 14, 1985).  The vertices are ordered by
(degree, id), and each edge is kept from its lower end to its higher, so a
vertex's forward list holds at most √(2m) vertices.  For each pair u < w of
x's forward list, w ∈ forward(u) is tested by one `searchsorted` over the
sorted tail·n + head keys of the forward edges, and each hit adds one to x, u
and w.  A triangle is found once, from its lowest vertex.  That tests
O(m^1.5) pairs, at most `_PAIR_CHUNK` at a time, and none at a hub: a star's
leaves hold only the hub in their forward lists, and the hub holds none, where
testing every neighbour pair would take C(deg, 2) lookups.  It reads
`graph.neighbor_arrays`, not the n² adjacency rows.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import Disconnected, SingularZ, TooSmall, UndefinedRatio
from .graph import (_ball_walk, all_pairs_distances, connected_components,
                    distance_levels, is_connected, neighbor_arrays, per_graph, vertex_set)
from .topology import DIMENSION_BUDGET, curvature_summary, vertex_dimensions


@per_graph
def _distance_totals(g):
    """totals[x] = sum of the hop distances from x to the vertices it reaches; cached."""
    return tuple(sum(k * c for k, c in enumerate(counts)) for counts in distance_levels(g))


_PAIR_CHUNK = 1 << 18  # the most neighbour pairs `_neighbor_edges` tests at once


@per_graph
def _neighbor_edges(g):
    """edges[x] = the number of edges among the neighbors of x, that is of
    triangles through x; cached.  Each triangle is found once, from its
    lowest vertex in (degree, id) order (see the module docstring)."""
    n = g.n
    degrees, heads = neighbor_arrays(g)
    rank = np.empty(n, dtype=np.int64)  # each vertex's place in (degree, id) order
    rank[np.argsort(degrees, kind="stable")] = np.arange(n)
    tails, heads = rank[np.repeat(np.arange(n), degrees)], rank[heads]
    forward = tails < heads
    keys = np.sort(tails[forward] * n + heads[forward])  # by tail, then head, as ranks
    tails, heads = np.divmod(keys, max(n, 1))
    # forward edge e pairs with the edges after it in its tail's list
    partners = np.searchsorted(tails, tails, side="right") - np.arange(1, len(tails) + 1)
    ends = np.cumsum(partners)
    counts = np.zeros(n, dtype=np.int64)
    start = 0
    while start < len(tails):
        done = ends[start] - partners[start]  # the pairs of the chunks before
        stop = max(start + 1, int(np.searchsorted(ends, done + _PAIR_CHUNK, side="right")))
        pairs = partners[start:stop]
        first = np.repeat(np.arange(start, stop), pairs)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(pairs) - pairs, pairs)
        wanted = heads[first] * n + heads[second]
        at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        hit = keys[at] == wanted
        counts += np.bincount(np.concatenate([tails[first[hit]], heads[first[hit]],
                                              heads[second[hit]]]), minlength=n)
        start = stop
    return tuple(counts[rank].tolist())


@per_graph
def _cluster_coefficients(g):
    """C(x) for every vertex x: the fraction of realized edges among the
    neighbor pairs of x, 0 at degree <= 1; cached."""
    return tuple(Fraction(2 * e, d * (d - 1)) if d > 1 else Fraction(0)
                 for e, d in zip(_neighbor_edges(g), map(len, g.adj)))


@per_graph
def characteristic_length(g):
    """Mean hop distance over ordered pairs of distinct vertices; cached.

    A disconnected graph gets the unweighted mean of its per-component values;
    single-vertex components contribute 0.
    """
    comps = connected_components(g)
    if not comps:
        return Fraction(0)
    totals = _distance_totals(g)
    return sum((Fraction(sum(totals[x] for x in comp), len(comp) * (len(comp) - 1))
                for comp in comps if len(comp) > 1), Fraction(0)) / len(comps)


def local_mean_distance(g, x):
    """Mean distance from x to every other vertex (connected graphs, n >= 2)."""
    (x,) = vertex_set(g, (x,))
    if g.n < 2:
        raise TooSmall("need at least two vertices")
    if not is_connected(g):
        raise Disconnected("vertex cannot reach the whole graph")
    return Fraction(_distance_totals(g)[x], g.n - 1)


def relative_characteristic_length(g, subset):
    """Mean distance over ordered pairs inside `subset`, measured in g.

    Raises VertexOutOfRange on an id outside 0..n-1 and InvalidParam on a
    non-integer or repeated one (graph.vertex_set)."""
    verts = vertex_set(g, subset)
    k = len(verts)
    if k < 2:
        raise TooSmall("need at least two vertices in the subset")
    mask = sum(1 << v for v in verts)
    balls = {v: 1 << v for v in verts}
    total = 0
    for radius, (grew, spheres) in enumerate(_ball_walk(g), start=1):
        for v, s in zip(grew, spheres):
            if v in balls:
                balls[v] |= s
                total += radius * (s & mask).bit_count()
    for v in verts:
        missing = mask & ~balls[v]
        if missing:
            y = (missing & -missing).bit_length() - 1
            raise Disconnected(f"vertices {v} and {y} lie in different components")
    return Fraction(total, k * (k - 1))


def local_length(g, x):
    """Mean distance between distinct neighbors of x, measured inside the ball.

    Inside the ball two neighbors are 1 apart if adjacent and 2 apart through
    x otherwise, so L(x) = 2 - C(x).  Vertices of degree <= 1 have no
    neighbor pair; they take the value 2 by convention (flagged in
    LocalProfile), which is 2 - C(x) as well.
    """
    return 2 - local_cluster(g, x)


def local_cluster(g, x):
    """Fraction of realized edges among the neighbor pairs of x (0 if degree <= 1)."""
    (x,) = vertex_set(g, (x,))
    return _cluster_coefficients(g)[x]


@per_graph
def mean_cluster(g):
    """Vertex average of the local cluster coefficient; cached.  The neighbor
    edge counts are summed per degree first, so one Fraction per degree."""
    by_degree = Counter()
    for e, neighbors in zip(_neighbor_edges(g), g.adj):
        by_degree[len(neighbors)] += e
    total = sum((Fraction(2 * e, d * (d - 1)) for d, e in by_degree.items() if d > 1),
                Fraction(0))
    return total / g.n if g.n else total


def cluster_length_ratio(g):
    """length / log(1 / cluster) as a float; raises UndefinedRatio at cluster 0 or 1."""
    nu = mean_cluster(g)
    if nu == 0:
        raise UndefinedRatio("nu_zero")
    if nu == 1:
        raise UndefinedRatio("nu_one")
    return float(characteristic_length(g)) / math.log(1 / float(nu))


def wiener_index(g):
    """Total distance over ordered pairs (n(n-1) times the mean length)."""
    if not is_connected(g):
        raise Disconnected("wiener index needs a connected graph")
    return sum(_distance_totals(g))


def distance_variance(g):
    """Spread max_x d(x) - min_x d(x) of the per-vertex total distances."""
    if not is_connected(g):
        raise Disconnected("distance variance needs a connected graph")
    totals = _distance_totals(g)
    return max(totals) - min(totals) if totals else 0


def closeness_centrality(g, x):
    """Reciprocal of the total distance from x, (n - 1) times its mean distance."""
    return 1 / ((g.n - 1) * local_mean_distance(g, x))


def mean_centrality(g):
    """Vertex average of closeness centrality."""
    if g.n < 2 or not is_connected(g):
        raise Disconnected("mean centrality needs a connected graph on >= 2 vertices")
    return sum(Fraction(1, t) for t in _distance_totals(g)) / g.n


def magnitude(g):
    """Total weight 1^T Z^-1 1 of the similarity matrix Z_ij = exp(-d(i,j)),
    as sum_i (1^T v_i)^2 / lam_i over the eigenpairs (lam_i, v_i) of Z.

    det Z is an integer polynomial in q = 1/e with constant term 1 and e is
    transcendental, so Z is never exactly singular: SingularZ only flags
    numerical trouble, min |lam| < 1e-12 max |lam|.
    """
    if not is_connected(g):
        raise Disconnected("magnitude needs finite distances")
    if g.n == 0:
        return 0.0
    z = np.exp(-all_pairs_distances(g))
    lam, vec = np.linalg.eigh(z)
    size = np.abs(lam)
    if size.min() < 1e-12 * size.max():
        raise SingularZ(f"eigenvalue {size.min()!r} below 1e-12 of {size.max()!r}")
    return float((vec.sum(axis=0) ** 2 / lam).sum())


@dataclass
class VertexProfile:
    """Per-vertex record of the local quantities."""

    vertex: int
    degree: int
    cluster: Fraction                      # C(x)
    length: Fraction                       # L(x), 2 by convention at degree <= 1
    low_degree: bool                       # True when the length-2 convention applied
    mean_distance: Optional[Fraction]      # D(x), None when disconnected
    centrality: Optional[Fraction]         # f(x), None when disconnected
    curvature: Optional[float]             # s(x), None when no distance-2 vertices
    dimension: Fraction                    # 1 + dimension of the unit sphere


def local_profile(g, dimension_budget=DIMENSION_BUDGET):
    """One VertexProfile per vertex; distance fields are None on disconnected graphs.
    Each vertex's dimension is charged to `dimension_budget` (`vertex_dimensions`)."""
    connected = is_connected(g) and g.n >= 2
    clusters = _cluster_coefficients(g)
    totals = _distance_totals(g)
    curvatures = curvature_summary(g).curvatures
    dimensions = vertex_dimensions(g, dimension_budget)
    return tuple(VertexProfile(
        vertex=x,
        degree=len(g.adj[x]),
        cluster=clusters[x],
        length=2 - clusters[x],
        low_degree=len(g.adj[x]) <= 1,
        mean_distance=Fraction(totals[x], g.n - 1) if connected else None,
        centrality=Fraction(1, totals[x]) if connected else None,
        curvature=curvatures[x],
        dimension=dimensions[x],
    ) for x in range(g.n))
