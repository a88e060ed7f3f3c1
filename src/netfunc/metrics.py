"""Distance-based functionals.

Everything derived from hop distances is computed as an exact Fraction, so
identities and bounds downstream are equality checks rather than tolerance
checks.  Only the similarity magnitude and the cluster-length ratio are
floating point.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import Disconnected, SingularZ, TooSmall, UndefinedRatio
from .graph import (_ball_walk, all_pairs_distances, connected_components,
                    distance_levels, is_connected, vertex_set)


def characteristic_length(g):
    """Mean hop distance over ordered pairs of distinct vertices.

    A disconnected graph gets the unweighted mean of its per-component values;
    single-vertex components contribute 0.
    """
    comps = connected_components(g)
    if not comps:
        return Fraction(0)
    return sum(_component_length(g, comp) for comp in comps) / len(comps)


def _component_length(g, comp):
    k = len(comp)
    if k < 2:
        return Fraction(0)
    levels = distance_levels(g)
    return Fraction(sum(_distance_total(levels[x]) for x in comp), k * (k - 1))


def _distance_total(counts):
    """Total distance from a vertex, given its level counts."""
    return sum(k * c for k, c in enumerate(counts))


def _reaching_total(g, x):
    """Total distance from x; raises Disconnected unless x reaches every vertex."""
    if not is_connected(g):
        raise Disconnected("vertex cannot reach the whole graph")
    return _distance_total(distance_levels(g)[x])


def local_mean_distance(g, x):
    """Mean distance from x to every other vertex (connected graphs, n >= 2)."""
    if g.n < 2:
        raise TooSmall("need at least two vertices")
    return Fraction(_reaching_total(g, x), g.n - 1)


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
    neighbors = g.adj[x]
    d = len(neighbors)
    if d <= 1:
        return Fraction(0)
    e = 0
    for i, u in enumerate(neighbors):
        au = g.adj_sets[u]
        for v in neighbors[i + 1:]:
            if v in au:
                e += 1
    return Fraction(2 * e, d * (d - 1))


def mean_cluster(g):
    """Vertex average of the local cluster coefficient."""
    if g.n == 0:
        return Fraction(0)
    return sum(local_cluster(g, x) for x in range(g.n)) / g.n


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
    return sum(_distance_total(counts) for counts in distance_levels(g))


def distance_variance(g):
    """Spread max_x d(x) - min_x d(x) of the per-vertex total distances."""
    if not is_connected(g):
        raise Disconnected("distance variance needs a connected graph")
    if g.n == 0:
        return 0
    totals = [_distance_total(counts) for counts in distance_levels(g)]
    return max(totals) - min(totals)


def closeness_centrality(g, x):
    """Reciprocal of the total distance from x."""
    if g.n < 2:
        raise TooSmall("need at least two vertices")
    return Fraction(1, _reaching_total(g, x))


def mean_centrality(g):
    """Vertex average of closeness centrality."""
    if g.n < 2 or not is_connected(g):
        raise Disconnected("mean centrality needs a connected graph on >= 2 vertices")
    return sum(closeness_centrality(g, x) for x in range(g.n)) / g.n


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


def local_profile(g):
    """One VertexProfile per vertex; distance fields are None on disconnected graphs."""
    from .topology import vertex_curvature, vertex_dimensions

    connected = is_connected(g) and g.n >= 2
    dimensions = vertex_dimensions(g)
    records = []
    for x in range(g.n):
        records.append(VertexProfile(
            vertex=x,
            degree=g.degree(x),
            cluster=local_cluster(g, x),
            length=local_length(g, x),
            low_degree=g.degree(x) <= 1,
            mean_distance=local_mean_distance(g, x) if connected else None,
            centrality=closeness_centrality(g, x) if connected else None,
            curvature=vertex_curvature(g, x),
            dimension=dimensions[x],
        ))
    return tuple(records)
