"""Shared brute-force oracles for the test suite.

These deliberately re-derive quantities by the dumbest correct method
(exhaustive subsets, Floyd-Warshall, product colorings) so the fast
implementations are checked against an independent route.  Replaced
implementations (Bareiss elimination, the whole-block Monte-Carlo kernels)
stay here as the references their successors must match.
"""

import heapq
import math
from collections import deque
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import strategies as st

from netfunc.continuum import _CLUSTER_TAG, _LENGTH_TAG, FlatTorus
from netfunc.graph import UNREACHABLE, from_edge_list
from netfunc.rng import generator

INF = float("inf")


def floyd_warshall(g):
    n = g.n
    dist = [[0 if i == j else (1 if g.has_edge(i, j) else INF) for j in range(n)]
            for i in range(n)]
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return dist


def bfs_distances(g):
    """Hop distances by one deque BFS per source, UNREACHABLE across
    components: the oracle for graphs too large for floyd_warshall."""
    rows = []
    for source in range(g.n):
        dist = [UNREACHABLE] * g.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            x = queue.popleft()
            for y in g.adj[x]:
                if dist[y] == UNREACHABLE:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        rows.append(dist)
    return rows


def all_pairs(n):
    return list(combinations(range(n), 2))


def graph_from_mask(n, mask):
    pairs = all_pairs(n)
    return from_edge_list(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def iter_graphs(n):
    """Every labeled graph on n vertices."""
    m = n * (n - 1) // 2
    for mask in range(1 << m):
        yield graph_from_mask(n, mask)


def is_connected_slow(g):
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in g.adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == g.n


def iter_connected_graphs(n):
    for g in iter_graphs(n):
        if is_connected_slow(g):
            yield g


def brute_simplex_counts(g):
    """Clique counts by testing every vertex subset."""
    counts = []
    for size in range(1, g.n + 1):
        c = 0
        for subset in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
                c += 1
        if c == 0:
            break
        counts.append(c)
    return counts


def brute_inductive_dimension(g):
    """dim(G) = 1 + mean of dim(S(v)), recursing on frozenset vertex subsets
    with Fraction arithmetic; dim of the empty graph is -1."""
    memo = {}

    def dim(subset):
        if not subset:
            return Fraction(-1)
        if subset not in memo:
            total = sum((dim(g.adj_sets[v] & subset) for v in subset), Fraction(0))
            memo[subset] = 1 + total / len(subset)
        return memo[subset]

    return dim(frozenset(range(g.n)))


def brute_independence_number(g):
    best = 0
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            if all(not g.has_edge(u, v) for u, v in combinations(subset, 2)):
                return size
    return best


def brute_chromatic_number(g):
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    edges = list(g.edges())
    for k in range(1, g.n + 1):
        for coloring in product(range(k), repeat=g.n):
            if all(coloring[u] != coloring[v] for u, v in edges):
                return k
    return g.n


def brute_rooted_forest_count(g):
    """Sum over acyclic edge subsets of the product of tree-component sizes."""
    edges = list(g.edges())
    total = 0
    for r in range(len(edges) + 1):
        for subset in combinations(edges, r):
            parent = list(range(g.n))
            size = [1] * g.n

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            ok = True
            for u, v in subset:
                ru, rv = find(u), find(v)
                if ru == rv:
                    ok = False
                    break
                parent[ru] = rv
                size[rv] += size[ru]
            if not ok:
                continue
            roots = 1
            for x in range(g.n):
                if find(x) == x:
                    roots *= size[x]
            total += roots
    return total


def bareiss_determinant(matrix):
    """Exact determinant of a square integer matrix (fraction-free elimination)."""
    a = [list(map(int, row)) for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def pruefer_to_edges(seq, n):
    """Decode a Pruefer sequence into the edge list of a labeled tree."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def iter_labeled_trees(n):
    if n == 1:
        yield from_edge_list(1, [])
        return
    if n == 2:
        yield from_edge_list(2, [(0, 1)])
        return
    for seq in product(range(n), repeat=n - 2):
        yield from_edge_list(n, pruefer_to_edges(seq, n))


def _whole_block_points(space, gen, count):
    """`count` uniform points of a FlatTorus or SphereArea1 as a (count, dim)
    array, in the space's draw order."""
    if isinstance(space, FlatTorus):
        return gen.random((count, space.dim)) * space.r
    z = space.radius * (1 - 2 * gen.random(count))
    phi = gen.random(count) * (2 * math.pi)
    rho = np.sqrt(np.maximum(0.0, space.radius**2 - z * z))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def _whole_block_distance(space, a, b):
    if isinstance(space, FlatTorus):
        delta = np.abs(a - b)
        delta = np.minimum(delta, space.r - delta)
        return np.sqrt((delta * delta).sum(axis=1))
    cos = (a * b).sum(axis=1) / (space.radius**2)
    return space.radius * np.arccos(np.clip(cos, -1.0, 1.0))


def whole_block_sphere_pair(space, gen, centers, radius):
    out = []
    if isinstance(space, FlatTorus):
        for _ in range(2):  # draw order per dimension fixes the seeded stream
            if space.dim == 2:
                phi = gen.random(len(centers)) * (2 * math.pi)
                unit = [np.cos(phi), np.sin(phi)]
            else:
                cos_theta = 1 - 2 * gen.random(len(centers))
                sin_theta = np.sqrt(np.maximum(0.0, 1 - cos_theta**2))
                phi = gen.random(len(centers)) * (2 * math.pi)
                unit = [sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta]
            out.append(np.mod(centers + radius * np.stack(unit, axis=1), space.r))
        return out
    R = space.radius
    axis = centers / R
    helper = np.zeros_like(axis)
    helper[np.arange(len(axis)), np.argmin(np.abs(axis), axis=1)] = 1.0
    e1 = np.cross(helper, axis)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(axis, e1)
    theta = radius / R
    for _ in range(2):
        phi = gen.random(len(centers)) * (2 * math.pi)
        direction = (math.cos(theta) * axis
                     + math.sin(theta) * (np.cos(phi)[:, None] * e1
                                          + np.sin(phi)[:, None] * e2))
        out.append(R * direction)
    return out


def whole_block_length(space, block, count, seed):
    """Monte-Carlo length block over whole (count, dim) arrays, with a draw
    per point set: the reference for the sliced column kernel."""
    gen = generator(seed, _LENGTH_TAG, block)
    a = _whole_block_points(space, gen, count)
    b = _whole_block_points(space, gen, count)
    d = _whole_block_distance(space, a, b)
    return float(d.sum()), float((d * d).sum())


def whole_block_cluster(space, block, count, seed, radius):
    """Monte-Carlo cluster block over whole (count, dim) arrays, with
    np.cross, np.linalg.norm, argmin and np.mod: the reference for the sliced
    column kernel."""
    gen = generator(seed, _CLUSTER_TAG, block)
    centers = _whole_block_points(space, gen, count)
    a, b = whole_block_sphere_pair(space, gen, centers, radius)
    v = _whole_block_distance(space, a, b) / radius
    return float(v.sum()), float((v * v).sum())


@st.composite
def relabelled_graphs(draw):
    """A graph on 1..14 vertices and the same graph under a random relabelling."""
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    perm = draw(st.permutations(range(n)))
    return (from_edge_list(n, edges),
            from_edge_list(n, [(perm[u], perm[v]) for u, v in edges]))


@pytest.fixture
def octahedron():
    """K_{2,2,2}: complement of a perfect matching on six vertices."""
    non_edges = {(0, 3), (1, 4), (2, 5)}
    edges = [e for e in combinations(range(6), 2) if e not in non_edges]
    return from_edge_list(6, edges)
