"""Shared brute-force oracles for the test suite.

These deliberately re-derive quantities by the dumbest correct method
(exhaustive subsets, Floyd-Warshall, product colorings) so the fast
implementations are checked against an independent route.  Replaced
implementations (Bareiss elimination, the reduced-pair dimension memo, the
whole-block geometric Monte-Carlo kernels, the row-bitmask extremal kernel
and its full-array reduction, the extremal scan over every labeled H, the
rank-one eliminations mod p, the Laplacian loop over adjacency lists, the
audit's per-root BFS trees) stay here as the references their successors
must match.
"""

import heapq
import math
from collections import deque
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from netfunc import experiments
from netfunc.continuum import _CLUSTER_TAG, _LENGTH_TAG, FlatTorus
from netfunc.experiments import ExtremalResult, Histogram
from netfunc.graph import UNREACHABLE, adjacency_masks, from_edge_list
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


def flood_fill_components(g):
    """Components by a depth-first flood fill from each vertex not yet seen,
    sorted by least vertex: the oracle for graph.connected_components."""
    seen = set()
    comps = []
    for source in range(g.n):
        if source in seen:
            continue
        seen.add(source)
        comp, stack = [source], [source]
        while stack:
            for y in g.adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


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


class PairDimensionMemo:
    """The dimension memo that kept each subset's dimension as a reduced
    (num, den) int pair: one lcm, one multiply-and-divide per child and one
    gcd per subset.  The reference the scaled-integer memo must match."""

    def __init__(self, g):
        self.masks = adjacency_masks(g)
        self.values = {0: (-1, 1)}  # the empty graph

    def dimension(self, subset):
        masks, values = self.masks, self.values
        known = values.get
        stack = [] if subset in values else [[subset, subset, []]]
        while stack:
            frame = stack[-1]
            s, rest, found = frame
            while rest:
                low = rest & -rest
                rest ^= low
                child = masks[low.bit_length() - 1] & s
                value = known(child)
                if value is None:
                    break
                found.append(value)
            else:
                size = len(found)
                common = math.lcm(*[den for _, den in found])
                num = size * common + sum([a * (common // den) for a, den in found])
                den = size * common
                q = math.gcd(num, den)
                value = values[s] = (num // q, den // q)
                stack.pop()
                if stack:
                    stack[-1][2].append(value)
                continue
            frame[1] = rest
            stack.append([child, child, []])
        return Fraction(*values[subset])


def pair_inductive_dimension(g):
    return PairDimensionMemo(g).dimension((1 << g.n) - 1)


def pair_vertex_dimensions(g):
    memo = PairDimensionMemo(g)
    return tuple(1 + memo.dimension(mask) for mask in adjacency_masks(g))


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


def rank_one_inverse_mod(a, p):
    """(det a mod p, a^-1 mod p) by Gauss-Jordan without pivoting, one
    rank-one update per pivot and the whole matrix reduced after each, in
    int64 (so p < 2^31); (0, None) at a zero pivot."""
    m = np.array(a, dtype=np.int64) % p
    det = 1
    for k in range(len(m)):
        pivot = int(m[k, k])
        if pivot == 0:
            return 0, None
        det = det * pivot % p
        col = m[:, k].copy()
        m[:, k] = 0
        m[k, k] = 1
        row = m[k] * pow(pivot, -1, p) % p
        m -= col[:, None] * row
        m %= p
        m[k] = row
    return det, m


def rank_one_det_mod(a, p):
    """det a mod p by elimination without pivoting, the trailing matrix reduced
    after every pivot (p < 2^31); 0 at a zero pivot."""
    m = np.array(a, dtype=np.int64) % p
    det = 1
    for k in range(len(m)):
        pivot = int(m[k, k])
        if pivot == 0:
            return 0
        det = det * pivot % p
        factors = m[k + 1:, k] * pow(pivot, -1, p) % p
        m[k + 1:, k + 1:] -= factors[:, None] * m[k, k + 1:]
        m[k + 1:, k + 1:] %= p
    return det


def laplacian_by_loop(g):
    """L = D - A, one entry at a time from the adjacency lists."""
    lap = np.zeros((g.n, g.n), dtype=np.int64)
    for u in range(g.n):
        lap[u, u] = g.degree(u)
        for v in g.adj[u]:
            lap[u, v] = -1
    return lap


def per_root_tree_wieners(g):
    """Wiener index of the BFS tree from each root of a connected graph, each
    vertex joined to its least neighbor one hop closer to the root: one tree
    built and measured per root."""
    dist = bfs_distances(g)
    wieners = []
    for root in range(g.n):
        row = dist[root]
        tree = [(min(w for w in g.adj[v] if row[w] == row[v] - 1), v)
                for v in range(g.n) if v != root]
        wieners.append(experiments._tree_wiener(g.n, tree))
    return wieners


def reduced_laplacian(g):
    """The Laplacian of g with row and column 0 deleted, as integer lists."""
    return [[len(g.adj_sets[i]) if i == j else -int(g.has_edge(i, j)) for j in range(1, g.n)]
            for i in range(1, g.n)]


def exact_curvature_action(d1s, d2s):
    """The curvature action from per-vertex degrees and distance-2 counts,
    rounded as the extremal kernel rounds it: over the c vertices with a
    second sphere, the product r of d2/d1 is an exact Fraction, the action is
    log(r) / c = Σ_p v_p(r) log p / c over the primes of r, and with (v, c)
    divided by their gcd the float is that sum, taken in prime order, over c.
    NaN when no vertex has a second sphere."""
    counted = [(d1, d2) for d1, d2 in zip(d1s, d2s) if d2]
    if not counted:
        return float("nan")
    r = Fraction(math.prod(d2 for _, d2 in counted), math.prod(d1 for d1, _ in counted))
    exps = []
    num, den = r.numerator, r.denominator
    for p in (2, 3, 5, 7):
        e = 0
        while num % p == 0:
            num, e = num // p, e + 1
        while den % p == 0:
            den, e = den // p, e - 1
        exps.append(e)
    assert num == den == 1  # the counts are below 8
    common = math.gcd(*exps, len(counted))
    total = 0.0
    for p, e in zip((2, 3, 5, 7), exps):
        total = total + e // common * math.log(p)
    return total / (len(counted) // common)


def row_mask_scan(n, lo, hi, wants):
    """The extremal chunk kernel on n uint8 row masks per graph, with a
    `slogdet` per reduced Laplacian, an edge-mask test per vertex subset and
    the curvature action rounded per graph by `exact_curvature_action`: the
    reference for the per-H kernel.  Returns per-connected-graph arrays,
    `char_length` as the ordered-pair distance total."""
    pairs = all_pairs(n)
    masks = np.arange(lo, hi, dtype=np.int64)
    masks = masks[np.bitwise_count(masks) >= n - 1]  # too few edges to be connected
    rows = np.zeros((masks.size, n), dtype=np.uint8)
    for i, (u, v) in enumerate(pairs):
        bit = ((masks >> i) & 1).astype(np.uint8)
        rows[:, u] |= bit << v
        rows[:, v] |= bit << u

    # Over v and k = 0..levels, sum (n - |B_k(v)|) is a connected graph's
    # distance total: its balls are full from level n - 1 on.
    levels = max(n - 1, 2)  # curvature reads |B_2| even below n = 3
    total_dist = np.full(masks.size, (levels + 1) * n * n - n, dtype=np.int64)
    ball = rows | (np.uint8(1) << np.arange(n, dtype=np.uint8))
    sizes = []  # |B_1| and |B_2|
    for k in range(1, levels + 1):
        if k > 1:
            grown = ball.copy()
            for u in range(n):
                grown |= ball[:, u:u + 1] * ((rows >> u) & 1)
            ball = grown
        size = np.bitwise_count(ball)
        total_dist -= size.sum(axis=1, dtype=np.int64)
        if k <= 2:
            sizes.append(size)
    connected = (ball == (1 << n) - 1).all(axis=1)

    masks = masks[connected]
    rows = rows[connected]
    out = {"masks": masks}

    if "char_length" in wants:
        out["char_length"] = total_dist[connected]

    if "euler_char" in wants:
        pair_bit = {p: i for i, p in enumerate(pairs)}
        chi = np.full(masks.size, n, dtype=np.int64)  # single vertices
        for order in range(2, n + 1):
            sign = 1 if order % 2 else -1
            for subset in combinations(range(n), order):
                pm = 0
                for a, b in combinations(subset, 2):
                    pm |= 1 << pair_bit[(a, b)]
                chi += sign * ((masks & pm) == pm)
        out["euler_char"] = chi

    if "curvature_action" in wants:
        within1, within2 = (size[connected].tolist() for size in sizes)
        out["curvature_action"] = np.array([
            exact_curvature_action([b1 - 1 for b1 in ball1],
                                   [b2 - b1 for b1, b2 in zip(ball1, ball2)])
            for ball1, ball2 in zip(within1, within2)], dtype=np.float64)

    if "log_complexity" in wants:
        adj = np.unpackbits(rows[:, 1:, None], axis=2, count=n, bitorder="little")[:, :, 1:]
        lap = -adj.astype(np.float64)
        idx = np.arange(n - 1)
        lap[:, idx, idx] = np.bitwise_count(rows[:, 1:])
        _, logdet = np.linalg.slogdet(lap)
        out["log_complexity"] = math.log(n) + logdet  # n * tree count
    return out


def row_mask_extremal(n, wants, bins=64):
    """{functional: ExtremalResult} from one `row_mask_scan` over every mask,
    reduced over the whole value arrays: the first minimum and maximum in
    mask order, and `np.histogram` of every defined value."""
    out = row_mask_scan(n, 0, 1 << (n * (n - 1) // 2), wants)
    results = {}
    for name in wants:
        values = np.asarray(out[name], dtype=np.float64)
        defined = ~np.isnan(values)
        vals = values[defined]
        vmasks = out["masks"][defined]
        if vals.size == 0:
            results[name] = ExtremalResult(
                functional=name, evaluated=0, undefined=int(values.size),
                min_value=None, max_value=None, min_witness=None, max_witness=None,
                histogram=Histogram((), 0.0, 0.0))
            continue
        imin = int(np.argmin(vals))
        imax = int(np.argmax(vals))
        lo_v, hi_v = float(vals[imin]), float(vals[imax])
        hist_hi = hi_v if hi_v > lo_v else lo_v + 1  # degenerate constant case
        counts, _ = np.histogram(vals, bins=bins, range=(lo_v, hist_hi))
        min_value, max_value = lo_v, hi_v
        if name == "char_length":
            denom = n * n - n
            if denom:
                min_value = Fraction(int(vals[imin])) / denom
                max_value = Fraction(int(vals[imax])) / denom
            else:
                min_value = max_value = Fraction(0)
        elif name == "euler_char":
            min_value, max_value = int(lo_v), int(hi_v)
        results[name] = ExtremalResult(
            functional=name,
            evaluated=int(defined.sum()),
            undefined=int((~defined).sum()),
            min_value=min_value,
            max_value=max_value,
            min_witness=graph_from_mask(n, int(vmasks[imin])),
            max_witness=graph_from_mask(n, int(vmasks[imax])),
            histogram=Histogram(tuple(int(c) for c in counts), lo_v, hist_hi),
        )
    return results


def full_scan_extremal(n, **kwargs):
    """`extremal_search` over every labeled H on vertices 1..n-1, each its
    own orbit of size 1: the scan before the isomorphism-class reduction, the
    reference the orbit scan must equal."""
    k = n - 1
    every = np.arange(1 << (k * (k - 1) // 2), dtype=np.int64)
    with mock.patch.object(experiments, "_orbits", lambda k: (every, np.ones_like(every))):
        return experiments.extremal_search(n, **kwargs)


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


def whole_block_points(space, gen, count):
    """`count` uniform points of a FlatTorus or SphereArea1 as a (count, dim)
    array, in the space's draw order."""
    if isinstance(space, FlatTorus):
        return gen.random((count, space.dim)) * space.r
    z = space.radius * (1 - 2 * gen.random(count))
    phi = gen.random(count) * (2 * math.pi)
    rho = np.sqrt(np.maximum(0.0, space.radius**2 - z * z))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def whole_block_distance(space, a, b):
    """Minimum-image (FlatTorus) or great-circle (SphereArea1) distance
    between the rows of a and b."""
    if isinstance(space, FlatTorus):
        delta = np.abs(a - b)
        delta = np.minimum(delta, space.r - delta)
        return np.sqrt((delta * delta).sum(axis=1))
    cos = (a * b).sum(axis=1) / (space.radius**2)
    return space.radius * np.arccos(np.clip(cos, -1.0, 1.0))


def whole_block_sphere_pair(space, gen, centers, radius):
    """Two points on the metric sphere of the given radius around each center:
    wrapped into the box on a FlatTorus, through a tangent frame on
    SphereArea1.  Per point it draws phi (torus2, sphere) or cos theta then
    phi (torus3), `len(centers)` uniforms at a time."""
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
    """Monte-Carlo length block over two whole (count, dim) arrays of uniform
    points: the geometric reference for the per-sample length formulas."""
    gen = generator(seed, _LENGTH_TAG, block)
    a = whole_block_points(space, gen, count)
    b = whole_block_points(space, gen, count)
    d = whole_block_distance(space, a, b)
    return float(d.sum()), float((d * d).sum())


def whole_block_cluster(space, block, count, seed, radius):
    """Monte-Carlo cluster block over whole (count, dim) arrays, from a
    uniform centre and two points on its metric sphere, with np.cross,
    np.linalg.norm, argmin and np.mod: the geometric reference for the
    per-sample cluster formulas."""
    gen = generator(seed, _CLUSTER_TAG, block)
    centers = whole_block_points(space, gen, count)
    a, b = whole_block_sphere_pair(space, gen, centers, radius)
    v = whole_block_distance(space, a, b) / radius
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
