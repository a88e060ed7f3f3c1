"""Shared brute-force oracles for the test suite.

These deliberately re-derive quantities by the dumbest correct method
(exhaustive subsets, Floyd-Warshall, product colorings) so the fast
implementations are checked against an independent route.  Replaced
implementations (Bareiss elimination, the reduced-pair dimension memo, the
depth-first subset recursion of the clique complex, the whole-block
geometric Monte-Carlo kernels, the row-bitmask extremal kernel and its
full-array reduction, the extremal scan over every labeled H, the
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

from netfunc import cli, experiments
from netfunc.continuum import _CLUSTER_TAG, _LENGTH_TAG, FlatTorus
from netfunc.errors import CliqueBudgetExceeded, RecursionBudgetExceeded
from netfunc.experiments import ExtremalResult, Histogram
from netfunc.generators import ModelSpec, build_model
from netfunc.graph import UNREACHABLE, from_edge_list
from netfunc.rng import derive_seed, generator
from netfunc.topology import _SMALL_GRAPHS, CLIQUE_BUDGET, DIMENSION_BUDGET

INF = float("inf")


def neighbor_sets(g):
    """The neighbors of each vertex as frozensets, for the oracles' membership
    tests: built from the adjacency lists, which the graph stores only as
    sorted tuples."""
    return tuple(map(frozenset, g.adj))


def floyd_warshall(g):
    n = g.n
    sets = neighbor_sets(g)
    dist = [[0 if i == j else (1 if j in sets[i] else INF) for j in range(n)]
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


def iter_graph_classes(n, seed=0):
    """(graph, orbit size) for each isomorphism class of graphs on n vertices,
    n <= 7: the least-mask representative of experiments._orbits(n) under a
    seeded random relabelling, since the bitmask walks and the vertex-order
    sums depend on labels and the least-mask labelling is one special order.
    The orbit sizes add up to the labeled count, 2^C(n, 2)."""
    reps, sizes = experiments._orbits(n)
    pairs = all_pairs(n)
    gen = generator(seed, n)
    for mask, size in zip(reps.tolist(), sizes.tolist()):
        perm = gen.permutation(n).tolist()
        edges = [(perm[u], perm[v]) for i, (u, v) in enumerate(pairs) if mask >> i & 1]
        yield from_edge_list(n, edges), size


def iter_connected_graph_classes(n, seed=0):
    """iter_graph_classes(n, seed) restricted to the connected classes."""
    for g, size in iter_graph_classes(n, seed):
        if is_connected_slow(g):
            yield g, size


def iter_small_graphs(n, connected=False):
    """Every labeled graph on n <= 5 vertices, or every connected one; from
    n = 6, where the labeled graphs number 2^15 and more, one graph per
    isomorphism class (iter_graph_classes) instead."""
    if n <= 5:
        return iter_connected_graphs(n) if connected else iter_graphs(n)
    classes = iter_connected_graph_classes(n) if connected else iter_graph_classes(n)
    return (g for g, _ in classes)


# The flags of the benchmark's two sweeps; tests/golden/sweep_NAME.json holds
# each one's output at --seed 1
SWEEPS = {"sparse": "--model ws --k 6 --p 0.1 --n-list 250,500,1000,2000 --seeds 3",
          "dense": "--model er --p 0.5 --n-list 40,60,80 --seeds 4"}


def sweep_draws(name):
    """The graphs of the SWEEPS entry `name` at --seed 1, in the sweep's order."""
    args = cli.build_parser().parse_args(["sweep", *SWEEPS[name].split()])
    spec = cli._model_spec(args, n=0)
    return [build_model(ModelSpec(spec.kind, {**spec.params, "n": n}, seed=derive_seed(1, n, s)))
            for n in map(int, args.n_list.split(",")) for s in range(args.seeds)]


# connected labeled graphs on n vertices (OEIS A001187)
CONNECTED_LABELED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26_704, 7: 1_866_256}


def brute_simplex_counts(g):
    """Clique counts by testing every vertex subset."""
    sets = neighbor_sets(g)
    counts = []
    for size in range(1, g.n + 1):
        c = 0
        for subset in combinations(range(g.n), size):
            if all(v in sets[u] for u, v in combinations(subset, 2)):
                c += 1
        if c == 0:
            break
        counts.append(c)
    return counts


def brute_neighbor_edges(g):
    """edges[x] = the edges among the neighbors of x, by testing every pair of
    them: the reference for the triangle count of `metrics._neighbor_edges`."""
    sets = neighbor_sets(g)
    return tuple(sum(w in sets[u] for u, w in combinations(neighbors, 2))
                 for neighbors in g.adj)


def adjacency_masks(g):
    """masks[v] has bit u set iff u is a neighbor of v, as Python ints built
    from the adjacency lists: the oracles' own layout, independent of the
    program's uint64 rows."""
    return tuple(sum(1 << u for u in neighbors) for neighbors in g.adj)


def walk_simplex_counts(g):
    """Clique counts by walking every clique once: the reference for the
    packed subset recursion of `topology.simplex_counts`.

    Cliques are enumerated by ordered extension (Chiba-Nishizeki, SIAM J.
    Comput. 14, 1985): a clique (v_0 < ... < v_k) is only grown by common
    neighbors larger than v_k.  The walk keeps (candidate bitmask, size)
    frames on an explicit stack; a frame stands for one clique per candidate
    bit, all counted at once, and a candidate v with common neighbors above
    it pushes the frame of the clique's extensions through v.
    """
    masks = adjacency_masks(g)
    counts = []
    stack = [((1 << g.n) - 1, 0)] if g.n else []
    while stack:
        cand, size = stack.pop()
        if size == len(counts):
            counts.append(0)
        counts[size] += cand.bit_count()
        while cand:
            low = cand & -cand
            cand ^= low  # what is left of cand lies above the vertex of low
            grown = cand & masks[low.bit_length() - 1]
            if grown:
                stack.append((grown, size + 1))
    return tuple(counts)


def clique_subproblems(g):
    """Distinct vertex subsets of two or more vertices that the clique-count
    recursion evaluates: the children of S are N(v) ∩ S_{<v} for v in S, and
    below the root a subset of at most four vertices is read from the table,
    so its own children are not evaluated."""
    sets = neighbor_sets(g)
    root = frozenset(range(g.n))
    seen = set()
    todo = [root]
    while todo:
        subset = todo.pop()
        if len(subset) > 1 and subset not in seen:
            seen.add(subset)
            if subset is root or len(subset) > 4:
                todo.extend(frozenset(u for u in sets[v] & subset if u < v)
                            for v in subset)
    return len(seen)


def degree_code(subset, masks):
    """Σ_{v∈subset} 8^deg(v), degrees taken in the subgraph induced on `subset`."""
    code = 0
    rest = subset
    while rest:
        low = rest & -rest
        rest ^= low
        code += 1 << 3 * (masks[low.bit_length() - 1] & subset).bit_count()
    return code


class SubsetRecursion:
    """The memoized subset recursion the level-wise closure of `topology`
    replaced, and the reference it must match in values and in the subsets
    each call spends: value(S) = close(S, Σ_{v∈S} value(masks[v] & S)), one
    frame per subset on an explicit stack, depth first.

    `values` holds the seeds (the empty set among them) and every subset
    evaluated so far; a child of at most four vertices is valued from
    `leaves` by its degree code in the adjacency masks.  A call that
    evaluates more than `budget` subsets not yet in `values` raises
    `exceeded`; `spent` holds the count of the last call."""

    def __init__(self, g, masks, values, close, leaves, budget, exceeded, unit):
        self.full = adjacency_masks(g)
        self.masks, self.values, self.close, self.leaves = masks, values, close, leaves
        self.budget, self.exceeded, self.unit = budget, exceeded, unit
        self.spent = 0

    def value(self, subset):
        masks, values, close, budget = self.masks, self.values, self.close, self.budget
        known = values.get
        # A frame is [subset, its vertices not yet visited, the sum of its
        # children's values so far].
        stack = [] if subset in values else [[subset, subset, 0]]
        self.spent = len(stack)
        while stack:
            if self.spent > budget:
                raise self.exceeded(f"more than {budget} {self.unit} subproblems")
            frame = stack[-1]
            s, rest, acc = frame
            while rest:
                low = rest & -rest
                rest ^= low
                child = masks[low.bit_length() - 1] & s
                value = known(child)
                if value is None:
                    if child.bit_count() > 4:
                        break
                    self.spent += 1
                    if self.spent > budget:
                        raise self.exceeded(f"more than {budget} {self.unit} subproblems")
                    value = values[child] = self.leaves[degree_code(child, self.full)]
                acc += value
            else:
                value = values[s] = close(s, acc)
                stack.pop()
                if stack:
                    stack[-1][2] += value
                continue
            frame[1] = rest
            frame[2] = acc
            self.spent += 1
            stack.append([child, child, 0])
        return values[subset]


class DimensionRecursion(SubsetRecursion):
    """The subset recursion on the adjacency masks, storing scale·dim(S) with
    scale = min(Δ, 64)!: an int whenever |S| <= min(Δ, 64)."""

    def __init__(self, g, budget=DIMENSION_BUDGET):
        masks = adjacency_masks(g)
        degree = max(map(int.bit_count, masks), default=0)
        self.scale = math.factorial(min(degree, 64))
        leaves = {code: int(self.scale * dim) for code, (dim, counts) in _SMALL_GRAPHS.items()
                  if counts[0] <= degree}
        super().__init__(g, masks, {0: -self.scale}, self._close, leaves, budget,
                         RecursionBudgetExceeded, "dimension")

    def dimension(self, subset):
        return Fraction(self.value(subset)) / self.scale

    def _close(self, s, acc):  # scale·dim(S) = scale + acc / |S|
        q, r = divmod(acc, s.bit_count())
        return self.scale + (Fraction(acc, s.bit_count()) if r else q)


def recursion_clique_polynomial(g, t, budget=CLIQUE_BUDGET):
    """The subset recursion on the lower masks masks[v] & ((1 << v) − 1),
    valuing the clique polynomial F_S at the integer t."""
    masks = adjacency_masks(g)
    lower = [mask & ((1 << v) - 1) for v, mask in enumerate(masks)]
    values = dict.fromkeys((1 << v for v in range(g.n)), 1 + t) | {0: 1}
    leaves = {code: 1 + sum(c * t ** k for k, c in enumerate(counts, 1))
              for code, (_, counts) in _SMALL_GRAPHS.items()}
    return SubsetRecursion(g, lower, values, lambda s, acc: 1 + t * acc, leaves, budget,
                           CliqueBudgetExceeded, "clique")


def brute_inductive_dimension(g):
    """dim(G) = 1 + mean of dim(S(v)), recursing on frozenset vertex subsets
    with Fraction arithmetic; dim of the empty graph is -1."""
    sets = neighbor_sets(g)
    memo = {}

    def dim(subset):
        if not subset:
            return Fraction(-1)
        if subset not in memo:
            total = sum((dim(sets[v] & subset) for v in subset), Fraction(0))
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
    sets = neighbor_sets(g)
    best = 0
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            if all(v not in sets[u] for u, v in combinations(subset, 2)):
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
        lap[u, u] = len(g.adj[u])
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
    sets = neighbor_sets(g)
    return [[len(sets[i]) if i == j else -int(j in sets[i]) for j in range(1, g.n)]
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


# trees on n vertices up to isomorphism (OEIS A000055)
FREE_TREES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}


def tree_code(n, edges):
    """A canonical form of the tree on 0..n-1 with these edges: the least AHU
    code (the sorted codes of the subtrees, nested) rooted at a centre, where
    the centres, one or two, are what stays after peeling leaves layer by layer."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(x) for x in adj]
    layer, left = [v for v in range(n) if degree[v] <= 1], n
    while left > 2:
        left -= len(layer)
        peeled = []
        for leaf in layer:
            for u in adj[leaf]:
                degree[u] -= 1
                if degree[u] == 1:
                    peeled.append(u)
        layer = peeled

    def code(v, parent):
        return "(" + "".join(sorted(code(u, v) for u in adj[v] if u != parent)) + ")"
    return min(code(c, -1) for c in layer)


def iter_free_trees(n):
    """One tree per isomorphism class on n >= 1 vertices.  Removing a leaf
    from a tree on k + 1 vertices leaves a tree on k, so attaching a leaf to
    every vertex of every class on k vertices reaches every class on k + 1;
    the first edge list of each canonical form (tree_code) is kept."""
    classes = [[]]
    for k in range(1, n):
        grown = {}
        for edges in classes:
            for v in range(k):
                grown.setdefault(tree_code(k + 1, edges + [(v, k)]), edges + [(v, k)])
        classes = list(grown.values())
    for edges in classes:
        yield from_edge_list(n, edges)


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


def disjoint_union(*graphs):
    """The graphs side by side, the vertices of each after those of the ones before."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return from_edge_list(offset, edges)


def join(a, b):
    """Disjoint union of a and b plus every edge between them."""
    edges = [(u, a.n + v) for u in range(a.n) for v in range(b.n)]
    return from_edge_list(a.n + b.n, list(disjoint_union(a, b).edges()) + edges)


@pytest.fixture
def octahedron():
    """K_{2,2,2}: complement of a perfect matching on six vertices."""
    non_edges = {(0, 3), (1, 4), (2, 5)}
    edges = [e for e in combinations(range(6), 2) if e not in non_edges]
    return from_edge_list(6, edges)
