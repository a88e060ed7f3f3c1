"""The bitmask subset recursion: inductive dimension and clique counts against
the recursive oracles and the clique walk, their budgets, relabelling
invariance, large cliques, and the discrete Gauss-Bonnet theorem as an
independent check of the Euler characteristic."""

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings

from netfunc import rng, topology
from netfunc.errors import CliqueBudgetExceeded, RecursionBudgetExceeded
from netfunc.generators import ModelSpec, build_model, complete, erdos_renyi
from netfunc.graph import adjacency_rows, from_edge_list, sphere
from netfunc.metrics import local_profile
from netfunc.report import Caps, compute_report
from netfunc.topology import (_CHI_TOP, _SMALL_GRAPHS, CLIQUE_BUDGET, DIMENSION_BUDGET,
                              _Closure, _CliqueClosure, _degree_codes, _DimensionClosure,
                              euler_characteristic, inductive_dimension, simplex_counts,
                              vertex_dimension, vertex_dimensions)

from conftest import (DimensionRecursion, PairDimensionMemo, adjacency_masks,
                      brute_inductive_dimension, brute_simplex_counts, clique_subproblems,
                      degree_code, disjoint_union, iter_graph_classes, iter_graphs, join,
                      neighbor_sets, pair_inductive_dimension, pair_vertex_dimensions,
                      recursion_clique_polynomial, relabelled_graphs, sweep_draws,
                      walk_simplex_counts)


def alternating_sum(counts):
    return sum((-1) ** k * c for k, c in enumerate(counts))


def as_rows(masks, words):
    """The int bitmasks `masks` as rows of `words` uint64 words, low word first."""
    data = b"".join(mask.to_bytes(8 * words, "little") for mask in masks)
    return np.frombuffer(data, dtype="<u8").astype(np.uint64).reshape(len(masks), words)


def row(g, mask):
    """The int bitmask `mask` as a row of g's adjacency layout."""
    return as_rows([mask], max(1, -(-g.n // 64)))[0]


def test_adjacency_masks():
    g = from_edge_list(4, [(0, 1), (0, 3), (2, 3)])
    assert adjacency_rows(g).tolist() == [[0b1010], [0b0001], [0b1000], [0b0101]]
    assert adjacency_rows(g) is adjacency_rows(g)
    assert not adjacency_rows(g).flags.writeable


def test_adjacency_rows_are_the_masks_in_words():
    # edges within a word, across words and at both ends of a row
    edges = [(0, 1), (0, 63), (63, 64), (64, 129), (1, 128), (127, 128)]
    for g in [from_edge_list(0, []), from_edge_list(3, []), from_edge_list(130, edges),
              erdos_renyi(200, 0.05, 3)]:
        words = max(1, -(-g.n // 64))
        rows = adjacency_rows(g)
        assert rows.dtype == np.uint64 and rows.shape == (g.n, words)
        assert (rows == as_rows(adjacency_masks(g), words)).all()


def assert_clique_layer_matches_oracles(g):
    assert inductive_dimension(g) == brute_inductive_dimension(g) == \
        pair_inductive_dimension(g)
    assert vertex_dimensions(g) == pair_vertex_dimensions(g)
    counts = brute_simplex_counts(g)
    assert list(simplex_counts(g)) == counts == list(walk_simplex_counts(g))
    assert euler_characteristic(g) == alternating_sum(counts)


@pytest.mark.parametrize("n", range(8))
def test_dimension_and_euler_match_oracles_exhaustive(n):
    # every labelling up to n = 5, one seeded labelling per isomorphism class up to 7
    if n <= 5:
        for g in iter_graphs(n):
            assert_clique_layer_matches_oracles(g)
    sizes = 0
    for g, size in iter_graph_classes(n):
        assert_clique_layer_matches_oracles(g)
        sizes += size
    assert sizes == 2 ** (n * (n - 1) // 2)


def test_small_graph_table_values_every_graph_on_at_most_four_vertices():
    # on at most four vertices the degree multiset fixes the isomorphism class:
    # one code per class, one table entry per code, and each entry exact
    classes = {}
    for n in range(1, 5):
        for g in iter_graphs(n):
            canonical = min(sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges())
                            for p in permutations(range(n)))
            code = int(_degree_codes(as_rows([(1 << n) - 1], 1),
                                     as_rows(adjacency_masks(g), 1))[0])
            assert code == degree_code((1 << n) - 1, adjacency_masks(g))
            classes.setdefault(code, set()).add((n, tuple(canonical)))
            dimension, counts = _SMALL_GRAPHS[code]
            assert dimension == brute_inductive_dimension(g)
            assert list(counts) == brute_simplex_counts(g)
    assert all(len(found) == 1 for found in classes.values())
    assert sorted(classes) == sorted(_SMALL_GRAPHS)
    assert len(classes) == 1 + 2 + 4 + 11


def test_clique_layer_matches_oracles_on_sparse_sweep_draws():
    # the graphs of the ws sweep at k = 6, p = 0.1 over n = 250..2000 with 3 seeds
    for g in sweep_draws("sparse"):
        assert inductive_dimension(g) == brute_inductive_dimension(g) == \
            pair_inductive_dimension(g)
        assert simplex_counts(g) == walk_simplex_counts(g)


def test_dimension_and_euler_match_on_dense_sweep_draws():
    # the graphs of an er sweep at p = 0.5 over n = 40, 60, 80 with 4 seeds each
    nx = pytest.importorskip("networkx")
    for n in (40, 60, 80):
        for s in range(4):
            g = build_model(ModelSpec("erdos_renyi", {"p": 0.5, "n": n},
                                      seed=rng.derive_seed(7, n, s)))
            assert inductive_dimension(g) == brute_inductive_dimension(g) == \
                pair_inductive_dimension(g)
            h = nx.Graph(list(g.edges()))
            h.add_nodes_from(range(g.n))
            chi = sum((-1) ** (len(c) - 1) for c in nx.enumerate_all_cliques(h))
            assert euler_characteristic(g) == chi


# -- the clique counts against the clique walk and closed forms -------------------

def test_simplex_counts_match_the_clique_walk_on_dense_draws():
    # the dense sweep draws above, those at the sweep's --seed 1, and one larger draw
    graphs = [build_model(ModelSpec("erdos_renyi", {"p": 0.5, "n": n},
                                    seed=rng.derive_seed(7, n, s)))
              for n in (40, 60, 80) for s in range(4)]
    graphs += sweep_draws("dense")
    for g in graphs + [erdos_renyi(120, 0.5, 1)]:
        assert simplex_counts(g) == walk_simplex_counts(g)


def test_simplex_counts_of_complete_graphs():
    for n in range(1, 61):
        assert simplex_counts(complete(n)) == tuple(comb(n, k + 1) for k in range(n))
    # 100 disjoint copies of K8: the root's digits (up to 7000) pass 2^(Δ+1) = 256,
    # so they need the n.bit_length() bits of the packing width
    edges = [(8 * c + u, 8 * c + v) for c in range(100) for u in range(8) for v in range(u)]
    assert simplex_counts(from_edge_list(800, edges)) == tuple(100 * comb(8, k + 1)
                                                              for k in range(8))


def test_simplex_counts_of_a_dense_draw_past_the_walk():
    # ER(40, 0.9), seed 3: the clique walk printed these counts in about a minute
    counts = simplex_counts(erdos_renyi(40, 0.9, 3))
    assert counts == (40, 713, 7548, 53346, 268164, 997020, 2813462, 6133101, 10453254,
                      14039445, 14922165, 12563147, 8356065, 4361027, 1764749, 543585,
                      124028, 20138, 2185, 141, 4)
    assert alternating_sum(counts) == 1


def test_vertex_dimensions_share_one_memo():
    for seed in range(6):
        g = erdos_renyi(25, 0.4, seed)
        shared = vertex_dimensions(g)
        assert shared == tuple(vertex_dimension(g, x) for x in range(g.n))
        assert tuple(r.dimension for r in local_profile(g)) == shared


# -- the scaled-integer closure against the reduced-pair oracle --------------------

def stored_values(closure):
    """{bitmask: scale·dim} of every subset a dimension closure holds, the
    empty set included; values held in int64 are rescaled to `scale`."""
    values = {0: -closure.scale}
    for i in closure.ids.tolist():
        subset = int.from_bytes(closure.rows[i].astype("<u8").tobytes(), "little")
        values[subset] = (int(closure.small[i]) * closure.ratio
                          if subset.bit_count() <= closure.top else closure.big[i])
    return values


def assert_memo_matches_pairs(g, memo):
    """Every subset the closure `memo` holds, the root of each call included,
    has the reduced-pair oracle's dimension; taken from the smallest up, each
    oracle call adds few subsets of its own."""
    oracle = PairDimensionMemo(g)
    for subset, value in sorted(stored_values(memo).items(), key=lambda item: item[0].bit_count()):
        assert Fraction(value) / memo.scale == oracle.dimension(subset)


def hub_graph():
    """A hub joined to an edge {1, 2} and to 65 vertices of degree one: Δ = 67
    passes the scale cap, and the hub's sphere, of prime size 67, has
    dimension 1 - 65/67 = 2/67."""
    return from_edge_list(68, [(1, 2)] + [(0, v) for v in range(1, 68)])


@pytest.mark.parametrize("n,p", [(n, p) for n in (30, 40, 60) for p in (0.3, 0.5, 0.8)])
def test_dimension_matches_pair_memo_on_er_draws(n, p):
    g = erdos_renyi(n, p, rng.derive_seed(1414, n, int(p * 10)))
    full = (1 << n) - 1
    if (n, p) == (60, 0.8):
        # past the default budget: a call that raises stores nothing, and a
        # completed call on the first 24 vertices still matches
        memo = _DimensionClosure(g, 20_000)
        with pytest.raises(RecursionBudgetExceeded):
            memo.dimension(row(g, full))
        assert_memo_matches_pairs(g, memo)
        memo.dimension(row(g, (1 << 24) - 1))
        assert len(stored_values(memo)) > 1000
        assert_memo_matches_pairs(g, memo)
        return
    memo = _DimensionClosure(g, DIMENSION_BUDGET)
    memo.dimension(row(g, full))
    assert_memo_matches_pairs(g, memo)
    if p < 0.8:
        assert vertex_dimensions(g) == pair_vertex_dimensions(g)


@pytest.mark.parametrize("n", range(1, 71))
def test_dimension_matches_pair_memo_on_complete_graphs(n):
    # K_n has 2^n - 1 nonempty subsets, so past n = 12 the budget stops the
    # closure, and the first 12 vertices then fit it; they cover the scale
    # cap (n >= 66 has Δ > 64)
    g = complete(n)
    memo = _DimensionClosure(g, 4096)
    if n <= 12:
        assert memo.dimension(row(g, (1 << n) - 1)) == n - 1 == pair_inductive_dimension(g)
    else:
        with pytest.raises(RecursionBudgetExceeded):
            memo.dimension(row(g, (1 << n) - 1))
        assert memo.dimension(row(g, (1 << 12) - 1)) == 11
    assert memo.scale == factorial(min(n - 1, 64))
    assert all(value == memo.scale * (subset.bit_count() - 1)
               for subset, value in stored_values(memo).items())
    assert_memo_matches_pairs(g, memo)


def test_non_integral_sphere_past_the_scale_cap():
    g = hub_graph()
    memo = _DimensionClosure(g, DIMENSION_BUDGET)
    hub_sphere = adjacency_masks(g)[0]
    assert memo.dimension(row(g, hub_sphere)) == Fraction(2, 67)
    assert isinstance(stored_values(memo)[hub_sphere], Fraction)
    assert inductive_dimension(g) == pair_inductive_dimension(g) == \
        1 + (Fraction(2, 67) + 2) / 68
    assert vertex_dimensions(g) == pair_vertex_dimensions(g)
    assert_memo_matches_pairs(g, memo)
    assert simplex_counts(g) == walk_simplex_counts(g) == (68, 68, 1)


def test_euler_characteristic_is_the_alternating_sum_of_the_counts():
    # χ reads the clique polynomial at t = −1 and the counts read it at t = 2^B
    for g in [complete(n) for n in range(1, 13)] + [hub_graph()]:
        counts = simplex_counts(g)
        assert counts == walk_simplex_counts(g)
        assert euler_characteristic(g) == alternating_sum(counts) == 1


def split_graph_and_triangles():
    """A triangle {0, 1, 2} joined to an independent set {3, ..., 22}, then
    ten disjoint triangles: Δ = 22 passes the int64 scale cap of 18."""
    edges = [(0, 1), (0, 2), (1, 2)] + [(c, v) for c in range(3) for v in range(3, 23)]
    for t in range(23, 53, 3):
        edges += [(t, t + 1), (t, t + 2), (t + 1, t + 2)]
    return from_edge_list(53, edges)


def test_a_call_past_its_budget_leaves_no_values_behind():
    # the root's first round stores the 30 triangle edges and values them from
    # the table; the next round passes the budget of 40.  The ids the raise
    # frees go to subsets of more than 18 vertices in the next call, whose
    # child sums must not see the edges' values
    g = split_graph_and_triangles()
    memo = _DimensionClosure(g, 40)
    with pytest.raises(RecursionBudgetExceeded, match="more than 40 dimension"):
        memo.dimension(row(g, (1 << g.n) - 1))
    assert memo.dimension(row(g, adjacency_masks(g)[0])) == PairDimensionMemo(g).dimension(
        adjacency_masks(g)[0])
    assert_memo_matches_pairs(g, memo)


@pytest.mark.parametrize("g,budget", [(complete(200), 5000), (hub_graph(), DIMENSION_BUDGET)],
                         ids=["K200", "hub68"])
def test_memo_ints_stay_within_the_capped_scale(g, budget):
    # |dim| < n, so scale·dim needs at most log2(64!) + log2(n) bits; K200
    # passes its budget, so its first 12 vertices give the values
    memo = _DimensionClosure(g, budget)
    try:
        memo.dimension(row(g, (1 << g.n) - 1))
    except RecursionBudgetExceeded:
        memo.dimension(row(g, (1 << 12) - 1))
    bound = factorial(64).bit_length() + g.n.bit_length()
    ints = [v for v in stored_values(memo).values() if isinstance(v, int)]
    assert ints
    assert all(v.bit_length() <= bound for v in ints)


# -- the level-wise closure against the depth-first recursion ----------------------

def assert_closure_matches_recursion(g, dimension_budget=DIMENSION_BUDGET,
                                     clique_budget=CLIQUE_BUDGET, vertices=True):
    """On each root the public functions use (the vertex set; each sphere in
    turn on one shared closure; the vertex set for χ and for the packed
    counts), the level-wise closure and the conftest recursion give the same
    value and spend the same subsets, or both raise the same message."""
    full = (1 << g.n) - 1
    width = max(map(int.bit_count, adjacency_masks(g)), default=0) + g.n.bit_length() + 1
    runs = [(_DimensionClosure(g, dimension_budget), DimensionRecursion(g, dimension_budget),
             [full])]
    if vertices:
        runs.append((_DimensionClosure(g, dimension_budget),
                     DimensionRecursion(g, dimension_budget), adjacency_masks(g)))
    for t, top in ((-1, _CHI_TOP), (1 << width, -1)):
        runs.append((_CliqueClosure(g, t, top, clique_budget),
                     recursion_clique_polynomial(g, t, clique_budget), [full]))
    raised = []
    for closure, recursion, roots in runs:
        for root in roots:
            try:
                expected = recursion.value(root)
            except (RecursionBudgetExceeded, CliqueBudgetExceeded) as error:
                with pytest.raises(type(error), match=f"^{error}$"):
                    closure.value(row(g, root))
                raised.append(type(error))
                break
            assert closure.value(row(g, root)) == expected
            assert closure.spent == recursion.spent
    return raised


@pytest.mark.parametrize("n", range(8))
def test_closure_matches_recursion_on_every_class(n):
    for g, _ in iter_graph_classes(n):
        assert_closure_matches_recursion(g)


@pytest.mark.parametrize("n,p", [(n, p) for n in (30, 40, 60, 80) for p in (0.3, 0.5, 0.8)])
def test_closure_matches_recursion_on_er_draws(n, p):
    # ER(60, 0.8) and ER(80, 0.8) pass the default dimension budget, and
    # ER(80, 0.8) takes ~10^6 clique subsets: both sides must raise at 20000
    g = erdos_renyi(n, p, rng.derive_seed(1414, n, int(p * 10)))
    dense = p == 0.8 and n >= 60
    raised = assert_closure_matches_recursion(
        g, dimension_budget=20_000 if dense else DIMENSION_BUDGET,
        clique_budget=20_000 if n == 80 and p == 0.8 else CLIQUE_BUDGET,
        vertices=p < 0.8 or n == 30)
    assert raised == ([RecursionBudgetExceeded] if (n, p) == (60, 0.8) else
                      [RecursionBudgetExceeded, CliqueBudgetExceeded, CliqueBudgetExceeded]
                      if dense else [])
    if not dense:
        assert inductive_dimension(g) == pair_inductive_dimension(g)
    if p < 0.8:
        assert simplex_counts(g) == walk_simplex_counts(g)


def test_closure_matches_recursion_on_cliques_unions_and_sweep_draws():
    union = disjoint_union(complete(5), hub_graph(), erdos_renyi(20, 0.5, 7), complete(1),
                           from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)]))
    graphs = [complete(n) for n in range(1, 13)] + [hub_graph(), union]
    for g in graphs + sweep_draws("dense") + sweep_draws("sparse"):
        assert assert_closure_matches_recursion(g, vertices=g.n <= 500) == []
    assert vertex_dimensions(union) == pair_vertex_dimensions(union)
    assert simplex_counts(union) == walk_simplex_counts(union)


def test_one_subset_split_across_several_slices(monkeypatch):
    # three one-word child rows a slice: the root and every subset of more
    # than three vertices make their children over several slices, whose
    # child ids must join in row order
    monkeypatch.setattr(topology, "_CHUNK_BYTES", 3 * 8)
    cycle = from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)])
    graphs = [complete(9), join(cycle, complete(4)), erdos_renyi(24, 0.6, 3),
              erdos_renyi(40, 0.5, rng.derive_seed(1414, 40, 5))]
    calls = []
    children = _Closure._children

    def counted(self, rows, frontier):
        calls.append(len(rows))
        return children(self, rows, frontier)

    monkeypatch.setattr(_Closure, "_children", counted)
    for g in graphs:
        assert assert_closure_matches_recursion(g) == []
    assert max(calls) == 3
    # a call past its budget still raises with the recursion's message; K_12
    # has only 12 clique subsets, so only its dimension passes 200
    assert assert_closure_matches_recursion(complete(12), 200, 200, vertices=False) == \
        [RecursionBudgetExceeded]
    assert assert_closure_matches_recursion(graphs[-1], 200, 200, vertices=False) == \
        [RecursionBudgetExceeded, CliqueBudgetExceeded, CliqueBudgetExceeded]


def test_hash_collisions_fall_back_to_exact_keys(monkeypatch):
    # rows of more than one word are found by a hash of their words; with a
    # hash that keeps only the first word, rows that differ past it collide,
    # and the closure must switch to keying rows by all their words
    keys = _Closure._keys

    def first_word(self, rows):
        return rows[:, 0].copy() if self.hashed else keys(self, rows)

    monkeypatch.setattr(_Closure, "_keys", first_word)
    g = erdos_renyi(80, 0.5, rng.derive_seed(1414, 80, 5))
    closure = _DimensionClosure(g, DIMENSION_BUDGET)
    assert closure.words == 2 and closure.hashed
    assert_closure_matches_recursion(g, vertices=False)
    assert closure.dimension(row(g, (1 << g.n) - 1)) == pair_inductive_dimension(g)
    assert not closure.hashed


# -- the column kernels of narrow rows against the packed ones ----------------------

def random_rows(words, count, seed, most=None):
    """`count` nonempty rows of `words` uint64 words, some with zero words;
    with `most`, each of at most that many vertices."""
    gen = np.random.default_rng(seed)
    rows = gen.integers(0, 1 << 64, size=(count, words), dtype=np.uint64)
    rows &= gen.integers(0, 1 << 64, size=(count, words), dtype=np.uint64)  # sparser
    rows[gen.random((count, words)) < 0.3] = 0
    if most is not None:
        members = [gen.choice(64 * words, size=gen.integers(1, most + 1), replace=False)
                   for _ in range(count)]
        rows = as_rows([sum(1 << int(v) for v in vs) for vs in members], words)
    rows[~rows.any(axis=1), 0] = 1
    return rows


def both_paths(monkeypatch, kernel, *args):
    """kernel(*args) by the column path and by the packed path."""
    results = []
    for narrow in (3, 0):  # every width here narrow, then none
        monkeypatch.setattr(topology, "_NARROW_WORDS", narrow)
        results.append(kernel(*args))
    return results


@pytest.mark.parametrize("words", [1, 2, 3])
def test_column_and_packed_kernels_agree(monkeypatch, words):
    # three words is the wide control: the closure runs its column kernels on
    # one and two words only, yet both must hold on any width
    rows = random_rows(words, 3000, words)
    column, packed = both_paths(monkeypatch, topology._sizes, rows)
    assert column.tolist() == packed.tolist() == [sum(map(int.bit_count, r)) for r in
                                                  rows.tolist()]
    column, packed = both_paths(monkeypatch, topology._hash_keys, rows)
    assert column.dtype == packed.dtype == np.uint64
    assert column.tolist() == packed.tolist()
    (column_r, column_v), (packed_r, packed_v) = both_paths(monkeypatch, topology._members, rows)
    assert column_r.tolist() == packed_r.tolist()
    assert column_v.tolist() == packed_v.tolist()
    assert sorted(zip(column_r.tolist(), column_v.tolist())) == \
        [(r, 64 * w + b) for r, row in enumerate(rows.tolist()) for w, word in enumerate(row)
         for b in range(64) if word >> b & 1]
    # the leaves' degree codes, in a random graph on 64·words vertices
    g = erdos_renyi(64 * words, 0.5, words)
    leaves = random_rows(words, 3000, 10 + words, most=4)
    column, packed = both_paths(monkeypatch, _degree_codes, leaves, adjacency_rows(g))
    masks = adjacency_masks(g)
    assert column.tolist() == packed.tolist() == \
        [degree_code(int.from_bytes(r.astype("<u8").tobytes(), "little"), masks) for r in leaves]


@pytest.mark.parametrize("n,p", [(128, 0.05), (129, 0.05), (128, 0.2), (129, 0.2)])
def test_closure_matches_recursion_at_the_width_boundary(n, p):
    # 128 vertices take two words and the column kernels, 129 three words and
    # the packed ones: the same values and spending, and the same raise one
    # subset short of the recursion's count
    g = erdos_renyi(n, p, rng.derive_seed(31, n, int(p * 100)))
    assert (topology._vertex_row(n).size <= topology._NARROW_WORDS) == (n <= 128)
    assert assert_closure_matches_recursion(g) == []
    full = (1 << n) - 1
    dimension = DimensionRecursion(g)
    dimension.value(full)
    clique = recursion_clique_polynomial(g, -1)
    clique.value(full)
    assert assert_closure_matches_recursion(g, dimension.spent - 1, clique.spent - 1,
                                            vertices=False) == \
        [RecursionBudgetExceeded, CliqueBudgetExceeded, CliqueBudgetExceeded]


# -- budgets --------------------------------------------------------------------

def dimension_subproblems(g):
    """Distinct nonempty vertex subsets the dimension recursion evaluates: the
    root, and below it every sphere, though one of at most four vertices is
    read from the table and not split into its own spheres."""
    sets = neighbor_sets(g)
    root = frozenset(range(g.n))
    seen = set()
    todo = [root]
    while todo:
        subset = todo.pop()
        if subset and subset not in seen:
            seen.add(subset)
            if subset is root or len(subset) > 4:
                todo.extend(sets[v] & subset for v in subset)
    return len(seen)


@pytest.mark.parametrize("g", [complete(6), erdos_renyi(14, 0.5, 3), erdos_renyi(20, 0.3, 4),
                               from_edge_list(3, []), complete(5)],
                         ids=["K6", "er14", "er20", "empty3", "K5"])
def test_budgets_count_distinct_subsets_and_cliques(g):
    # below the root of K5 every subset is table-valued, so one of those passes
    # the budget one less than the count
    spent = dimension_subproblems(g)
    assert inductive_dimension(g, budget=spent) == brute_inductive_dimension(g)
    with pytest.raises(RecursionBudgetExceeded, match=f"more than {spent - 1} dimension"):
        inductive_dimension(g, budget=spent - 1)
    spent = clique_subproblems(g)
    assert list(simplex_counts(g, budget=spent)) == brute_simplex_counts(g)
    with pytest.raises(CliqueBudgetExceeded, match=f"more than {spent - 1} clique subproblems"):
        simplex_counts(g, budget=spent - 1)


def test_large_clique_is_skipped_with_budget_reasons():
    # K1100's clique recursion evaluates only the 1099 prefixes {0..k}, k >= 1
    caps = Caps(clique_budget=10**5, dimension_budget=10**4)
    report = compute_report(complete(1100), ["dimension", "euler_char"], caps=caps)
    dim, chi = report.entries["dimension"], report.entries["euler_char"]
    assert dim.status == "skipped" and "more than 10000 dimension subproblems" in dim.reason
    assert chi.status == "ok" and chi.value == 1


def test_shared_memo_charges_the_budget_per_vertex():
    # the sphere of every vertex of K_30 is K_29, whose 2^29 subsets exceed
    # the default budget; sharing the memo must not lift that limit
    with pytest.raises(RecursionBudgetExceeded, match="more than 1000000 dimension"):
        local_profile(complete(30))


@pytest.mark.parametrize("g", [erdos_renyi(30, 0.5, 3), erdos_renyi(30, 0.15, 5),
                               erdos_renyi(25, 0.4, 2), complete(8), hub_graph(),
                               split_graph_and_triangles()],
                         ids=["er30-0.5", "er30-0.15", "er25", "K8", "hub68", "split53"])
def test_vertex_dimensions_charge_each_vertex_its_sequential_share(g):
    # the spheres share one closure in vertex order; the budget raises
    # exactly when some vertex's share passes it
    memo = DimensionRecursion(g)
    shares = []
    for mask in adjacency_masks(g):
        memo.dimension(mask)
        shares.append(memo.spent)
    most = max(shares)
    assert vertex_dimensions(g, budget=most) == pair_vertex_dimensions(g)
    with pytest.raises(RecursionBudgetExceeded, match=f"more than {most - 1} dimension"):
        vertex_dimensions(g, budget=most - 1)


def test_profile_charges_the_report_dimension_budget():
    # the sphere of a vertex of K8 is K7, which evaluates itself and its subsets
    # of 6, 5 and 4 vertices, 1 + 7 + 21 + 35 = 64; K8 evaluates 1 + 8 + 28 + 56 + 70 = 163
    with pytest.raises(RecursionBudgetExceeded, match="more than 5 dimension subproblems"):
        compute_report(complete(8), ["dimension"], caps=Caps(dimension_budget=5),
                       include_profile=True)
    report = compute_report(complete(8), ["dimension"], caps=Caps(dimension_budget=64),
                            include_profile=True)
    assert report.entries["dimension"].status == "skipped"
    assert [r.dimension for r in report.profile] == [7] * 8
    with pytest.raises(RecursionBudgetExceeded, match="more than 63 dimension subproblems"):
        local_profile(complete(8), dimension_budget=63)
    report = compute_report(complete(8), ["dimension"], caps=Caps(dimension_budget=163))
    assert report.entries["dimension"].value == 7
    report = compute_report(complete(8), ["dimension"], caps=Caps(dimension_budget=162))
    assert "more than 162 dimension subproblems" in report.entries["dimension"].reason


# -- relabelling ------------------------------------------------------------------

@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(relabelled_graphs())
def test_relabelling_leaves_dimension_and_euler_unchanged(pair):
    g, h = pair
    assert inductive_dimension(g) == inductive_dimension(h)
    assert euler_characteristic(g) == euler_characteristic(h)
    assert sorted(vertex_dimensions(g)) == sorted(vertex_dimensions(h))


# -- discrete Gauss-Bonnet (Knill, arXiv:1009.2292) ---------------------------------

def gauss_bonnet_sum(g):
    """Sum over x of K(x) = 1 + sum_k (-1)^(k+1) V_k(S(x)) / (k+2)."""
    total = Fraction(0)
    for x in range(g.n):
        counts = simplex_counts(sphere(g, x).graph).counts
        total += 1 + sum(Fraction((-1) ** (k + 1) * v, k + 2) for k, v in enumerate(counts))
    return total


def test_gauss_bonnet_on_every_small_graph():
    for n in range(6):
        for g in iter_graphs(n):
            assert gauss_bonnet_sum(g) == euler_characteristic(g)


def test_gauss_bonnet_on_seeded_er_draws():
    for seed in range(100):
        g = erdos_renyi(12, 0.45, rng.derive_seed(1009, seed))
        assert gauss_bonnet_sum(g) == euler_characteristic(g)
