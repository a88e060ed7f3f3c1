"""Graph construction, metric primitives and clique counting."""

import pickle
import sys
import tracemalloc

import numpy as np
import pytest

from netfunc import graph
from netfunc.errors import (CliqueBudgetExceeded, InvalidParam, LoopEdge, ParseError,
                            VertexOutOfRange)
from netfunc.generators import complete, cycle, erdos_renyi, path, star, wheel
from netfunc.experiments import bound_audit
from netfunc.graph import (UNREACHABLE, Graph, _bfs_parents, all_pairs_distances, ball,
                           connected_components, distance_levels, from_edge_list,
                           induced_subgraph, is_connected, read_edge_list, sphere,
                           vertex_set, write_edge_list)
from netfunc.report import compute_report
from netfunc.spectral import laplacian_spectrum
from netfunc.topology import simplex_counts

from conftest import (INF, bfs_distances, brute_simplex_counts, clique_subproblems,
                      flood_fill_components, floyd_warshall, graph_from_mask, iter_graphs,
                      iter_small_graphs, walk_simplex_counts)


def test_from_edge_list_triangle():
    g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert g == complete(3)


def test_from_edge_list_dedupes_symmetric_pair():
    g = from_edge_list(2, [(0, 1), (1, 0)])
    assert g.m == 1


def test_from_edge_list_rejects_loops_and_bad_ids():
    with pytest.raises(LoopEdge):
        from_edge_list(2, [(0, 0)])
    with pytest.raises(VertexOutOfRange):
        from_edge_list(2, [(0, 2)])


def test_graph_rejects_invalid_adjacency():
    with pytest.raises(InvalidParam):
        Graph(3, [[1], [], []])          # one-way edge
    with pytest.raises(InvalidParam):
        Graph(3, [[1], [0]])             # too few adjacency lists
    with pytest.raises(InvalidParam):
        Graph(2, [[1, 1], [0]])          # repeated neighbor
    with pytest.raises(LoopEdge):
        Graph(2, [[0, 1], [0]])
    with pytest.raises(VertexOutOfRange):
        Graph(2, [[2], []])
    with pytest.raises(VertexOutOfRange):
        Graph(2, [[-1], []])
    with pytest.raises(InvalidParam):
        Graph(2, [[1.0], [0]])
    with pytest.raises(InvalidParam, match="vertex count"):
        Graph(3.0, [[], [], []])
    # each list is its own mirror here, so comparing a vertex's list with the
    # lists that name it does not see these alone
    with pytest.raises(InvalidParam, match="^repeated neighbor of vertex 0$"):
        Graph(2, [[1, 1], [0, 0]])
    with pytest.raises(LoopEdge, match="^self-loop at vertex 0$"):
        Graph(1, [[0]])
    with pytest.raises(InvalidParam, match="^2 is a neighbor of 1 but not 1 of 2$"):
        Graph(3, [[1], [0, 2], [0]])
    assert Graph(3, [[1, 2], [0], [0]]) == from_edge_list(3, [(0, 1), (0, 2)])


@pytest.mark.parametrize("count", [3.0, "3", None])
def test_from_edge_list_refuses_a_non_integer_vertex_count(count):
    with pytest.raises(InvalidParam, match="vertex count"):
        from_edge_list(count, [])


def test_from_edge_list_takes_a_numpy_vertex_count():
    g = from_edge_list(np.int64(3), [(0, 1)])
    assert type(g.n) is int
    assert g == from_edge_list(3, [(0, 1)])


def test_numpy_vertex_ids_become_ints():
    edges = [(np.int64(u), np.int64(v)) for u, v in [(0, 70), (70, 71), (0, 71)]]
    g = from_edge_list(72, edges)
    assert all(type(v) is int for row in g.adj for v in row)
    assert simplex_counts(g) == (72, 3, 1)
    g = Graph(np.int64(72), g.adj)
    assert type(g.n) is int
    assert simplex_counts(g) == (72, 3, 1)


def test_each_vertex_id_is_one_int_object():
    # ids past 256 are new objects each time they are made; the graph keeps
    # one per vertex, whichever end of whichever edge named it
    pairs = [(u, v) for u in range(300, 400) for v in range(u + 1, 400)]
    g = from_edge_list(400, [(int(str(u)), int(str(v))) for u, v in pairs])
    assert list(g.edges()) == pairs
    ends = [v for row in g.adj for v in row]
    assert len(ends) == 2 * len(pairs)
    assert len({id(v) for v in ends}) == 100


def test_a_graph_holds_its_adjacency_once():
    # the sorted tuples are the whole adjacency: building K_400 leaves behind
    # less than twice their size
    pairs = [(u, v) for u in range(400) for v in range(u + 1, 400)]
    tracemalloc.start()
    try:
        g = from_edge_list(400, pairs)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tuples = sum(sys.getsizeof(row) for row in g.adj) + sys.getsizeof(g.adj)
    assert retained < 2 * tuples


def test_neighbor_arrays_are_one_read_only_copy():
    g = erdos_renyi(30, 0.3, 5)
    degrees, neighbors = graph.neighbor_arrays(g)
    assert graph.neighbor_arrays(g) is graph.neighbor_arrays(g)
    assert not degrees.flags.writeable and not neighbors.flags.writeable
    assert degrees.tolist() == [len(row) for row in g.adj]
    assert neighbors.tolist() == [v for row in g.adj for v in row]
    with pytest.raises(ValueError):
        neighbors[0] = 0


def test_simplex_counts_is_a_hashable_tuple():
    counts = simplex_counts(complete(4))
    assert (counts == None) is False  # noqa: E711  (compares, does not raise)
    assert hash(counts) == hash((4, 6, 4, 1))
    assert type(counts.counts) is tuple and counts.counts == (4, 6, 4, 1)


def test_distances_complete_and_path():
    d = all_pairs_distances(complete(4))
    assert all(d[x, y] == 1 for x in range(4) for y in range(4) if x != y)
    d = all_pairs_distances(path(3))
    assert d[0, 2] == 2 and d[0, 1] == 1


def test_distances_disconnected_marker():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    d = all_pairs_distances(g)
    assert d[0, 2] == UNREACHABLE
    assert d[1, 3] == UNREACHABLE
    assert d[0, 1] == 1


@pytest.mark.parametrize("n", range(7))
def test_distances_match_floyd_warshall_exhaustively(n):
    # every labelling up to n = 5, one seeded labelling per isomorphism class at 6
    for g in iter_small_graphs(n):
        expect = [[UNREACHABLE if e == INF else e for e in row] for row in floyd_warshall(g)]
        assert all_pairs_distances(g).tolist() == expect


def test_distance_edge_iff_one_hop():
    g = graph_from_mask(6, 0b101011010101011)
    d = all_pairs_distances(g)
    for x in range(6):
        assert d[x, x] == 0
        for y in range(6):
            assert d[x, y] == d[y, x]
            assert (d[x, y] == 1) == g.has_edge(x, y)


def test_sphere_examples():
    assert sphere(complete(4), 2).graph == complete(3)
    sph = sphere(cycle(5), 0).graph
    assert sph.n == 2 and sph.m == 0
    hub_sphere = sphere(wheel(5), 5).graph  # hub is the last vertex
    assert hub_sphere == cycle(5)


def test_ball_examples():
    assert ball(complete(4), 1).graph == complete(4)
    b = ball(cycle(5), 0).graph
    assert b.n == 3 and b.m == 2  # path centered at x
    s = star(4)
    assert ball(s, 0).graph == s


def test_sphere_ball_sizes_match_degree():
    g = graph_from_mask(7, 0b100110101011010101011)
    for x in range(7):
        assert sphere(g, x).graph.n == g.degree(x)
        assert ball(g, x).graph.n == g.degree(x) + 1


def test_induced_subgraph():
    sub = induced_subgraph(complete(4), {0, 1, 2})
    assert sub.graph == complete(3)
    assert sub.vertices == (0, 1, 2)
    sub = induced_subgraph(cycle(6), {0, 2, 4})
    assert sub.graph.m == 0
    assert induced_subgraph(cycle(6), set()).graph.n == 0


@pytest.mark.parametrize("vertices, error", [
    ([0, -1], VertexOutOfRange), ([0, 4], VertexOutOfRange), ([0, 9], VertexOutOfRange),
    ([0, 0, 1], InvalidParam), ([1, 1], InvalidParam), ([0, 1.0], InvalidParam),
    (["0"], InvalidParam), ([None], InvalidParam)])
def test_vertex_sets_refuse_bad_ids(vertices, error):
    with pytest.raises(error):
        vertex_set(path(4), vertices)
    with pytest.raises(error):
        induced_subgraph(path(4), vertices)


def test_vertex_set_sorts_and_takes_numpy_ids():
    assert vertex_set(path(4), np.array([3, 0, 2])) == (0, 2, 3)
    assert induced_subgraph(path(4), np.array([3, 2])).vertices == (2, 3)
    assert vertex_set(path(4), ()) == ()


@pytest.mark.parametrize("x, error", [(-1, VertexOutOfRange), (4, VertexOutOfRange),
                                      (1.0, InvalidParam), (None, InvalidParam)])
def test_sphere_and_ball_refuse_bad_ids(x, error):
    with pytest.raises(error):
        sphere(path(4), x)
    with pytest.raises(error):
        ball(path(4), x)


@pytest.mark.parametrize("g", [path(4), star(4)], ids=["path4", "star4"])
def test_degree_and_has_edge_refuse_bad_ids(g):
    for bad in (-1, g.n):
        with pytest.raises(VertexOutOfRange):
            g.degree(bad)
        with pytest.raises(VertexOutOfRange):
            g.has_edge(bad, 0)
        with pytest.raises(VertexOutOfRange):
            g.has_edge(0, bad)
    with pytest.raises(InvalidParam):
        g.degree(1.0)
    with pytest.raises(InvalidParam):
        g.has_edge(0, "1")
    assert g.degree(np.int64(1)) == g.degree(1) == len(g.adj[1])
    assert g.has_edge(np.int64(1), 0) and not g.has_edge(0, 0)


def test_simplex_counts_examples(octahedron):
    assert simplex_counts(complete(4)) == (4, 6, 4, 1)
    assert simplex_counts(cycle(5)) == (5, 5)
    assert simplex_counts(octahedron) == tuple(brute_simplex_counts(octahedron))
    assert simplex_counts(octahedron) == (6, 12, 8)


@pytest.mark.parametrize("mask", [0, 1, 0b1010101010, 0b1111111111, 0b1011011101])
def test_simplex_counts_match_brute_force(mask):
    g = graph_from_mask(5, mask)
    counts = simplex_counts(g)
    assert list(counts.counts) == brute_simplex_counts(g)
    assert counts[0] == g.n
    if len(counts) > 1:
        assert counts[1] == g.m


def test_simplex_budget():
    # K10 needs only its 9 prefixes {0..k}, k >= 1; this draw needs more than 100 subsets
    g = erdos_renyi(30, 0.5, 2)
    spent = clique_subproblems(g)
    assert spent > 100
    assert simplex_counts(g, budget=spent) == walk_simplex_counts(g)
    with pytest.raises(CliqueBudgetExceeded, match=f"more than {spent - 1} clique subproblems"):
        simplex_counts(g, budget=spent - 1)
    with pytest.raises(CliqueBudgetExceeded, match="more than 100 clique subproblems"):
        simplex_counts(g, budget=100)


def test_connected_components():
    assert connected_components(complete(5)) == (tuple(range(5)),)
    two = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert connected_components(two) == ((0, 1, 2), (3, 4, 5))
    assert connected_components(from_edge_list(3, [])) == ((0,), (1,), (2,))
    assert connected_components(two) is connected_components(two)  # cached
    assert connected_components(from_edge_list(0, [])) == ()
    assert is_connected(from_edge_list(0, []))
    assert is_connected(from_edge_list(1, []))
    assert not is_connected(from_edge_list(2, []))
    assert is_connected(from_edge_list(2, [(0, 1)]))


def test_graph_pickles_with_its_cached_values():
    g = cycle(6)
    levels, comps, spec = distance_levels(g), connected_components(g), laplacian_spectrum(g)
    h = pickle.loads(pickle.dumps(g))
    assert h == g and hash(h) == hash(g)
    assert (distance_levels(h), connected_components(h), laplacian_spectrum(h)) == \
        (levels, comps, spec)


@pytest.mark.parametrize("p, seed, components", [(0.05, 2, 1), (0.02, 0, 3)])
def test_one_partition_serves_every_connectivity_guard(monkeypatch, p, seed, components):
    # ER(200, 0.05) seed 2 is connected, ER(200, 0.02) seed 0 has three
    # components: the report and the audit each run one BFS per component
    calls = []
    bfs = graph._bfs_parents

    def counting(adj, source):
        calls.append(adj)
        return bfs(adj, source)

    monkeypatch.setattr(graph, "_bfs_parents", counting)
    for run in (compute_report, bound_audit):
        g = erdos_renyi(200, p, seed)
        calls.clear()
        run(g)
        assert len(connected_components(g)) == components
        assert sum(adj is g.adj for adj in calls) == components


@pytest.mark.parametrize("n", range(7))
def test_connected_components_match_flood_fill_exhaustively(n):
    for g in iter_graphs(n):
        assert connected_components(g) == flood_fill_components(g)


@pytest.mark.parametrize("n", [10, 100, 500, 2000])
@pytest.mark.parametrize("seed", [0, 1])
def test_connected_components_match_flood_fill_on_sparse_draws(n, seed):
    g = erdos_renyi(n, 1 / n, seed)  # mean degree 1: many components
    comps = connected_components(g)
    assert len(comps) > 1
    assert comps == flood_fill_components(g)


@pytest.mark.parametrize("n", [10, 100, 500])
def test_bfs_parents_is_a_shortest_path_tree_in_bfs_order(n):
    g = erdos_renyi(n, 3 / n, 4)
    dist = bfs_distances(g)[0]
    parent = _bfs_parents(g.adj, 0)
    assert set(parent) == {v for v in range(n) if dist[v] != UNREACHABLE}
    assert [dist[v] for v in parent] == sorted(dist[v] for v in parent)
    assert parent[0] is None
    for v, p in parent.items():
        assert v == 0 or (g.has_edge(p, v) and dist[p] == dist[v] - 1)


def test_edge_list_round_trip(tmp_path):
    g = graph_from_mask(6, 0b101101001110101)
    target = tmp_path / "g.edges"
    write_edge_list(g, target, header_comments=["round trip"])
    assert read_edge_list(target) == g


def test_edge_list_parse_errors(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("n 3\n2 2\n")
    with pytest.raises(ParseError) as info:
        read_edge_list(bad)
    assert info.value.line == 2
    bad.write_text("0 1\n")
    with pytest.raises(ParseError):
        read_edge_list(bad)
    bad.write_text("# only a comment\n")
    with pytest.raises(ParseError):
        read_edge_list(bad)
