"""Deterministic families and seeded random models."""

from fractions import Fraction

import numpy as np
import pytest

from netfunc import generators
from netfunc.errors import InvalidParam
from netfunc.generators import (MODELS, ModelSpec, barabasi_albert, build_model, complete,
                                complete_bipartite, cycle, erdos_renyi, orbital, path, star,
                                watts_strogatz, wheel)
from netfunc.graph import connected_components, from_edge_list
from netfunc.metrics import mean_cluster


def test_families():
    assert build_model(ModelSpec("complete", {"n": 4})).m == 6
    w = build_model(ModelSpec("wheel", {"n": 5}))
    assert w.n == 6 and w.m == 10
    assert build_model(ModelSpec("complete_bipartite", {"a": 4, "b": 4})).m == 16
    assert path(5).m == 4
    assert star(4).n == 5 and star(4).degree(0) == 4
    assert cycle(7).m == 7
    assert cycle(2) == complete(2)  # degenerate ring


@pytest.mark.parametrize("kind,params,vertices,edges", [
    ("complete", {"n": 50}, 50, 1225),
    ("complete_bipartite", {"a": 30, "b": 40}, 70, 1200),
    ("barabasi_albert", {"n": 60, "m": 3}, 60, 171),
    ("watts_strogatz", {"n": 60, "k": 6, "p": 0.3}, 60, 180),
    ("erdos_renyi", {"n": 60, "p": 0.5}, 60, 442),  # ⌊p·C(n, 2)/2⌋
    ("wheel", {"n": 60}, 60, 0),
], ids=["complete", "bipartite", "ba", "ws", "er", "wheel"])
def test_build_model_refuses_what_does_not_fit(monkeypatch, kind, params, vertices, edges):
    # the footprint counts vertices, and edges where they outgrow the vertices;
    # the graph builds at exactly that much memory and is refused at one byte less
    spec = ModelSpec(kind, params, seed=1)
    need = vertices * generators._VERTEX_BYTES + edges * generators._EDGE_BYTES
    monkeypatch.setattr(generators, "_physical_memory", lambda: need)
    g = build_model(spec)
    assert g.n >= vertices and g.m >= edges
    monkeypatch.setattr(generators, "_physical_memory", lambda: need - 1)
    with pytest.raises(InvalidParam, match=f"does not fit in memory: it needs at least {need} "):
        build_model(spec)


def test_family_invalid_params():
    with pytest.raises(InvalidParam):
        wheel(2)
    with pytest.raises(InvalidParam):
        build_model(ModelSpec("complete", {}))
    with pytest.raises(InvalidParam):
        build_model(ModelSpec("no_such_model", {"n": 3}))


# one full parameter set per kind; test_describe_round_trips_flags builds each
PARAMS = {"complete": {"n": 4}, "cycle": {"n": 5}, "path": {"n": 4}, "star": {"n": 3},
          "wheel": {"n": 5}, "complete_bipartite": {"a": 2, "b": 3},
          "erdos_renyi": {"n": 5, "p": 0.5}, "watts_strogatz": {"n": 8, "k": 2, "p": 0.5},
          "barabasi_albert": {"n": 5, "m": 1},
          "orbital": {"n": 9, "generators": (("quadratic", 2), ("permutation",))}}


@pytest.mark.parametrize("kind, name", [(kind, name) for kind, (_, names, _) in MODELS.items()
                                        for name in names])
def test_spec_missing_parameter_names_its_flag(kind, name):
    params = {k: v for k, v in PARAMS[kind].items() if k != name}
    flag = "--generator" if name == "generators" else f"--{name}"
    with pytest.raises(InvalidParam, match=f"^{kind} needs {flag}$"):
        ModelSpec(kind, params, seed=1)


@pytest.mark.parametrize("kind, params, message", [
    ("erdos_renyi", {"n": 5.5, "p": 0.5}, "--n must be an integer, got 5.5"),
    ("watts_strogatz", {"n": 8, "k": 2, "p": "0.5"}, "--p must be a real number"),
    ("erdos_renyi", {"n": 5, "p": True}, "--p must be a real number"),
    ("complete", {"n": False}, "--n must be an integer"),
    ("orbital", {"n": 9, "generators": ()}, "--generator must be a non-empty sequence"),
])
def test_spec_rejects_mistyped_parameter(kind, params, message):
    with pytest.raises(InvalidParam, match=f"^{kind} {message}"):
        ModelSpec(kind, params)


def test_spec_accepts_numpy_numbers():
    spec = ModelSpec("erdos_renyi", {"n": np.int64(12), "p": np.float64(0.5)}, seed=4)
    assert build_model(spec) == erdos_renyi(12, 0.5, 4)


def test_er_extremes_and_determinism():
    assert erdos_renyi(9, 0.0, 3).m == 0
    assert erdos_renyi(9, 1.0, 3) == complete(9)
    assert erdos_renyi(10, 0.5, 7) == erdos_renyi(10, 0.5, 7)
    assert erdos_renyi(10, 0.5, 7) != erdos_renyi(10, 0.5, 8)
    with pytest.raises(InvalidParam):
        erdos_renyi(5, 1.5, 0)


@pytest.mark.parametrize("n, p", [(0, 0.5), (1, 0.5), (2, 1.0), (50, 0.1), (200, 0.05),
                                  (300, 0.0), (120, 1.0), (77, 0.3)])
def test_er_rows_match_one_draw_per_pair(n, p):
    # the original generator: one uniform per pair u < v, in lexicographic order
    from netfunc import rng
    for seed in (0, 1, 12345):
        draws = rng.generator(seed).random(n * (n - 1) // 2)
        edges = []
        i = 0
        for u in range(n):
            for v in range(u + 1, n):
                if draws[i] < p:
                    edges.append((u, v))
                i += 1
        assert erdos_renyi(n, p, seed) == from_edge_list(n, edges)


def test_er_edge_count_statistics():
    # mean edge count over 1000 seeds within 4 standard deviations of the
    # binomial mean for C(10,2) = 45 trials at p = 1/2
    import math
    total = sum(erdos_renyi(10, 0.5, seed).m for seed in range(1000))
    mean = total / 1000
    sd_of_mean = math.sqrt(45 * 0.25) / math.sqrt(1000)
    assert abs(mean - 22.5) <= 4 * sd_of_mean


def test_ws_lattice_and_rewiring():
    assert watts_strogatz(8, 2, 0.0, 5) == cycle(8)
    # no rewiring: ring-lattice clustering has the closed form 3(k-2)/(4(k-1))
    for k in (4, 6):
        g = watts_strogatz(24, k, 0.0, 5)
        assert mean_cluster(g) == Fraction(3 * (k - 2), 4 * (k - 1))
    g = watts_strogatz(20, 4, 1.0, 11)
    assert g.m == 20 * 4 // 2
    assert watts_strogatz(20, 4, 0.1, 2) == watts_strogatz(20, 4, 0.1, 2)
    with pytest.raises(InvalidParam):
        watts_strogatz(10, 3, 0.1, 0)
    with pytest.raises(InvalidParam):
        watts_strogatz(4, 4, 0.1, 0)


def test_ba_edge_counts():
    assert barabasi_albert(3, 2, 1) == complete(3)  # seed clique only
    tree = barabasi_albert(40, 1, 9)
    assert tree.m == 39
    assert len(connected_components(tree)) == 1
    g = barabasi_albert(50, 2, 4)
    assert g.m == 3 + 2 * (50 - 3)
    assert barabasi_albert(50, 2, 4) == barabasi_albert(50, 2, 4)
    with pytest.raises(InvalidParam):
        barabasi_albert(5, 5, 0)


def test_orbital_quadratic():
    g = orbital(5, [("quadratic", 0)], seed=1)
    assert g == from_edge_list(5, [(1, 4), (2, 4), (3, 4)])
    # quadratic generators ignore the seed entirely
    assert orbital(7, [("quadratic", 1), ("quadratic", 3)], 1) == \
        orbital(7, [("quadratic", 1), ("quadratic", 3)], 99)


def test_orbital_permutation_orbits():
    g = orbital(12, [("permutation",)], seed=3)
    assert all(g.degree(x) <= 2 for x in range(12))  # union of cycles
    assert orbital(12, [("permutation",)], 3) == orbital(12, [("permutation",)], 3)
    with pytest.raises(InvalidParam):
        orbital(1, [("permutation",)], 0)
    with pytest.raises(InvalidParam):
        orbital(5, [("cubic", 2)], 0)


def test_describe_round_trips_flags():
    from netfunc import cli, generators

    spec = ModelSpec("erdos_renyi", {"n": 50, "p": 0.1}, seed=42)
    assert spec.describe() == "--model er --n 50 --p 0.1 --seed 42"
    assert cli.MODEL_ALIASES is generators.MODEL_ALIASES
    names = {kind: kind for kind in generators.MODELS}
    names.update((kind, alias) for alias, kind in generators.MODEL_ALIASES.items())
    assert set(PARAMS) == set(names)  # every kind, aliased ones by their alias
    for kind, flag in names.items():
        spec = ModelSpec(kind, PARAMS[kind], seed=3)
        text = spec.describe()
        assert text.startswith(f"--model {flag} ")
        args = cli.build_parser().parse_args(["generate"] + text.split())
        assert cli._model_spec(args) == spec
        assert build_model(cli._model_spec(args)) == build_model(spec)
    orb = ModelSpec("orbital", {"n": 9, "generators": (("quadratic", 2), ("permutation",))},
                    seed=5)
    assert "--generator quadratic:2" in orb.describe()
    assert "--generator permutation" in orb.describe()
