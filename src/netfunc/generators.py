"""Graph families and seeded random models.

Every generator is a deterministic function of its parameters and seed.
Random models consume Philox substreams in a documented, fixed order, so a
given (spec, seed) always reproduces the same graph.  `MODELS` names each
model kind's builder and parameters; `ModelSpec` and `build_model` read it.
`build_model` refuses, before building, a model too large for physical memory.
"""

import numbers
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import InvalidParam
from .graph import _VERTEX_BYTES, Graph, _physical_memory, from_edge_list

MODEL_ALIASES = {"er": "erdos_renyi", "ws": "watts_strogatz", "ba": "barabasi_albert",
                 "bipartite": "complete_bipartite"}
_SHORT_NAMES = {kind: alias for alias, kind in MODEL_ALIASES.items()}


def _well_typed(name, value):
    """p is a real, generators a non-empty sequence, any other parameter an
    integer; numpy numbers qualify, bools and strings do not."""
    if isinstance(value, (bool, str)):
        return False
    if name == "generators":
        return isinstance(value, Sequence) and len(value) > 0
    return isinstance(value, numbers.Real if name == "p" else numbers.Integral)


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of a graph family or random model plus seed."""

    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODELS:
            raise InvalidParam(f"unknown model kind {self.kind!r}")
        for name in MODELS[self.kind][1]:
            flag = "generator" if name == "generators" else name  # one per orbital map
            if name not in self.params:
                raise InvalidParam(f"{self.kind} needs --{flag}")
            value = self.params[name]
            if not _well_typed(name, value):
                what = {"p": "a real number", "generators": "a non-empty sequence"}
                raise InvalidParam(f"{self.kind} --{flag} must be "
                                   f"{what.get(name, 'an integer')}, got {value!r}")

    def describe(self):
        """Canonical flat flag string, e.g. '--model er --n 50 --p 0.1 --seed 42'."""
        parts = [f"--model {_SHORT_NAMES.get(self.kind, self.kind)}"]
        for key in sorted(self.params):
            value = self.params[key]
            if key == "generators":
                parts.extend(f"--generator {_generator_text(gen)}" for gen in value)
            else:
                parts.append(f"--{key} {value}")
        parts.append(f"--seed {self.seed}")
        return " ".join(parts)


def build_model(spec):
    """Build the graph a ModelSpec names; raises InvalidParam on bad input and,
    before building, on a graph whose least footprint outweighs physical memory."""
    builder, names, seeded = MODELS[spec.kind]
    args = [spec.params[name] for name in names]
    vertices, edges = _least_size(spec.kind, spec.params)
    need = vertices * _VERTEX_BYTES + edges * _EDGE_BYTES
    if need > _physical_memory():
        raise InvalidParam(f"{spec.describe()} does not fit in memory: "
                           f"it needs at least {need} bytes")
    return builder(*args, spec.seed) if seeded else builder(*args)


# An edge holds at least its (u, v) tuple and that tuple's list slot (64 bytes on
# 64-bit CPython); complete(1500), complete_bipartite(800, 800),
# barabasi_albert(20000, 40, seed) and watts_strogatz(20000, 40, 0.1, seed)
# peak at 313, 220, 252 and 238 bytes per edge (Python 3.11, ru_maxrss).
_EDGE_BYTES = sys.getsizeof((0, 0)) + 8


def _least_size(kind, params):
    """(vertices, edges), neither more than the graph's; edges are counted for
    the models whose edges outgrow their vertices by more than a constant.
    For erdos_renyi they are half the mean μ = p·C(n, 2), which a draw falls
    below with probability at most e^(−μ/8) (Chernoff)."""
    if kind == "complete_bipartite":
        return params["a"] + params["b"], params["a"] * params["b"]
    n = params["n"]
    if kind == "complete":
        return n, n * (n - 1) // 2
    if kind == "barabasi_albert":
        return n, params["m"] * (n - params["m"])
    if kind == "watts_strogatz":
        return n, n * params["k"] // 2
    if kind == "erdos_renyi" and 0 <= params["p"] <= 1:  # the builder rejects any other p
        return n, int(params["p"] * (n * (n - 1) // 2) / 2)
    return n, 0


def complete(n):
    if n < 1:
        raise InvalidParam("complete graph needs n >= 1")
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n):
    """Cycle on n vertices; n=1 and n=2 degenerate to K_1 and K_2."""
    if n < 1:
        raise InvalidParam("cycle needs n >= 1")
    if n <= 2:
        return complete(n)
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    if n < 1:
        raise InvalidParam("path needs n >= 1")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def star(n):
    """Star with n leaves attached to center 0, on n+1 vertices."""
    if n < 1:
        raise InvalidParam("star needs n >= 1 leaves")
    return from_edge_list(n + 1, [(0, i) for i in range(1, n + 1)])


def wheel(n):
    """Wheel: an n-cycle (vertices 0..n-1) plus a hub (vertex n) joined to all."""
    if n < 3:
        raise InvalidParam("wheel needs rim size n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)]
    return from_edge_list(n + 1, edges)


def complete_bipartite(a, b):
    if a < 1 or b < 1:
        raise InvalidParam("complete bipartite needs a, b >= 1")
    return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def erdos_renyi(n, p, seed):
    """G(n, p): each pair u < v, in lexicographic order, kept with probability p.

    Row u draws its n - 1 - u uniforms in one call; numpy draws concatenate,
    so the stream is the same as one draw per pair in lexicographic order.
    """
    if n < 0:
        raise InvalidParam("erdos_renyi needs n >= 0")
    if not 0 <= p <= 1:
        raise InvalidParam("edge probability must lie in [0, 1]")
    gen = rng.generator(seed)
    adj = [[] for _ in range(n)]
    for u in range(n - 1):
        for v in (np.flatnonzero(gen.random(n - 1 - u) < p) + (u + 1)).tolist():
            adj[u].append(v)
            adj[v].append(u)
    return Graph(n, adj)


def watts_strogatz(n, k, p, seed):
    """Ring lattice with k/2 neighbors per side, each lattice edge rewired w.p. p.

    Rewiring scans offsets 1..k/2 and within each offset vertices 0..n-1; a
    rewired edge keeps its endpoint u and targets a uniform vertex that is
    neither u nor an existing neighbor of u.  Edge count is preserved.
    """
    if k < 2 or k % 2 != 0:
        raise InvalidParam("watts_strogatz needs even k >= 2")
    if k >= n:
        raise InvalidParam("watts_strogatz needs k < n")
    if not 0 <= p <= 1:
        raise InvalidParam("rewiring probability must lie in [0, 1]")
    gen = rng.generator(seed)
    adj = [set() for _ in range(n)]
    for j in range(1, k // 2 + 1):
        for u in range(n):
            adj[u].add((u + j) % n)
            adj[(u + j) % n].add(u)
    for j in range(1, k // 2 + 1):
        for u in range(n):
            v = (u + j) % n
            if gen.random() >= p:
                continue
            if len(adj[u]) >= n - 1:
                continue  # u saturated: no valid target, keep the lattice edge
            while True:
                w = int(gen.integers(0, n))
                if w != u and w not in adj[u]:
                    break
            adj[u].discard(v)
            adj[v].discard(u)
            adj[u].add(w)
            adj[w].add(u)
    return Graph(n, adj)


def barabasi_albert(n, m, seed):
    """Preferential attachment: start from K_{m+1}, each new vertex picks m
    distinct existing vertices with probability proportional to degree."""
    if m < 1 or m >= n:
        raise InvalidParam("barabasi_albert needs 1 <= m < n")
    gen = rng.generator(seed)
    edges = [(u, v) for u in range(m + 1) for v in range(u + 1, m + 1)]
    # endpoint multiset: vertex appears once per incident edge
    endpoints = [x for e in edges for x in e]
    for new in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(endpoints[int(gen.integers(0, len(endpoints)))])
        for t in sorted(targets):
            edges.append((t, new))
            endpoints.extend((t, new))
    return from_edge_list(n, edges)


def orbital(n, generators, seed):
    """Graph on Z_n with edges {x, T(x)} for each generator map T.

    Generators are ('quadratic', c), meaning T(x) = x^2 + c mod n, or
    ('permutation',), a uniform permutation drawn from the seeded stream
    (consumed in generator-list order).  Fixed points produce no edge.
    """
    if n < 2:
        raise InvalidParam("orbital needs n >= 2")
    if not generators:
        raise InvalidParam("orbital needs at least one generator")
    gen = rng.generator(seed)
    edges = set()
    for desc in generators:
        kind = desc[0]
        if kind == "quadratic":
            c = desc[1]
            images = [(x * x + c) % n for x in range(n)]
        elif kind == "permutation":
            images = [int(v) for v in gen.permutation(n)]
        else:
            raise InvalidParam(f"unknown orbital generator {desc!r}")
        for x, t in enumerate(images):
            if t != x:
                edges.add((min(x, t), max(x, t)))
    return from_edge_list(n, sorted(edges))


def parse_generator(text):
    """The orbital generator written as text ('quadratic:C' or 'permutation')."""
    if text == "permutation":
        return ("permutation",)
    if text.startswith("quadratic:"):
        try:
            return ("quadratic", int(text.split(":", 1)[1]))
        except ValueError:
            pass
    raise InvalidParam(f"bad generator {text!r}; use quadratic:C or permutation")


def _generator_text(gen):
    """The inverse of parse_generator."""
    return f"quadratic:{gen[1]}" if gen[0] == "quadratic" else "permutation"


# kind -> (builder, parameter names in call order, whether the builder takes the seed)
MODELS = {
    "complete": (complete, ("n",), False),
    "cycle": (cycle, ("n",), False),
    "path": (path, ("n",), False),
    "star": (star, ("n",), False),
    "wheel": (wheel, ("n",), False),
    "complete_bipartite": (complete_bipartite, ("a", "b"), False),
    "erdos_renyi": (erdos_renyi, ("n", "p"), True),
    "watts_strogatz": (watts_strogatz, ("n", "k", "p"), True),
    "barabasi_albert": (barabasi_albert, ("n", "m"), True),
    "orbital": (orbital, ("n", "generators"), True),
}
