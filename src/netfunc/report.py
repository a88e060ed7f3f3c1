"""Functional registry and report serialization.

A FunctionalReport maps functional names to values tagged with their
exactness kind.  Rationals travel as {num, den} decimal strings and big
integers as decimal strings, so exact values survive the wire; reals are
IEEE doubles.  Computations that hit a cap come back as skipped entries,
mathematically undefined ones as undefined entries.
"""

import csv
import io
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional

from . import combinatorial, metrics, spectral, topology
from .errors import (CliqueBudgetExceeded, Disconnected, EstimatorUndefined, InvalidParam,
                     NoEdges, RecursionBudgetExceeded, SingularZ, SizeCapExceeded,
                     TooSmall, UndefinedRatio, UnknownFunctional)
from .graph import connected_components

_SKIPS = (SizeCapExceeded, CliqueBudgetExceeded, RecursionBudgetExceeded)
_UNDEFINED = (Disconnected, NoEdges, UndefinedRatio, EstimatorUndefined,
              SingularZ, TooSmall)


@dataclass
class Caps:
    """Caps and budgets for the exact exponential functionals."""

    independence: int = combinatorial.INDEPENDENCE_CAP
    chromatic: int = combinatorial.CHROMATIC_CAP
    arboricity: int = combinatorial.ARBORICITY_CAP
    clique_budget: int = topology.CLIQUE_BUDGET
    dimension_budget: int = topology.DIMENSION_BUDGET

    @staticmethod
    def with_max_exact_n(limit):
        """One knob for all vertex caps (the CLI's --max-exact-n)."""
        return Caps(independence=limit, chromatic=limit, arboricity=limit)


def _curvature_action(g, caps):
    action = topology.curvature_summary(g).action
    if action is None:
        raise EstimatorUndefined("no_admissible_vertices")
    return action


def _complexity(g, caps):
    value = spectral.spectral_complexity(g).value
    if value is None:
        raise EstimatorUndefined("overflow")
    return value


def _edge_density(g, caps):
    if g.n < 2:
        raise TooSmall("edge density needs n >= 2")
    return Fraction(2 * g.m, g.n * (g.n - 1))


def _arboricity(g, caps):
    result = combinatorial.arboricity(g, cap=caps.arboricity)
    return result.value, {"witness": [[list(e) for e in forest]
                                      for forest in result.forests]}


# name -> (kind, compute(graph, caps))
FUNCTIONALS = {
    "char_length": ("rational", lambda g, c: metrics.characteristic_length(g)),
    "mean_cluster": ("rational", lambda g, c: metrics.mean_cluster(g)),
    "cluster_length_ratio": ("real", lambda g, c: metrics.cluster_length_ratio(g)),
    "wiener_index": ("integer", lambda g, c: metrics.wiener_index(g)),
    "distance_variance": ("integer", lambda g, c: metrics.distance_variance(g)),
    "mean_centrality": ("rational", lambda g, c: metrics.mean_centrality(g)),
    "magnitude": ("real", lambda g, c: metrics.magnitude(g)),
    "dimension": ("rational",
                  lambda g, c: topology.inductive_dimension(g, budget=c.dimension_budget)),
    "euler_char": ("integer",
                   lambda g, c: topology.euler_characteristic(g, budget=c.clique_budget)),
    "mean_degree": ("rational", lambda g, c: Fraction(2 * g.m, g.n) if g.n else Fraction(0)),
    "edge_density": ("rational", _edge_density),
    "curvature_action": ("real", _curvature_action),
    "complexity": ("real", _complexity),
    "log_complexity": ("real", lambda g, c: spectral.spectral_complexity(g).log_value),
    "forest_complexity": ("big-integer", lambda g, c: spectral.forest_complexity(g)),
    "tree_count": ("big-integer", lambda g, c: spectral.spanning_tree_count(g)),
    "trace_bound": ("real", lambda g, c: spectral.pseudoinverse_trace_bound(g)),
    "independence_number": ("integer",
                            lambda g, c: combinatorial.independence_number(g, cap=c.independence)),
    "chromatic_number": ("integer",
                         lambda g, c: combinatorial.chromatic_number(g, cap=c.chromatic)),
    "arboricity": ("integer", _arboricity),
    "scale_measure": ("rational", lambda g, c: combinatorial.scale_measure(g)),
    "length_estimate": ("real", lambda g, c: topology.length_estimate(g)),
}


@dataclass
class ReportEntry:
    kind: str
    status: str                  # ok | skipped | undefined
    value: object = None
    reason: Optional[str] = None
    seconds: float = 0.0
    extra: dict = field(default_factory=dict)


@dataclass
class FunctionalReport:
    n: int
    m: int
    components: int
    entries: dict
    profile: Optional[tuple] = None

    def to_json_dict(self):
        out = {
            "schema": "netfunc-report/1",
            "graph": {"n": self.n, "m": self.m, "components": self.components},
            "functionals": {},
        }
        for name, entry in self.entries.items():
            item = {"kind": entry.kind, "status": entry.status,
                    "seconds": round(entry.seconds, 6)}
            if entry.status == "ok":
                item["value"] = encode_value(entry.value, entry.kind)
            else:
                item["reason"] = entry.reason
            item.update(entry.extra)
            out["functionals"][name] = item
        if self.profile is not None:
            out["profile"] = [_profile_dict(rec) for rec in self.profile]
        return out

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["functional", "kind", "status", "value", "reason", "seconds"])
        for name, entry in self.entries.items():
            value = ""
            if entry.status == "ok":
                value = render_value(entry.value, entry.kind)
            writer.writerow([name, entry.kind, entry.status, value,
                             entry.reason or "", f"{entry.seconds:.6f}"])
        return buf.getvalue()


def encode_value(value, kind):
    if kind == "rational":
        frac = Fraction(value)
        return {"num": str(frac.numerator), "den": str(frac.denominator)}
    if kind == "big-integer":
        return str(int(value))
    if kind == "integer":
        return int(value)
    return float(value)


def render_value(value, kind):
    if kind == "rational":
        frac = Fraction(value)
        return f"{frac.numerator}/{frac.denominator}"
    return str(encode_value(value, kind))


def _profile_dict(rec):
    return {k: encode_value(v, "rational") if isinstance(v, Fraction) else v
            for k, v in asdict(rec).items()}


def compute_report(g, names=None, caps=None, include_profile=False):
    """Evaluate the requested functionals (all by default) on one graph."""
    caps = caps or Caps()
    if names is None:
        names = list(FUNCTIONALS)
    names = list(dict.fromkeys(names))  # each functional at most once
    if not names:
        raise InvalidParam("a report needs at least one functional")
    entries = {}
    for name in names:
        if name not in FUNCTIONALS:
            raise UnknownFunctional(name)
        kind, compute = FUNCTIONALS[name]
        started = time.perf_counter()
        extra = {}
        try:
            value = compute(g, caps)
            if isinstance(value, tuple):
                value, extra = value
            entry = ReportEntry(kind, "ok", value=value, extra=extra)
        except _SKIPS as exc:
            entry = ReportEntry(kind, "skipped", reason=_reason(exc))
        except _UNDEFINED as exc:
            entry = ReportEntry(kind, "undefined", reason=_reason(exc))
        entry.seconds = time.perf_counter() - started
        entries[name] = entry
    profile = metrics.local_profile(g, caps.dimension_budget) if include_profile else None
    return FunctionalReport(n=g.n, m=g.m, components=len(connected_components(g)),
                            entries=entries, profile=profile)


def _reason(exc):
    reason = getattr(exc, "reason", None)
    return reason if reason is not None else f"{type(exc).__name__}: {exc}"


REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "graph", "functionals"],
    "properties": {
        "schema": {"const": "netfunc-report/1"},
        "graph": {
            "type": "object",
            "required": ["n", "m", "components"],
            "properties": {"n": {"type": "integer"}, "m": {"type": "integer"},
                           "components": {"type": "integer"}},
        },
        "functionals": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["kind", "status"],
                "properties": {
                    "kind": {"enum": ["rational", "real", "integer", "big-integer"]},
                    "status": {"enum": ["ok", "skipped", "undefined"]},
                    "value": {
                        "oneOf": [
                            {"type": "number"},
                            {"type": "string"},
                            {"type": "object",
                             "required": ["num", "den"],
                             "properties": {"num": {"type": "string"},
                                            "den": {"type": "string"}}},
                        ]
                    },
                    "reason": {"type": "string"},
                    "seconds": {"type": "number"},
                },
            },
        },
        "profile": {"type": "array"},
    },
}
