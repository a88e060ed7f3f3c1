"""Command-line interface.

Subcommands: analyze, generate, sweep, extremal, continuum, audit.
Exit codes: 0 ok, 1 invalid input, 2 edge-list parse error, 3 cap exceeded
under --strict, 4 unknown functional name.
"""

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import continuum as continuum_mod
from . import experiments, report
from .errors import InvalidParam, NetfuncError, ParseError, UnknownFunctional
from .generators import MODEL_ALIASES, MODELS, ModelSpec, build_model, parse_generator
from .graph import open_text, read_edge_list, write_edge_list


def _at_least(low, name):
    """An argparse type: an integer >= low, else InvalidParam naming `name`.

    argparse converts a string default such as $NETFUNC_WORKERS only after
    the arguments are read, so --help still works when the default is bad.
    """
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise InvalidParam(f"{name} must be an integer >= {low}, got {text!r}")
        return value
    return parse


def _common_flags(parser):
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--workers", type=_at_least(1, "--workers ($NETFUNC_WORKERS)"),
                        default=os.environ.get("NETFUNC_WORKERS", "1"),
                        help="parallel fan-out (default $NETFUNC_WORKERS or 1)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--strict", action="store_true",
                        help="exit 3 when a cap forces a functional to be skipped")
    parser.add_argument("--max-exact-n", type=_at_least(0, "--max-exact-n"), default=None,
                        help="override the vertex caps of the exact searches")
    parser.add_argument("--output", default=None, help="write here instead of stdout")


def _emit(args, text):
    if args.output:
        with open_text(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _caps(args):
    if args.max_exact_n is not None:
        return report.Caps.with_max_exact_n(args.max_exact_n)
    return report.Caps()


def _model_flags(parser):
    parser.add_argument("--model", required=True,
                        help=f"one of {', '.join(sorted(set(MODELS) | set(MODEL_ALIASES)))}")
    parser.add_argument("--n", type=int, help="vertex count / family size")
    parser.add_argument("--a", type=int, help="first part size (bipartite)")
    parser.add_argument("--b", type=int, help="second part size (bipartite)")
    parser.add_argument("--p", type=float, help="edge / rewiring probability")
    parser.add_argument("--k", type=int, help="ring-lattice degree (watts_strogatz)")
    parser.add_argument("--m", type=int, help="attachment count (barabasi_albert)")
    parser.add_argument("--generator", dest="generators", action="append", metavar="SPEC",
                        help="orbital map: quadratic:C or permutation")


def _model_spec(args, n=None):
    """The ModelSpec of the model flags, with `n`, when given, in place of --n."""
    kind = MODEL_ALIASES.get(args.model, args.model)
    flags = {**vars(args), "n": args.n if n is None else n}
    names = MODELS[kind][1] if kind in MODELS else ()
    params = {name: flags[name] for name in names if flags[name] is not None}
    if "generators" in params:
        params["generators"] = tuple(parse_generator(s) for s in params["generators"])
    return ModelSpec(kind, params, seed=args.seed)


def _names(text, every):
    """The names in the comma list `text`, empty ones dropped; `every` for 'all'."""
    if text == "all":
        return tuple(every)
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _render(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value if value is None or isinstance(value, (int, float, str)) else str(value)


# -- subcommands ----------------------------------------------------------------

def cmd_analyze(args):
    graph = read_edge_list(args.input)
    names = _names(args.functionals, report.FUNCTIONALS)
    rep = report.compute_report(graph, names=names, caps=_caps(args),
                                include_profile=args.profile)
    _emit(args, report.report_json(rep) if args.format == "json" else rep.to_csv())
    if args.strict and any(e.status == "skipped" for e in rep.entries.values()):
        return 3
    return 0


def cmd_generate(args):
    spec = _model_spec(args)
    graph = build_model(spec)
    if args.output:
        write_edge_list(graph, args.output, header_comments=[spec.describe()])
        print(f"wrote {graph.n} vertices, {graph.m} edges: {spec.describe()}")
    else:
        print(f"# {spec.describe()}")
        print(f"n {graph.n}")
        for u, v in graph.edges():
            print(u, v)
    return 0


def cmd_sweep(args):
    spec = _model_spec(args, n=0)  # validates the flags; n comes from the list
    try:
        n_list = [int(x) for x in args.n_list.split(",")]
    except ValueError:
        raise NetfuncError(f"bad --n-list {args.n_list!r}; use integers N1,N2,...") from None
    params = {k: v for k, v in spec.params.items() if k != "n"}
    records = experiments.growth_sweep(spec.kind, params, n_list, args.seeds,
                                       seed=args.seed, workers=args.workers)
    if args.format == "json":
        _emit(args, json.dumps([_record_dict(r) for r in records], indent=2))
    else:
        _emit(args, _records_csv(records))
    return 0


def _record_dict(rec):
    out = {name: getattr(rec, name) for name in experiments.SWEEP_FIELDS}
    out.update((f"{name}_flag", rec.flags.get(name)) for name in experiments.SWEEP_FUNCTIONALS)
    return out


def _records_csv(records):
    buf = io.StringIO()
    names = list(experiments.SWEEP_FIELDS)
    names += [f"{name}_flag" for name in experiments.SWEEP_FUNCTIONALS]
    writer = csv.DictWriter(buf, fieldnames=names)
    writer.writeheader()
    for rec in records:
        row = {k: ("" if v is None else v) for k, v in _record_dict(rec).items()}
        writer.writerow(row)
    return buf.getvalue()


def cmd_extremal(args):
    wants = _names(args.functional, experiments.EXTREMAL_FUNCTIONALS)
    rep = experiments.extremal_search(args.n, functionals=wants,
                                      workers=args.workers, bins=args.bins)
    if args.format == "json":
        _emit(args, json.dumps(_extremal_dict(rep), indent=2))
    else:
        _emit(args, _extremal_csv(rep))
    return 0


def _witness_edges(graph):
    return sorted(graph.edges()) if graph is not None else None


def _extremal_dict(rep):
    out = {"n": rep.n, "total_masks": rep.total_masks,
           "connected_count": rep.connected_count, "results": {}}
    for name, res in rep.results.items():
        out["results"][name] = {
            "evaluated": res.evaluated,
            "undefined": res.undefined,
            "min": _render(res.min_value),
            "max": _render(res.max_value),
            "min_witness_edges": _witness_edges(res.min_witness),
            "max_witness_edges": _witness_edges(res.max_witness),
            "histogram": {"lo": res.histogram.lo, "hi": res.histogram.hi,
                          "counts": list(res.histogram.counts)},
        }
    return out


def _extremal_csv(rep):
    buf = io.StringIO()
    buf.write(f"# n={rep.n} connected_count={rep.connected_count}\n")
    for name, res in rep.results.items():
        buf.write(f"# {name} min={_render(res.min_value)} "
                  f"witness={_witness_edges(res.min_witness)}\n")
        buf.write(f"# {name} max={_render(res.max_value)} "
                  f"witness={_witness_edges(res.max_witness)}\n")
    writer = csv.writer(buf)
    writer.writerow(["functional", "bin_lo", "bin_hi", "count"])
    for name, res in rep.results.items():
        edges = res.histogram.bin_edges()
        for i, count in enumerate(res.histogram.counts):
            writer.writerow([name, edges[i], edges[i + 1], count])
    return buf.getvalue()


def cmd_continuum(args):
    space_cls = continuum_mod.SPACES[args.space]  # argparse choices reject other names
    if args.space != "sphere_area1":
        space = space_cls(1.0 if args.side is None else args.side)
    elif args.side is None:
        space = space_cls()
    else:
        raise InvalidParam("sphere_area1 has a fixed area of 1 and takes no --side")
    radius = 0.01 if args.radius is None else args.radius
    if args.quantity == "length":
        if args.radius is not None:
            raise InvalidParam("--quantity length takes no --radius")
        est = continuum_mod.mc_characteristic_length(space, args.samples, args.seed,
                                                     workers=args.workers)
    elif args.quantity == "cluster":
        est = continuum_mod.mc_mean_cluster(space, radius, args.samples,
                                            args.seed, workers=args.workers)
    else:
        value = continuum_mod.continuum_ratio(space, radius, args.samples,
                                               args.seed, workers=args.workers)
        _emit(args, json.dumps({"estimate": value, "samples": args.samples}))
        return 0
    _emit(args, json.dumps({"estimate": est.estimate, "std_error": est.std_error,
                            "samples": est.samples}))
    return 0


def cmd_audit(args):
    graph = read_edge_list(args.input)
    caps = _caps(args)
    checks = experiments.bound_audit(graph, independence_cap=caps.independence,
                                     chromatic_cap=caps.chromatic,
                                     arboricity_cap=caps.arboricity)
    if args.format == "json":
        rows = [{"name": c.name, "lhs": _render(c.lhs), "rhs": _render(c.rhs),
                 "holds": c.holds, "note": c.note} for c in checks]
        _emit(args, json.dumps(rows, indent=2))
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "lhs", "rhs", "holds", "note"])
        for c in checks:
            writer.writerow([c.name, _render(c.lhs), _render(c.rhs),
                             "" if c.holds is None else c.holds, c.note])
        _emit(args, buf.getvalue())
    if args.strict and any(c.holds is None for c in checks):
        return 3
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="netfunc",
                                     description="graph functional toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="evaluate functionals on an edge-list file")
    p.add_argument("input")
    p.add_argument("--functionals", default="all",
                   help="comma list (default all): " + ", ".join(report.FUNCTIONALS))
    p.add_argument("--profile", action="store_true", help="include per-vertex records")
    _common_flags(p)
    p.set_defaults(run=cmd_analyze)

    p = sub.add_parser("generate", help="write a model draw as an edge-list file")
    _model_flags(p)
    _common_flags(p)
    p.set_defaults(run=cmd_generate)

    p = sub.add_parser("sweep", help="sweep a model family over vertex counts")
    _model_flags(p)
    p.add_argument("--n-list", required=True, metavar="N1,N2,...",
                   help="comma-separated vertex counts")
    p.add_argument("--seeds", type=int, default=10, help="replicates per n")
    _common_flags(p)
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("extremal", help="scan all connected graphs on n <= 8 vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--functional", default="all",
                   help="comma list of " + ", ".join(experiments.EXTREMAL_FUNCTIONALS))
    p.add_argument("--bins", type=int, default=64)
    _common_flags(p)
    p.set_defaults(run=cmd_extremal)

    p = sub.add_parser("continuum", help="Monte-Carlo estimates on model spaces")
    p.add_argument("--space", required=True, choices=sorted(continuum_mod.SPACES))
    p.add_argument("--side", type=float, help="torus side length (default 1)")
    p.add_argument("--radius", type=float,
                   help="sphere radius for cluster and ratio (default 0.01)")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--quantity", choices=("length", "cluster", "ratio"),
                   default="length")
    _common_flags(p)
    p.set_defaults(run=cmd_continuum)

    p = sub.add_parser("audit", help="check every length/coloring bound on a graph")
    p.add_argument("input")
    _common_flags(p)
    p.set_defaults(run=cmd_audit)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UnknownFunctional as exc:
        print(f"unknown functional: {exc}", file=sys.stderr)
        return 4
    except NetfuncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
