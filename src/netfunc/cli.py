"""Command-line interface.

Subcommands: analyze, generate, sweep, extremal, continuum, audit.
Exit codes: 0 ok, 1 usage, invalid input or file access, 2 edge-list parse
error, 3 cap exceeded under --strict, 4 unknown functional name.
"""

import argparse
import csv
import io
import json
import os
import re
import sys

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


def _shared_flags(parser, workers=True, seed=False, fmt=False, strict=False):
    """--workers and --output, then the optional groups a subcommand reads."""
    if workers:
        parser.add_argument("--workers", type=_at_least(1, "--workers ($NETFUNC_WORKERS)"),
                            default=os.environ.get("NETFUNC_WORKERS", "1"),
                            help="parallel fan-out (default $NETFUNC_WORKERS or 1)")
    parser.add_argument("--output", default=None, help="write here instead of stdout")
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="base seed")
    if fmt:
        parser.add_argument("--format", choices=("json", "csv"), default="json")
    if strict:
        parser.add_argument("--strict", action="store_true",
                            help="exit 3 when a cap forces a functional to be skipped")
        parser.add_argument("--max-exact-n", type=_at_least(0, "--max-exact-n"),
                            default=None, help="override the vertex caps of the exact searches")


def _write(args, doc, to_csv=None, skipped=False):
    """Write `doc` as JSON, or `to_csv()` under --format csv, to --output or
    stdout; return 3 when `skipped` under --strict, else 0."""
    text = to_csv() if getattr(args, "format", "json") == "csv" else json.dumps(doc, indent=2)
    if args.output:
        with open_text(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 3 if skipped and getattr(args, "strict", False) else 0


def _caps(args):
    from . import report
    n = args.max_exact_n
    return report.Caps() if n is None else report.Caps.with_max_exact_n(n)


def _model_flags(parser, sizes=True):
    """The model flags; without `sizes` (a sweep, which takes n from its list)
    no --n, nor --a and --b, which size the one kind that has no n."""
    parser.add_argument("--model", required=True,
                        help=f"one of {', '.join(sorted(set(MODELS) | set(MODEL_ALIASES)))}")
    if sizes:
        parser.add_argument("--n", type=int, help="vertex count / family size")
        parser.add_argument("--a", type=int, help="first part size (bipartite)")
        parser.add_argument("--b", type=int, help="second part size (bipartite)")
    parser.add_argument("--p", type=float, help="edge / rewiring probability")
    parser.add_argument("--k", type=int, help="ring-lattice degree (watts_strogatz)")
    parser.add_argument("--m", type=int, help="attachment count (barabasi_albert)")
    parser.add_argument("--generator", dest="generators", action="append", metavar="SPEC",
                        help="orbital map: quadratic:C or permutation")


def _model_spec(args, n=None):
    """The ModelSpec of the model flags, with `n`, when given, in place of --n;
    a model flag that the kind does not take, or a given `n` for a kind with
    none, is an InvalidParam naming it."""
    kind = MODEL_ALIASES.get(args.model, args.model)
    names = MODELS[kind][1] if kind in MODELS else ()
    if n is not None and kind in MODELS and "n" not in names:
        raise InvalidParam(f"{kind} takes no --n, so it cannot be swept over n")
    flags = {name: getattr(args, name, None)
             for name in ("n", "a", "b", "p", "k", "m", "generators")}
    extra = [name for name, value in flags.items() if value is not None and name not in names]
    if extra and kind in MODELS:  # an unknown kind is ModelSpec's error
        raise InvalidParam(f"{kind} takes no --{extra[0].removesuffix('s')}")
    flags["n"] = flags["n"] if n is None else n
    params = {name: flags[name] for name in names if flags[name] is not None}
    if "generators" in params:
        params["generators"] = tuple(parse_generator(s) for s in params["generators"])
    return ModelSpec(kind, params, seed=args.seed)


def _names(text, every, flag):
    """The names in the comma list `text`, empty ones dropped; `every` for 'all'.
    A list with no name left is an InvalidParam naming `flag`."""
    if text == "all":
        return tuple(every)
    names = tuple(x.strip() for x in text.split(",") if x.strip())
    if not names:
        raise InvalidParam(f"{flag} names no functional, got {text!r}")
    return names


def _render(value):
    from fractions import Fraction
    from . import report
    if isinstance(value, Fraction):
        return report.render_value(value, "rational")
    return value if value is None or isinstance(value, (int, float, str)) else str(value)


def _rows_csv(rows):
    """A header of the keys of rows[0], then each row's values (None empty)."""
    buf = io.StringIO()
    csv.writer(buf).writerows([list(rows[0])] + [list(row.values()) for row in rows])
    return buf.getvalue()


# -- subcommands ----------------------------------------------------------------

def cmd_analyze(args):
    from .report import FUNCTIONALS, compute_report
    if args.profile and args.format == "csv":
        raise InvalidParam("--profile writes per-vertex records, which --format csv has no "
                           "rows for; use --format json")
    names = _names(args.functionals, FUNCTIONALS, "--functionals")
    graph = read_edge_list(args.input)
    rep = compute_report(graph, names=names, caps=_caps(args), include_profile=args.profile)
    skipped = any(e.status == "skipped" for e in rep.entries.values())
    return _write(args, rep.to_json_dict(), rep.to_csv, skipped)


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
    from . import experiments
    spec = _model_spec(args, n=0)  # validates the flags; n comes from the list
    try:
        n_list = [int(x) for x in args.n_list.split(",")]
    except ValueError:
        raise NetfuncError(f"bad --n-list {args.n_list!r}; use integers N1,N2,...") from None
    params = {k: v for k, v in spec.params.items() if k != "n"}
    records = experiments.growth_sweep(spec.kind, params, n_list, args.seeds,
                                       seed=args.seed, workers=args.workers)
    rows = [{**{name: getattr(r, name) for name in experiments.SWEEP_FIELDS},
             **{f"{name}_flag": r.flags.get(name) for name in experiments.SWEEP_FUNCTIONALS}}
            for r in records]
    return _write(args, rows, lambda: _rows_csv(rows))


def cmd_extremal(args):
    from .experiments import EXTREMAL_FUNCTIONALS, extremal_search
    wants = _names(args.functional, EXTREMAL_FUNCTIONALS, "--functional")
    rep = extremal_search(args.n, functionals=wants, workers=args.workers, bins=args.bins)
    return _write(args, _extremal_dict(rep), lambda: _extremal_csv(rep))


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
    from .continuum import SPACES, continuum_ratio, mc_characteristic_length, mc_mean_cluster
    space_cls = SPACES[args.space]  # argparse choices reject other names
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
        est = mc_characteristic_length(space, args.samples, args.seed, workers=args.workers)
    elif args.quantity == "cluster":
        est = mc_mean_cluster(space, radius, args.samples, args.seed, workers=args.workers)
    else:
        value = continuum_ratio(space, radius, args.samples, args.seed, workers=args.workers)
        return _write(args, {"estimate": value, "samples": args.samples})
    return _write(args, {"estimate": est.estimate, "std_error": est.std_error,
                         "samples": est.samples})


def cmd_audit(args):
    from . import experiments
    graph = read_edge_list(args.input)
    caps = _caps(args)
    checks = experiments.bound_audit(graph, independence_cap=caps.independence,
                                     chromatic_cap=caps.chromatic,
                                     arboricity_cap=caps.arboricity)
    rows = [{"name": c.name, "lhs": _render(c.lhs), "rhs": _render(c.rhs),
             "holds": c.holds, "note": c.note} for c in checks]
    return _write(args, rows, lambda: _rows_csv(rows), any(c.holds is None for c in checks))


class _Names:
    """The names in a netfunc module's table, read only when iterated, not at parser build."""

    def __init__(self, module, table, order=list):
        self.module, self.table, self.order = module, table, order

    def __iter__(self):
        module = __import__(f"{__package__}.{self.module}", fromlist=[self.table])
        return iter(self.order(getattr(module, self.table)))


class _HelpFormatter(argparse.HelpFormatter):
    """Lists the names of each "{module.TABLE}" in a help string when help is printed."""

    def _get_help_string(self, action):
        return re.sub(r"\{(\w+)\.(\w+)\}", lambda m: ", ".join(_Names(*m.groups())), action.help)


class _Parser(argparse.ArgumentParser):
    """Full flag names only; a usage error is an InvalidParam, so it exits 1."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, formatter_class=_HelpFormatter, **kwargs)

    def error(self, message):
        raise InvalidParam(message)


def build_parser():
    parser = _Parser(prog="netfunc", description="graph functional toolbox")
    sub = parser.add_subparsers(dest="command", required=True)  # of _Parser, as is parser

    p = sub.add_parser("analyze", help="evaluate functionals on an edge-list file")
    p.add_argument("input")
    p.add_argument("--functionals", default="all",
                   help="comma list (default all): {report.FUNCTIONALS}")
    p.add_argument("--profile", action="store_true", help="include per-vertex records (JSON only)")
    _shared_flags(p, fmt=True, strict=True)
    p.set_defaults(run=cmd_analyze)

    p = sub.add_parser("generate", help="write a model draw as an edge-list file")
    _model_flags(p)
    _shared_flags(p, workers=False, seed=True)
    p.set_defaults(run=cmd_generate)

    p = sub.add_parser("sweep", help="sweep a model family over vertex counts")
    _model_flags(p, sizes=False)
    p.add_argument("--n-list", required=True, metavar="N1,N2,...",
                   help="comma-separated vertex counts")
    p.add_argument("--seeds", type=int, default=10, help="replicates per n")
    _shared_flags(p, seed=True, fmt=True)
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("extremal", help="scan all connected graphs on n <= 8 vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--functional", default="all",
                   help="comma list of {experiments.EXTREMAL_FUNCTIONALS}")
    p.add_argument("--bins", type=int, default=64)
    _shared_flags(p, fmt=True)
    p.set_defaults(run=cmd_extremal)

    p = sub.add_parser("continuum", help="Monte-Carlo estimates on model spaces")
    # choices set after add_argument, which would read them to check the metavar
    p.add_argument("--space", required=True).choices = _Names("continuum", "SPACES", sorted)
    p.add_argument("--side", type=float, help="torus side length (default 1)")
    p.add_argument("--radius", type=float,
                   help="sphere radius for cluster and ratio (default 0.01)")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--quantity", choices=("length", "cluster", "ratio"),
                   default="length")
    _shared_flags(p, seed=True)
    p.set_defaults(run=cmd_continuum)

    p = sub.add_parser("audit", help="check every length/coloring bound on a graph")
    p.add_argument("input")
    _shared_flags(p, fmt=True, strict=True)
    p.set_defaults(run=cmd_audit)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        code = args.run(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the reader closed stdout; keep the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UnknownFunctional as exc:
        print(f"unknown functional: {exc}", file=sys.stderr)
        return 4
    except NetfuncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's _ArrayMemoryError among them
        exc.__traceback__ = None  # frees the failed call's frames before the message is made
        print(f"error: not enough memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
