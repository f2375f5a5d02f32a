"""Command-line surface: one JSON object per run on stdout, logs on stderr.

Exit codes: 0 success, 2 usage, invalid input or a file that cannot be read,
3 budget exhausted, 4 unparseable graph or template file.

Each run setting is declared once, in ``_SETTINGS``: its global flag, the
parser its flag and config line share, and its default.  One settings parser
takes the global flags out of argv wherever they stand, before or after the
subcommand, and the command parser reads what is left into the same
namespace; no subparser declares a global flag.  Each subcommand carries its
handler on its own subparser.

Every run is one process that runs one command, and without a bytecode cache
most of its start-up is compiling this package.  So the module level imports
only what every command but ``bounds`` runs (``errors``, ``graphs``,
``counting``), and each handler imports ``extremal``, ``templates``,
``containers``, ``stability`` or ``kn`` when it runs; ``fractions`` and
``decimal`` load only where a value needs them.  Annotations that name those
modules are strings, never evaluated.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from math import isfinite
from pathlib import Path

from . import counting
from .errors import (InvalidInputError, InvalidParameterError, ParseError,
                     ResourceLimitError)
from .graphs import (DEFAULT_C_CAP, DEFAULT_SAMPLE_SIZE, TALLY_MODES, Graph, complete,
                     content_lines, decimal_digits, graph_from_name, graph6_encode)


def _positive_int(text: str) -> int:
    """Parse a budget or sample size: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    """Parse a float that is neither infinite nor NaN; NaN would slip past
    every range check and reach stdout as non-JSON."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _fraction(text: str) -> Fraction:
    """Parse an exact rational such as 0.4 or 2/5."""
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational number, got {text!r}") from None


# run settings: config key -> (global flag, value parser, default).  A flag
# beats the config file, which beats the default; flag and config line share
# the parser, so both reject the same values.
_SETTINGS = {
    "node_budget": ("--node-budget", _positive_int, counting.DEFAULT_NODE_BUDGET),
    "cache_path": ("--cache", str, None),
    "sample_size": ("--sample-size", _positive_int, DEFAULT_SAMPLE_SIZE),
}


def _read_utf8(path, error: type[Exception]) -> str:
    """File text; undecodable bytes raise ``error``, which picks the exit code."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text (byte {exc.start})") from None


def load_config(path) -> argparse.Namespace:
    """Parse a flat key=value file into the settings it sets; unknown keys
    and bad values are rejected with their line number."""
    values = argparse.Namespace()
    for lineno, line in content_lines(_read_utf8(path, InvalidInputError)):
        key, eq, value = line.partition("=")
        if not eq:
            raise InvalidInputError(f"config line {lineno} is not key=value")
        key = key.strip()
        if key not in _SETTINGS:
            raise InvalidInputError(f"unknown config key {key!r} on line {lineno}")
        try:
            setattr(values, key, _SETTINGS[key][1](value.strip()))
        except argparse.ArgumentTypeError as exc:
            raise InvalidInputError(f"config line {lineno}: {key}: {exc}") from None
    return values


def _load_template(path) -> templates.Template:
    from . import templates
    return templates.template_from_text(_read_utf8(path, ParseError))


def _template_coloring(template: templates.Template, graph: Graph) -> counting.Coloring:
    """Read a coloring out of a template whose graph edges all have
    single-color palettes."""
    if graph.n > template.n:
        raise InvalidInputError("graph order exceeds template order")
    colors = {}
    for u, v in graph.edges():
        mask = template.palette(u, v)
        if mask.bit_count() != 1:
            raise InvalidInputError(
                f"edge ({u}, {v}) has palette size {mask.bit_count()}; "
                "a coloring needs exactly one color per edge")
        colors[(u, v)] = mask.bit_length()
    return counting.Coloring(colors, template.r)


def _witness_json(witness: dict | None) -> dict | None:
    """The witness with a coloring's edge keys written "u-v"."""
    if witness is None or "coloring" not in witness:
        return witness
    return {**witness, "coloring": {f"{u}-{v}": c for (u, v), c in witness["coloring"].items()}}


def _report_json(report: containers.PropertyReport) -> dict:
    return {"passed": report.passed, "checked": report.checked,
            "witness": _witness_json(report.witness)}


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_count(args) -> dict:
    graph = graph_from_name(args.graph)
    if args.naive:
        count = counting.count_gallai_naive(graph, args.r, node_budget=args.node_budget)
    else:
        count = counting.count_gallai(graph, args.r, node_budget=args.node_budget)
    return {"graph": graph6_encode(graph), "n": graph.n, "edges": graph.edge_count,
            "r": args.r, "method": "naive" if args.naive else "pruned",
            "count": decimal_digits(count)}


def _table_json(table: extremal.ExtremalTable) -> dict:
    return {
        "n": table.n,
        "r": table.r,
        "authoritative": table.authoritative,
        "rows": [{"g6": row.g6, "edges": row.edges,
                  "count": None if row.count is None else decimal_digits(row.count)}
                 for row in table.rows],
        "argmax": list(table.argmax),
        "max_count": None if table.max_count is None else decimal_digits(table.max_count),
    }


def _cmd_extremal(args) -> dict:
    from . import extremal
    cache = extremal.CountCache(args.cache_path) if args.cache_path else None
    try:
        table = extremal.extremal_search(args.n, args.r, node_budget=args.node_budget,
                                         cache=cache)
    except ResourceLimitError as exc:
        if args.csv and exc.partial is not None:
            extremal.export_csv(exc.partial, args.csv)
        raise
    if args.csv:
        extremal.export_csv(table, args.csv)
    return _table_json(table)


def _cmd_template(args) -> dict:
    from . import templates
    template = _load_template(args.file)
    if args.action == "rt":
        return {"n": template.n, "r": template.r, "rt": templates.rt_count(template)}
    if args.action == "classify":
        tally = templates.classify_triangles(template, args.mode)
        return {"mode": tally.mode, "counts": tally.as_dict(), "total": tally.total()}
    graph = graph_from_name(args.graph) if args.graph else complete(template.n)
    count = templates.count_ga(template, graph, node_budget=args.node_budget)
    return {"n": template.n, "r": template.r, "graph": graph6_encode(graph),
            "count": decimal_digits(count)}


def _cmd_hypergraph(args) -> dict:
    from . import containers
    if args.action == "stats":
        explicit = args.n <= containers.BUILD_N_LIMIT and args.r <= containers.BUILD_R_LIMIT
        if explicit:
            stats = containers.degree_stats(containers.build(args.n, args.r))
        else:
            stats = containers.closed_form_stats(args.n, args.r)
        try:
            # e is the largest integer printed; json.dumps, like str(), has
            # no digits for an int past the interpreter's limit
            str(stats.e)
        except ValueError:
            raise InvalidParameterError(
                "n and r are too large: the edge count e has more digits than the interpreter "
                "prints") from None
        d = stats.d
        return {"n": args.n, "r": args.r, "v": stats.v, "e": stats.e,
                "d": int(d) if d.denominator == 1 else float(d),
                "delta2": stats.delta2, "delta3": stats.delta3,
                "measured": explicit}
    audit = containers.audit_params(args.n, args.r)
    params = containers.container_params(args.n, args.r)
    tau = args.tau if args.tau is not None else params.tau
    codegree = containers.codegree_function(args.n, args.r, tau) if 0 < tau < 1 else None
    return {"n": args.n, "r": args.r, "tau": tau, "epsilon": params.epsilon,
            "tau_ok": audit.tau_ok, "delta_ok": audit.delta_ok,
            "min_n_estimate": audit.min_n_estimate, "codegree": codegree}


def _cmd_stability(args) -> dict:
    from . import stability
    if args.action in ("monoedge", "peel") and not args.template:
        raise InvalidInputError(f"stability {args.action} needs --template")
    graph = graph_from_name(args.graph)
    if args.action == "monoedge":
        template = _load_template(args.template)
        coloring = _template_coloring(template, graph)
        report = stability.majority_color_check(graph, coloring, args.eps)
        return {"mono_triangles": report.mono_triangles,
                "hypothesis_ok": report.hypothesis_ok, "color": report.color,
                "deficit": report.deficit, "conclusion_ok": report.conclusion_ok,
                "eps_feasible": report.eps_feasible}
    if args.action == "dichotomy":
        result = stability.dichotomy_search(graph, args.alpha)
        book = None
        if result.book is not None:
            (u, v), size = result.book
            book = {"base": [u, v], "size": size}
        bipartite = None
        if result.bipartite is not None:
            vertices, mindeg = result.bipartite
            bipartite = {"vertices": list(vertices), "min_degree": mindeg}
        return {"outcome": result.outcome, "book": book, "bipartite": bipartite,
                "details": result.details}
    if args.action == "books":
        family = stability.greedy_book_family(graph, args.threshold)
        return {"books": [{"base": list(b.base), "pages": sorted(b.pages)}
                          for b in family.books],
                "removed_bases": sorted(list(e) for e in family.removed_bases),
                "residual_edges": family.residual.edge_count}
    if args.action == "peel":
        template = _load_template(args.template)
        trace = stability.peel(graph, template, args.xi)
        return {"steps": [{"kind": s.kind, "vertices": list(s.vertices),
                           "order_before": s.order_before, "witness": s.witness}
                          for s in trace.removed],
                "residual_vertices": list(trace.residual_vertices),
                "stats": trace.residual_template_stats}
    if args.action == "lowdeg":
        try:
            cset = [int(tok) for tok in args.set.split(",") if tok.strip() != ""]
        except ValueError:
            raise InvalidInputError("--set needs a comma-separated vertex list") from None
        result = stability.remove_low_degree(graph, cset)
        return {"removed": list(result.removed_order),
                "residual_vertices": list(result.residual_vertices),
                "residual_edges": result.residual.edge_count if result.residual else 0}
    report = stability.supersaturation_check(graph, args.k, args.t,
                                             node_budget=args.node_budget)
    return {"t_far": report.t_far, "bound": report.bound,
            "cliques": report.cliques, "ok": report.ok}


def _cmd_verify_cover(args) -> dict:
    from . import containers
    directory = Path(args.dir)
    if not directory.is_dir():
        raise InvalidInputError(f"{args.dir} is not a directory")
    family = [_load_template(path) for path in sorted(directory.glob("*.tpl"))]
    certificate = containers.verify_cover(family, args.n, args.r, args.c,
                                          sample_size=args.sample_size,
                                          seed=args.seed, node_budget=args.node_budget)
    return {"n": args.n, "r": args.r, "family_size": certificate.family_size,
            "passed": certificate.passed,
            "coverage": _report_json(certificate.coverage),
            "sparsity": _report_json(certificate.sparsity),
            "size_bound": _report_json(certificate.size_bound)}


def _cmd_bounds(args) -> dict:
    from . import kn
    bounds = kn.asymptotic_bounds(args.n, args.r)
    return {"n": args.n, "r": args.r,
            "lower_two_color": (None if bounds.trivial_lower is None else
                                decimal_digits(kn.lower_bound_two_color(args.n, args.r))),
            "lower_two_color_log2": bounds.two_color_log2,
            "lower_simple_log2": bounds.trivial_lower_log2,
            "upper_log2": bounds.main_upper_log2}


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The settings parser, which reads the global flags wherever they stand,
    and the command parser; built on the first call and shared after it, so
    repeated ``main`` calls in one process parse without rebuilding them."""
    # allow_abbrev off so the global flags never swallow subcommand options
    # that share a prefix (verify-cover's --c starts several global flags)
    settings = argparse.ArgumentParser(prog="gallai", add_help=False, allow_abbrev=False)
    settings.add_argument("--config", help="flat key=value configuration file")
    for key, (flag, parse, _) in _SETTINGS.items():
        settings.add_argument(flag, dest=key, type=parse)
    # the settings as parents only so that ``gallai -h`` lists them
    parser = argparse.ArgumentParser(prog="gallai", allow_abbrev=False, parents=[settings],
                                     description="rainbow-triangle-free coloring lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, handler, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add_parser("count", _cmd_count, help="count Gallai r-colorings of one graph")
    p.add_argument("graph", help="graph6 string or a name like K5, K2,3, C5, B4")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--naive", action="store_true",
                   help="use the full-enumeration oracle instead of the pruned counter")

    p = add_parser("extremal", _cmd_extremal, help="count every isomorphism class on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--csv", help="also export the table as CSV to this path")

    p = add_parser("template", _cmd_template, help="template statistics")
    p.add_argument("action", choices=["rt", "classify", "count-ga"])
    p.add_argument("file", help="template text file")
    p.add_argument("--mode", choices=list(TALLY_MODES), default="complete")
    p.add_argument("--graph", help="graph6 or name; defaults to the complete graph")

    p = add_parser("hypergraph", _cmd_hypergraph, help="rainbow hypergraph statistics and audit")
    p.add_argument("action", choices=["stats", "audit"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--tau", type=_finite_float)

    p = add_parser("stability", _cmd_stability, help="stability checks and peeling algorithms")
    p.add_argument("action", choices=["monoedge", "dichotomy", "books", "peel",
                                      "lowdeg", "supersat"])
    p.add_argument("--graph", required=True, help="graph6 or name")
    p.add_argument("--template", help="template file (monoedge, peel)")
    p.add_argument("--eps", type=_fraction, default="0.4", help="tolerance for monoedge")
    p.add_argument("--alpha", type=_finite_float, default=1e-6, help="dichotomy parameter")
    p.add_argument("--threshold", type=int, default=1, help="book page minimum")
    p.add_argument("--xi", type=_fraction, default="0.1", help="peel parameter")
    p.add_argument("--set", default="", help="comma-separated vertices for lowdeg")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--t", type=int, default=1)

    p = add_parser("verify-cover", _cmd_verify_cover, help="check a directory of *.tpl templates")
    p.add_argument("dir")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--c", type=_finite_float, default=DEFAULT_C_CAP)
    p.add_argument("--seed", type=int, default=0)

    p = add_parser("bounds", _cmd_bounds, help="closed-form bounds for K_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    return settings, parser


def main(argv=None) -> int:
    settings, parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        flags, rest = settings.parse_known_args(argv)
        # with every global flag taken out, an option in front of the
        # subcommand is unknown; argparse would report its value as an
        # invalid subcommand instead
        first = rest[0] if rest else ""
        if (first.startswith("-") and first != "-" and not first[1:2].isdigit()
                and first.partition("=")[0] not in ("-h", "--help")):
            parser.error(f"unrecognized arguments: {first}")
        args = parser.parse_args(rest, namespace=flags)
    except SystemExit as exc:
        return int(exc.code or 0)
    code = 0
    try:
        given = load_config(args.config) if args.config else argparse.Namespace()
        for key, (_, _, default) in _SETTINGS.items():
            if getattr(args, key) is None:
                setattr(args, key, getattr(given, key, default))
        result = args.handler(args)
    except (InvalidParameterError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        # only extremal_search attaches a partial result: its table cut short
        if exc.partial is None:
            return 3
        code, result = 3, _table_json(exc.partial)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(json.dumps(result, sort_keys=True, allow_nan=False))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull so the
        # interpreter's own flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
