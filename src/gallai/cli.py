"""Command-line surface: one JSON object per run on stdout, logs on stderr.

Exit codes: 0 success, 2 usage or invalid input, 3 budget exhausted,
4 unparseable graph or template file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isfinite, log2
from pathlib import Path

from . import containers, counting, extremal, stability, templates
from .errors import (InvalidInputError, InvalidParameterError, ParseError,
                     ResourceLimitError)
from .graphs import Graph, complete, graph_from_name, graph6_encode

CONFIG_INT_KEYS = ("leaf_budget", "node_budget", "sample_size")


@dataclass(frozen=True)
class RunConfig:
    leaf_budget: int = counting.DEFAULT_LEAF_BUDGET
    node_budget: int = counting.DEFAULT_NODE_BUDGET
    cache_path: str | None = None
    sample_size: int = containers.DEFAULT_SAMPLE_SIZE
    container_c: float = containers.DEFAULT_C_CAP

    def __post_init__(self):
        for key in CONFIG_INT_KEYS:
            if getattr(self, key) < 1:
                raise InvalidInputError(f"config value {key} must be positive")


def load_config(path) -> RunConfig:
    """Parse a flat key=value file; unknown keys are rejected."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidInputError(f"config line {lineno} is not key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in CONFIG_INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise InvalidInputError(f"config key {key} needs an integer") from None
        elif key == "container_c":
            try:
                values[key] = _finite_float(value)
            except argparse.ArgumentTypeError as exc:
                raise InvalidInputError(f"config key container_c: {exc}") from None
        elif key == "cache_path":
            values[key] = value
        else:
            raise InvalidInputError(f"unknown config key {key!r} on line {lineno}")
    return RunConfig(**values)


def _apply_flag_overrides(config: RunConfig, args) -> RunConfig:
    updates = {}
    for key in ("leaf_budget", "node_budget", "cache_path", "sample_size", "container_c"):
        value = getattr(args, key, None)
        if value is not None:
            updates[key] = value
    return replace(config, **updates) if updates else config


def _load_template(path) -> templates.Template:
    return templates.template_from_text(Path(path).read_text())


def _template_coloring(template: templates.Template, graph: Graph) -> counting.Coloring:
    """Read a coloring out of a template whose graph edges all have
    single-color palettes."""
    colors = {}
    for u, v in graph.edges():
        mask = template.palette(u, v)
        if mask.bit_count() != 1:
            raise InvalidInputError(
                f"edge ({u}, {v}) has palette size {mask.bit_count()}; "
                "a coloring needs exactly one color per edge")
        colors[(u, v)] = mask.bit_length()
    return counting.Coloring(colors, template.r)


def _edge_key(edge: tuple[int, int]) -> str:
    return f"{edge[0]}-{edge[1]}"


def _witness_json(witness: dict | None) -> dict | None:
    if witness is None:
        return None
    out = {}
    for key, value in witness.items():
        if key == "coloring":
            out[key] = {_edge_key(e): c for e, c in value.items()}
        else:
            out[key] = value
    return out


def _report_json(report: containers.PropertyReport) -> dict:
    return {"passed": report.passed, "checked": report.checked,
            "witness": _witness_json(report.witness)}


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_count(args, config: RunConfig) -> dict:
    graph = graph_from_name(args.graph)
    if args.naive:
        count = counting.count_gallai_naive(graph, args.r, leaf_budget=config.leaf_budget)
    else:
        count = counting.count_gallai(graph, args.r, node_budget=config.node_budget)
    return {"graph": graph6_encode(graph), "n": graph.n, "edges": graph.edge_count,
            "r": args.r, "method": "naive" if args.naive else "pruned",
            "count": str(count)}


def _table_json(table: extremal.ExtremalTable) -> dict:
    return {
        "n": table.n,
        "r": table.r,
        "authoritative": table.authoritative,
        "rows": [{"g6": row.g6, "edges": row.edges,
                  "count": None if row.count is None else str(row.count)}
                 for row in table.rows],
        "argmax": list(table.argmax_g6),
        "max_count": None if table.max_count is None else str(table.max_count),
    }


def _cmd_extremal(args, config: RunConfig) -> dict:
    cache = extremal.CountCache(config.cache_path) if config.cache_path else None
    table = extremal.extremal_search(args.n, args.r, node_budget=config.node_budget,
                                     cache=cache)
    if args.csv:
        extremal.export_csv(table, args.csv)
    return _table_json(table)


def _cmd_template(args, config: RunConfig) -> dict:
    template = _load_template(args.file)
    if args.action == "rt":
        return {"n": template.n, "r": template.r, "rt": templates.rt_count(template)}
    if args.action == "classify":
        tally = templates.classify_triangles(template, args.mode)
        return {"mode": tally.mode, "counts": tally.as_dict(), "total": tally.total()}
    graph = graph_from_name(args.graph) if args.graph else complete(template.n)
    count = templates.count_ga(template, graph, node_budget=config.node_budget)
    return {"n": template.n, "r": template.r, "graph": graph6_encode(graph),
            "count": str(count)}


def _cmd_hypergraph(args, config: RunConfig) -> dict:
    if args.action == "stats":
        explicit = args.n <= containers.BUILD_N_LIMIT and args.r <= containers.BUILD_R_LIMIT
        if explicit:
            stats = containers.degree_stats(containers.build(args.n, args.r))
        else:
            stats = containers.closed_form_stats(args.n, args.r)
        d = stats.d
        return {"n": args.n, "r": args.r, "v": stats.v, "e": stats.e,
                "d": int(d) if d.denominator == 1 else float(d),
                "delta2": stats.delta2, "delta3": stats.delta3,
                "measured": explicit}
    audit = containers.audit_params(args.n, args.r)
    params = containers.container_params(args.n, args.r, c_cap=config.container_c)
    tau = args.tau if args.tau is not None else params.tau
    codegree = containers.codegree_function(args.n, args.r, tau) if 0 < tau < 1 else None
    return {"n": args.n, "r": args.r, "tau": tau, "epsilon": params.epsilon,
            "tau_ok": audit.tau_ok, "delta_ok": audit.delta_ok,
            "min_n_estimate": audit.min_n_estimate, "codegree": codegree}


def _cmd_stability(args, config: RunConfig) -> dict:
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
    report = stability.supersaturation_check(graph, args.k, args.t)
    return {"t_far": report.t_far, "bound": report.bound,
            "cliques": report.cliques, "ok": report.ok}


def _cmd_verify_cover(args, config: RunConfig) -> dict:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise InvalidInputError(f"{args.dir} is not a directory")
    family = [_load_template(path) for path in sorted(directory.glob("*.tpl"))]
    c = args.c if args.c is not None else config.container_c
    certificate = containers.verify_cover(family, args.n, args.r, c,
                                          sample_size=config.sample_size,
                                          seed=args.seed)
    return {"n": args.n, "r": args.r, "family_size": certificate.family_size,
            "passed": certificate.passed,
            "coverage": _report_json(certificate.coverage),
            "sparsity": _report_json(certificate.sparsity),
            "size_bound": _report_json(certificate.size_bound)}


def _cmd_bounds(args, config: RunConfig) -> dict:
    bounds = counting.asymptotic_bounds(args.n, args.r)
    two_color = counting.lower_bound_two_color(args.n, args.r)
    return {"n": args.n, "r": args.r,
            "lower_two_color": str(two_color),
            "lower_two_color_log2": log2(two_color),
            "lower_simple_log2": bounds.trivial_lower_log2,
            "upper_log2": bounds.main_upper_log2}


# ---------------------------------------------------------------------------
# parser


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
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational number, got {text!r}") from None


def _add_override_flags(parser: argparse.ArgumentParser, *, subcommand: bool) -> None:
    # on subparsers the defaults are suppressed so an absent flag never
    # clobbers a value the root parser already placed in the namespace
    d = argparse.SUPPRESS if subcommand else None
    parser.add_argument("--config", default=d, help="flat key=value configuration file")
    parser.add_argument("--leaf-budget", dest="leaf_budget", type=int, default=d)
    parser.add_argument("--node-budget", dest="node_budget", type=int, default=d)
    parser.add_argument("--cache", dest="cache_path", default=d)
    parser.add_argument("--sample-size", dest="sample_size", type=int, default=d)
    parser.add_argument("--container-c", dest="container_c", type=_finite_float, default=d)


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev off so the global flags never swallow subcommand options
    # that share a prefix (verify-cover's --c versus --config and --cache)
    parser = argparse.ArgumentParser(prog="gallai", allow_abbrev=False,
                                     description="rainbow-triangle-free coloring lab")
    _add_override_flags(parser, subcommand=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)
        _add_override_flags(p, subcommand=True)
        return p

    p = add_parser("count", help="count Gallai r-colorings of one graph")
    p.add_argument("graph", help="graph6 string or a name like K5, K2,3, C5, B4")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--naive", action="store_true",
                   help="use the full-enumeration oracle instead of the pruned counter")

    p = add_parser("extremal", help="count every isomorphism class on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--csv", help="also export the table as CSV to this path")

    p = add_parser("template", help="template statistics")
    p.add_argument("action", choices=["rt", "classify", "count-ga"])
    p.add_argument("file", help="template text file")
    p.add_argument("--mode", choices=list(templates.TALLY_MODES), default="complete")
    p.add_argument("--graph", help="graph6 or name; defaults to the complete graph")

    p = add_parser("hypergraph", help="rainbow hypergraph statistics and audit")
    p.add_argument("action", choices=["stats", "audit"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--tau", type=_finite_float)

    p = add_parser("stability", help="stability checks and peeling algorithms")
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

    p = add_parser("verify-cover", help="check a directory of *.tpl templates")
    p.add_argument("dir")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--c", type=_finite_float)
    p.add_argument("--seed", type=int, default=0)

    p = add_parser("bounds", help="closed-form bounds for K_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    return parser


_HANDLERS = {
    "count": _cmd_count,
    "extremal": _cmd_extremal,
    "template": _cmd_template,
    "hypergraph": _cmd_hypergraph,
    "stability": _cmd_stability,
    "verify-cover": _cmd_verify_cover,
    "bounds": _cmd_bounds,
}


def _require_template_arg(args) -> None:
    if args.command == "stability" and args.action in ("monoedge", "peel") \
            and not args.template:
        raise InvalidInputError(f"stability {args.action} needs --template")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = load_config(args.config) if args.config else RunConfig()
        config = _apply_flag_overrides(config, args)
        _require_template_arg(args)
        result = _HANDLERS[args.command](args, config)
    except (InvalidParameterError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        if isinstance(exc.partial, extremal.ExtremalTable):
            print(json.dumps(_table_json(exc.partial), sort_keys=True, allow_nan=False))
        return 3
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
