"""Exact enumeration and verification tools for rainbow-triangle-free
(Gallai) edge colorings of small graphs.

The exported names resolve on first use: ``import gallai`` compiles no
submodule, and reading a name imports the one module that defines it, so a
command that never touches templates never pays for compiling them.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "counting": ("AsymptoticBounds", "Coloring", "asymptotic_bounds", "book_gallai_count",
                 "count_complete", "count_gallai", "count_gallai_naive",
                 "count_gallai_with_palettes", "gallai_colorings", "is_gallai",
                 "lower_bound_two_color", "max_matching_size", "red_once_count",
                 "s_deviation"),
    "errors": ("GallaiError", "InvalidInputError", "InvalidParameterError", "ParseError",
               "ResourceLimitError"),
    "graphs": ("Graph", "all_graphs", "book", "booksize", "booksize_edge", "canonical_form",
               "canonical_graph", "complete", "complete_bipartite", "count_cliques", "cycle",
               "graph_from_name", "graph6_decode", "graph6_encode", "lovasz_triangle_bound",
               "max_k_partite_edges", "parse_edge_list", "format_edge_list", "t_far"),
    "templates": ("Template", "TriangleTally", "classify_triangles", "count_ga",
                  "from_coloring", "full_template", "is_gallai_template", "is_subtemplate",
                  "pair_template", "product_log_bound", "r_edges", "rt_count",
                  "rt_through_edge", "template_from_text", "template_to_text", "weight"),
}
# exported name -> its module; each module is exported under its own name too
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    found = importlib.import_module(f"{__name__}.{module}")
    value = found if name == module else getattr(found, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
