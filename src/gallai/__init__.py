"""Exact enumeration and verification tools for rainbow-triangle-free
(Gallai) edge colorings of small graphs."""

from .counting import (AsymptoticBounds, Coloring, asymptotic_bounds, book_gallai_count,
                       count_complete, count_gallai, count_gallai_naive, count_gallai_with_palettes,
                       gallai_colorings, is_gallai, lower_bound_two_color,
                       max_matching_size, red_once_count, s_deviation)
from .errors import (GallaiError, InvalidInputError, InvalidParameterError, ParseError,
                     ResourceLimitError)
from .graphs import (Graph, all_graphs, book, booksize, booksize_edge, canonical_form,
                     canonical_graph, complete, complete_bipartite, count_cliques, cycle,
                     graph_from_name, graph6_decode, graph6_encode, lovasz_triangle_bound,
                     max_k_partite_edges, parse_edge_list, format_edge_list, t_far)
from .templates import (Template, TriangleTally, classify_triangles, count_ga,
                        from_coloring, full_template, is_gallai_template, is_subtemplate,
                        pair_template, product_log_bound, r_edges, rt_count,
                        rt_through_edge, template_from_text, template_to_text, weight)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
