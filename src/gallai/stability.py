"""Finitely checkable stability statements and their constructive algorithms.

Everything here is a pure function of its inputs; thresholds are evaluated in
exact rational arithmetic wherever a comparison could be borderline, and each
algorithm fixes deterministic tie-breaking (lowest vertex index, then lowest
edge id) so that traces are reproducible.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import comb

from .counting import Coloring, _check_total
from .errors import InvalidInputError, InvalidParameterError, ResourceLimitError
from .graphs import DEFAULT_NODE_BUDGET, Graph, Record, booksize_edge, count_cliques, t_far
from .templates import Template, r_edges

DICHOTOMY_LIMIT = 12


def _mask_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# monochromatic majority


class MajorityReport(Record):
    mono_triangles: int
    hypothesis_ok: bool
    color: int
    deficit: int
    conclusion_ok: bool
    eps_feasible: bool


def majority_color_check(graph: Graph, coloring: Coloring, eps) -> MajorityReport:
    """Check that near-total monochromatic triangle coverage forces one color
    to carry almost every edge.

    The hypothesis compares monochromatic triangles against (1-eps) C(n,3)
    and the conclusion bounds the off-majority edge count by
    4 r^2 eps C(n,2); both comparisons, and the eps range, are decided by
    integer cross-multiplication.  The check always computes; when the
    hypothesis fails it simply claims nothing.
    """
    _check_total(graph, coloring)
    eps = Fraction(eps)
    p, q = eps.numerator, eps.denominator
    n = graph.n
    r = coloring.r
    rows = [[0] * n for _ in range(r + 1)]
    per_color = [0] * (r + 1)
    for (u, v), col in coloring.colors.items():
        rows[col][u] |= 1 << v
        rows[col][v] |= 1 << u
        per_color[col] += 1
    # an edge uv of color c closes one monochromatic triangle per common
    # neighbour in color c, and each such triangle has three edges
    mono = sum((rows[col][u] & rows[col][v]).bit_count()
               for (u, v), col in coloring.colors.items()) // 3
    hypothesis_ok = mono * q >= (q - p) * comb(n, 3)
    best = max(range(1, r + 1), key=lambda c: (per_color[c], -c))
    deficit = graph.edge_count - per_color[best]
    conclusion_ok = deficit * q <= 4 * r * r * p * comb(n, 2)
    # 4/n - 4/n^2 <= eps < 1/2
    feasible = 4 * (n - 1) * q <= p * n * n and 2 * p < q
    return MajorityReport(mono, hypothesis_ok, best, deficit, conclusion_ok, feasible)


class PaletteMajority(Record):
    pair: tuple[int, int]
    count: int


def two_palette_majority(template: Template) -> PaletteMajority:
    """The color pair {i, j} owning the most edges with palette exactly {i, j}.

    Ties break toward the lexicographically smallest pair, so a template with
    no two-color palettes at all reports ((1, 2), 0).
    """
    if template.r < 2:
        raise InvalidParameterError("palette pairs need at least two colors")
    best_pair = (1, 2)
    best_count = -1
    for i, j in itertools.combinations(range(1, template.r + 1), 2):
        mask = (1 << (i - 1)) | (1 << (j - 1))
        count = sum(1 for p in template.palettes if p == mask)
        if count > best_count:
            best_pair, best_count = (i, j), count
    return PaletteMajority(best_pair, best_count)


# ---------------------------------------------------------------------------
# book / bipartite dichotomy


class DichotomyResult(Record):
    outcome: str
    book: tuple[tuple[int, int], int] | None
    bipartite: tuple[tuple[int, ...], int] | None
    details: dict


def dichotomy_search(graph: Graph, alpha) -> DichotomyResult:
    """Search for either a large book or a large min-degree induced bipartite
    subgraph, with thresholds driven by alpha.

    The book branch wins when bk(G) > (1/6 - 2 a^(1/3)) n.  Otherwise every
    out/left/right assignment of the vertices is enumerated and the best
    induced bipartite subgraph with order >= (1 - a^(1/3)) n and minimum
    degree >= (1/2 - 4 a^(1/3)) n is returned, ranking by (order, min degree)
    with the lexicographically smallest vertex set as the final tie-break.
    Neither branch succeeding is a legal outcome at small n and is reported,
    not raised.
    """
    n = graph.n
    if n > DICHOTOMY_LIMIT:
        raise ResourceLimitError(f"exhaustive dichotomy search capped at n <= {DICHOTOMY_LIMIT}")
    a = float(alpha)
    if not (math.isfinite(a) and a > 0):
        raise InvalidParameterError("alpha must be a finite positive number")
    cube = a ** (1.0 / 3.0)
    book_threshold = (1.0 / 6.0 - 2.0 * cube) * n
    order_threshold = (1.0 - cube) * n
    degree_threshold = (0.5 - 4.0 * cube) * n
    size, edge = booksize_edge(graph)
    details = {
        "alpha": a,
        "booksize": size,
        "book_threshold": book_threshold,
        "order_threshold": order_threshold,
        "degree_threshold": degree_threshold,
    }
    if edge is not None and size > book_threshold:
        return DichotomyResult("book", (edge, size), None, details)

    adj = graph.adj
    best: tuple[int, int, tuple[int, ...]] | None = None

    def consider(left: int, right: int):
        nonlocal best
        members = left | right
        order = members.bit_count()
        if order == 0 or order < order_threshold:
            return
        mindeg = n
        for v in _mask_vertices(left):
            mindeg = min(mindeg, (adj[v] & right).bit_count())
        for v in _mask_vertices(right):
            mindeg = min(mindeg, (adj[v] & left).bit_count())
        if mindeg < degree_threshold:
            return
        key = (order, mindeg, tuple(-v for v in _mask_vertices(members)))
        if best is None or key > (best[0], best[1], tuple(-v for v in best[2])):
            best = (order, mindeg, _mask_vertices(members))

    def assign(v: int, left: int, right: int):
        if v == n:
            consider(left, right)
            return
        # even taking all remaining vertices cannot reach the order bound
        if (left | right).bit_count() + (n - v) < order_threshold:
            return
        assign(v + 1, left, right)
        if not adj[v] & left:
            assign(v + 1, left | (1 << v), right)
        if not adj[v] & right:
            assign(v + 1, left, right | (1 << v))

    assign(0, 0, 0)
    if best is not None:
        return DichotomyResult("bipartite", None, (best[2], best[1]), details)
    return DichotomyResult("neither", None, None, details)


# ---------------------------------------------------------------------------
# greedy book family


class Book(Record):
    base: tuple[int, int]
    pages: frozenset[int]


class BookFamily(Record):
    books: tuple[Book, ...]
    removed_bases: frozenset[tuple[int, int]]
    residual: Graph


def greedy_book_family(graph: Graph, threshold: int) -> BookFamily:
    """Repeatedly extract the largest book of size >= threshold and delete
    its base edge; stops when none remains."""
    if threshold < 1:
        raise InvalidParameterError("threshold must be at least 1")
    current = graph
    books = []
    while True:
        size, edge = booksize_edge(current)
        if edge is None or size < threshold:
            break
        pages = frozenset(_mask_vertices(current.common_neighbors(*edge)))
        books.append(Book(edge, pages))
        current = current.without_edge(*edge)
    return BookFamily(tuple(books), frozenset(b.base for b in books), current)


# ---------------------------------------------------------------------------
# template-guided peeling


class PeelStep(Record):
    index: int
    kind: str
    vertices: tuple[int, ...]
    order_before: int
    remaining_before: tuple[int, ...]
    witness: dict


class PeelTrace(Record):
    removed: tuple[PeelStep, ...]
    residual: Graph | None
    residual_vertices: tuple[int, ...]
    residual_template_stats: dict


def peel(graph: Graph, template: Template, xi) -> PeelTrace:
    """Iteratively strip low-degree vertices and wide-palette pairs.

    At each step, first remove the lowest-index vertex whose current degree
    is at most (1/2 - xi^2)(m - 1) where m is the current order; failing
    that, remove the lowest-edge-id pair {u, v} that is a typical wide-palette
    edge with at least 2 xi^2 (m - 2) common neighbors in the current graph.
    Wide-palette typicality is judged once against the full template, while
    degrees and co-neighborhoods track the shrinking graph.  Each removal
    records the measured value and threshold it satisfied.
    """
    if template.n != graph.n:
        raise InvalidInputError("template order must match the graph order")
    q = Fraction(xi)
    if not 0 < q < 1:
        raise InvalidParameterError("xi must lie strictly between 0 and 1")
    n = graph.n
    adj = graph.adj
    wide = r_edges(template)
    typical = wide.typical
    half_less = Fraction(1, 2) - q * q
    pair_coeff = 2 * q * q

    remaining = (1 << n) - 1
    steps: list[PeelStep] = []
    while remaining:
        m = remaining.bit_count()
        before = _mask_vertices(remaining)
        fired = False
        threshold = half_less * (m - 1)
        for v in before:
            deg = (adj[v] & remaining).bit_count()
            if deg <= threshold:
                steps.append(PeelStep(len(steps), "single", (v,), m, before,
                                      {"degree": deg, "threshold": float(threshold)}))
                remaining ^= 1 << v
                fired = True
                break
        if fired:
            continue
        pair_threshold = pair_coeff * (m - 2)
        for u, v in itertools.combinations(before, 2):
            if (u, v) not in typical:
                continue
            co = (adj[u] & adj[v] & remaining).bit_count()
            if co >= pair_threshold:
                steps.append(PeelStep(len(steps), "pair", (u, v), m, before,
                                      {"common_neighbors": co,
                                       "threshold": float(pair_threshold)}))
                remaining ^= (1 << u) | (1 << v)
                fired = True
                break
        if not fired:
            break

    residual_vertices = _mask_vertices(remaining)
    residual = graph.induced(residual_vertices) if residual_vertices else None
    inside = [(u, v) for u, v in itertools.combinations(residual_vertices, 2)]
    sizes = [template.palette(u, v).bit_count() for u, v in inside]
    stats = {
        "order": len(residual_vertices),
        "edges": residual.edge_count if residual else 0,
        "r_edges": sum(1 for e in inside if e in wide.all),
        "typical_r_edges": sum(1 for e in inside if e in wide.typical),
        "min_palette": min(sizes, default=0),
        "max_palette": max(sizes, default=0),
    }
    return PeelTrace(tuple(steps), residual, residual_vertices, stats)


# ---------------------------------------------------------------------------
# low-degree removal


class RemovalResult(Record):
    residual: Graph | None
    residual_vertices: tuple[int, ...]
    removed_order: tuple[int, ...]


def remove_low_degree(graph: Graph, candidates) -> RemovalResult:
    """Repeatedly delete the lowest-index candidate whose current degree is
    strictly below half the current order.

    The run always satisfies the edge-loss identity
    2 (e(G) - e(G')) <= C(n,2) - C(n',2), which is asserted on every call.
    """
    cset = set(candidates)
    if any(not 0 <= v < graph.n for v in cset):
        raise InvalidInputError("candidate vertex out of range")
    adj = graph.adj
    remaining = (1 << graph.n) - 1
    removed = []
    while True:
        m = remaining.bit_count()
        pick = None
        for v in sorted(cset):
            if remaining >> v & 1 and 2 * (adj[v] & remaining).bit_count() < m:
                pick = v
                break
        if pick is None:
            break
        remaining ^= 1 << pick
        removed.append(pick)
    residual_vertices = _mask_vertices(remaining)
    residual = graph.induced(residual_vertices) if residual_vertices else None
    e_res = residual.edge_count if residual else 0
    n_res = len(residual_vertices)
    assert 2 * (graph.edge_count - e_res) <= comb(graph.n, 2) - comb(n_res, 2)
    return RemovalResult(residual, residual_vertices, tuple(removed))


# ---------------------------------------------------------------------------
# supersaturation


class SupersatReport(Record):
    t_far: bool
    bound: float
    cliques: int
    ok: bool


def supersaturation_check(graph: Graph, k: int, t: int, *,
                          node_budget: int = DEFAULT_NODE_BUDGET) -> SupersatReport:
    """Count (k+1)-cliques against the supersaturation lower bound.

    A graph t-far from k-partite must contain at least
    n^(k-1) / (e^(2k) k!) (e(G) + t - (1 - 1/k) n^2 / 2) cliques on k+1
    vertices; graphs that are not t-far pass vacuously.  node_budget bounds
    the max k-cut search that decides t-farness.  The bound is reported as a
    float, so k and t that put it past the float range are refused.
    """
    if k < 1 or t < 1:
        raise InvalidParameterError("need k >= 1 and t >= 1")
    n = graph.n
    far = t_far(graph, k, t, node_budget=node_budget)
    try:
        bound = (n ** (k - 1) / (math.exp(2 * k) * math.factorial(k))
                 * (graph.edge_count + t - (1 - 1 / k) * n * n / 2))
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise InvalidParameterError(
            "k and t are too large: the supersaturation bound is past the float range")
    cliques = count_cliques(graph, k + 1)
    return SupersatReport(far, bound, cliques, (not far) or cliques >= bound)
