"""Palette templates: one set of allowed colors per edge of a complete graph.

A template P assigns each edge of K_n a palette P(e), a subset of 1..r stored
as a bitmask (bit c-1 stands for color c).  A coloring is a subtemplate of P
when every edge color lies in the edge's palette; RT(P) counts the rainbow
triangles realizable inside P.
"""

from __future__ import annotations

from collections import Counter
from math import comb, log2

from .counting import Coloring, count_gallai_with_palettes, DEFAULT_NODE_BUDGET
from .errors import InvalidInputError, InvalidParameterError, ParseError
from .graphs import (TALLY_MODES, Graph, Record, complete, content_lines, edge_index,
                     edge_pairs)

MAX_COLORS = 16


class Template(Record):
    """Palette assignment over all C(n,2) edges of K_n, in edge_index order."""

    n: int
    r: int
    palettes: tuple[int, ...]

    def __init__(self, n: int, r: int, palettes: tuple[int, ...]):
        super().__init__(n, r, palettes)
        if self.n < 1:
            raise InvalidParameterError("need n >= 1")
        if not 1 <= self.r <= MAX_COLORS:
            raise InvalidParameterError(f"color count must lie in 1..{MAX_COLORS}")
        if len(self.palettes) != comb(self.n, 2):
            raise InvalidParameterError(
                f"expected {comb(self.n, 2)} palettes, got {len(self.palettes)}")
        full = (1 << self.r) - 1
        for i, mask in enumerate(self.palettes):
            if mask & ~full or mask < 0:
                raise InvalidParameterError(f"palette {i} uses colors beyond r={self.r}")

    def palette(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self.palettes[edge_index(self.n, u, v)]

    def palette_colors(self, u: int, v: int) -> frozenset[int]:
        mask = self.palette(u, v)
        return frozenset(c + 1 for c in range(self.r) if mask >> c & 1)

    def sizes(self) -> list[int]:
        return [mask.bit_count() for mask in self.palettes]


def full_template(n: int, r: int) -> Template:
    full = (1 << r) - 1
    return Template(n, r, tuple([full] * comb(n, 2)))


def pair_template(n: int, r: int, i: int, j: int) -> Template:
    """Every palette equal to the two-color set {i, j}."""
    if i == j or not (1 <= i <= r and 1 <= j <= r):
        raise InvalidParameterError(f"need two distinct colors in 1..{r}")
    mask = (1 << (i - 1)) | (1 << (j - 1))
    return Template(n, r, tuple([mask] * comb(n, 2)))


def from_coloring(coloring: Coloring, n: int) -> Template:
    """Singleton palettes on the colored edges, empty palettes elsewhere."""
    masks = [0] * comb(n, 2)
    for (u, v), c in coloring.colors.items():
        if v >= n:
            raise InvalidInputError(f"edge ({u}, {v}) does not fit order {n}")
        masks[edge_index(n, u, v)] = 1 << (c - 1)
    return Template(n, coloring.r, tuple(masks))


def is_subtemplate(inner: Template, outer: Template) -> bool:
    """Edgewise palette containment; both templates must share n and r."""
    if inner.n != outer.n or inner.r != outer.r:
        raise InvalidInputError("subtemplate comparison needs matching order and color count")
    return all(a & ~b == 0 for a, b in zip(inner.palettes, outer.palettes))


def coloring_in_template(template: Template, coloring: Coloring) -> bool:
    """True when every edge color is drawn from its palette."""
    for (u, v), c in coloring.colors.items():
        if v >= template.n:
            raise InvalidInputError(f"edge ({u}, {v}) does not fit order {template.n}")
        if not template.palette(u, v) >> (c - 1) & 1:
            return False
    return True


def _distinct_triples(a: int, b: int, c: int) -> int:
    """Number of (x, y, z) in A x B x C with pairwise distinct entries."""
    ab = (a & b).bit_count()
    ac = (a & c).bit_count()
    bc = (b & c).bit_count()
    abc = (a & b & c).bit_count()
    pa, pb, pc = a.bit_count(), b.bit_count(), c.bit_count()
    return pa * pb * pc - ab * pc - ac * pb - bc * pa + 2 * abc


def rt_count(template: Template) -> int:
    """Number of rainbow triangles realizable inside the template."""
    pal = template.palettes
    return sum(_distinct_triples(pal[a], pal[b], pal[c])
               for a, b, c in complete(template.n).triangle_edges())


def rt_through_edge(template: Template, u: int, v: int) -> int:
    """Rainbow triangles realizable through one fixed edge."""
    base = template.palette(u, v)
    return sum(_distinct_triples(base, template.palette(u, w), template.palette(v, w))
               for w in range(template.n) if w != u and w != v)


def is_gallai_template(template: Template, graph: Graph) -> bool:
    """Nonempty palettes on the graph's edges and few rainbow triangles.

    The sparsity test RT(P) <= n^(-1/3) C(n,3) is decided in exact integers as
    RT^3 * n <= C(n,3)^3.
    """
    if graph.n > template.n:
        raise InvalidInputError("graph order exceeds template order")
    n = template.n
    if any(template.palette(u, v) == 0 for u, v in graph.edges()):
        return False
    rt = rt_count(template)
    return rt**3 * n <= comb(n, 3) ** 3


def count_ga(template: Template, graph: Graph, *,
             node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Gallai colorings of the graph drawing every edge color from its palette."""
    if graph.n > template.n:
        raise InvalidInputError("graph order exceeds template order")
    masks = [template.palette(u, v) for u, v in graph.edges()]
    return count_gallai_with_palettes(graph, masks, node_budget=node_budget)


# ---------------------------------------------------------------------------
# triangle classification

class TriangleTally(Record):
    """Triangle class counts T1..T5 for one classification mode."""

    mode: str
    counts: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.counts)

    def total(self) -> int:
        return sum(v for _, v in self.counts)


def _classify_complete(sizes, masks) -> str:
    s1, s2, s3 = sorted(sizes)
    if s1 + s2 + s3 == 6 and masks[0] == masks[1] == masks[2]:
        return "T1"
    if s3 >= 3:
        return "T2"
    if s1 + s2 + s3 == 6:
        return "T3"
    if s1 + s2 + s3 <= 5:
        return "T4"
    return "T5"


def _classify_dense_generic(sizes, masks) -> str:
    s1, s2, s3 = sorted(sizes)
    total = s1 + s2 + s3
    if total == 6 and masks[0] == masks[1] == masks[2]:
        return "T1"
    if s1 == 0 and s2 >= 3:
        return "T2"
    if s3 >= 3 and s1 + s2 <= 2:
        return "T3"
    if total >= 6:
        return "T4"
    return "T5"


def _classify_dense4(sizes, masks) -> str:
    s1, s2, s3 = sorted(sizes)
    total = s1 + s2 + s3
    if total == 6 and masks[0] == masks[1] == masks[2]:
        return "T1"
    if s1 == 0:
        return "T2"
    if (s1, s2, s3) == (1, 1, 4):
        return "T3"
    if total >= 6:
        return "T4"
    return "T5"


def classify_triangles(template: Template, mode: str) -> TriangleTally:
    """Partition the C(n,3) triangles of K_n into palette-profile classes.

    Classes are tested in the order T1..T5 and each triangle lands in the
    first class it matches, so the tallies always sum to C(n,3).  A class
    depends only on the triangle's three palettes, so each distinct triple
    of palettes is classified once and counted as often as it occurs.
    """
    if mode not in TALLY_MODES:
        raise InvalidParameterError(f"unknown mode {mode!r}; expected one of {TALLY_MODES}")
    if mode == "dense4" and template.r != 4:
        raise InvalidInputError("dense4 classification is defined for r = 4 templates")
    classify = {
        "complete": _classify_complete,
        "dense-generic": _classify_dense_generic,
        "dense4": _classify_dense4,
    }[mode]
    pal = template.palettes
    triangles = complete(template.n).triangle_edges()
    triples = Counter((pal[a], pal[b], pal[c]) for a, b, c in triangles)
    tally = {label: 0 for label in ("T1", "T2", "T3", "T4", "T5")}
    for masks, count in triples.items():
        tally[classify(tuple(m.bit_count() for m in masks), masks)] += count
    result = TriangleTally(mode, tuple(tally.items()))
    assert result.total() == comb(template.n, 3)
    return result


# ---------------------------------------------------------------------------
# weights and entropy-style bounds


def weight(template: Template, u: int, v: int) -> int:
    """Palette size, with empty palettes weighted 1 so logs stay finite."""
    size = template.palette(u, v).bit_count()
    return size if size else 1


class ProductLogBound(Record):
    edge_sum: float
    triangle_sum: float


def product_log_bound(template: Template) -> ProductLogBound:
    """log2 of the palette-size product, summed per edge and per triangle.

    Every edge lies in n-2 triangles, so the triangle sum divided by n-2
    reproduces the edge sum exactly; both are reported for cross-checking.
    The edge sum bounds log2 of the constrained coloring count from above.
    """
    n = template.n
    logs = [log2(mask.bit_count()) if mask else 0.0 for mask in template.palettes]
    edge_sum = sum(logs, 0.0)
    if n < 3:
        return ProductLogBound(edge_sum, edge_sum)
    tri_sum = 0.0
    for a, b, c in complete(n).triangle_edges():
        tri_sum += logs[a] + logs[b] + logs[c]
    return ProductLogBound(edge_sum, tri_sum / (n - 2))


# ---------------------------------------------------------------------------
# wide palettes


class REdges(Record):
    """Edges with at least three allowed colors, split by rainbow exposure.

    An edge is typical when the number of rainbow triangles through it stays
    below n^(11/12), decided in exact integers as count^12 <= n^11.
    """

    all: frozenset[tuple[int, int]]
    typical: frozenset[tuple[int, int]]


def r_edges(template: Template) -> REdges:
    n = template.n
    wide = []
    typical = []
    for u, v in edge_pairs(n):
        if template.palette(u, v).bit_count() >= 3:
            wide.append((u, v))
            through = rt_through_edge(template, u, v)
            if through**12 <= n**11:
                typical.append((u, v))
    return REdges(frozenset(wide), frozenset(typical))


# ---------------------------------------------------------------------------
# text format


def template_to_text(template: Template) -> str:
    """Serialize as a header 'n r' plus one 'u v bitstring' line per edge.

    Bitstring position k (0-based) holds 1 when color k+1 is allowed.
    """
    lines = [f"{template.n} {template.r}"]
    for u, v in edge_pairs(template.n):
        mask = template.palette(u, v)
        bits = "".join("1" if mask >> k & 1 else "0" for k in range(template.r))
        lines.append(f"{u} {v} {bits}")
    return "\n".join(lines) + "\n"


def template_from_text(text: str) -> Template:
    lines = list(content_lines(text))
    if not lines:
        raise ParseError("empty template", line=1)
    head_no, head = lines[0][0], lines[0][1].split()
    if len(head) != 2:
        raise ParseError("header must be 'n r'", line=head_no)
    try:
        n, r = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header must hold two integers", line=head_no) from None
    if n < 1:
        raise ParseError("order-0 templates are rejected", line=head_no)
    if not 1 <= r <= MAX_COLORS:
        raise ParseError(f"color count must lie in 1..{MAX_COLORS}", line=head_no)
    m = comb(n, 2)
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} palette lines, found {len(lines) - 1}",
                         line=lines[-1][0])
    masks: list[int | None] = [None] * m
    for no, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ParseError("palette line must be 'u v bitstring'", line=no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("palette line must start with two integers", line=no) from None
        if u > v:
            u, v = v, u
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"bad edge ({u}, {v})", line=no)
        bits = parts[2]
        if len(bits) != r or any(ch not in "01" for ch in bits):
            raise ParseError(f"bitstring must be {r} chars of 0/1", line=no)
        idx = edge_index(n, u, v)
        if masks[idx] is not None:
            raise ParseError(f"duplicate palette for edge ({u}, {v})", line=no)
        masks[idx] = sum(1 << k for k, ch in enumerate(bits) if ch == "1")
    return Template(n, r, tuple(m_ for m_ in masks))  # type: ignore[arg-type]
