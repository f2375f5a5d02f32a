"""Exact counting of Gallai colorings: edge colorings with no rainbow triangle.

Two independent counting routes are kept side by side on purpose:

* :func:`count_gallai_naive` sweeps the full product space of colorings with
  vectorized triangle checks and no search cleverness at all, and
* :func:`count_gallai` backtracks over edges with rainbow pruning and
  forced-color propagation.

Counts are plain Python integers, so they never overflow or round.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, log2

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, ResourceLimitError
from .graphs import Graph

DEFAULT_LEAF_BUDGET = 10**8
DEFAULT_NODE_BUDGET = 10**9


class Coloring:
    """Total edge coloring with colors 1..r, keyed by normalized (u, v) pairs."""

    __slots__ = ("colors", "r")

    def __init__(self, colors, r: int):
        if r < 1:
            raise InvalidParameterError("need r >= 1 colors")
        norm: dict[tuple[int, int], int] = {}
        for (u, v), c in dict(colors).items():
            if u == v:
                raise InvalidInputError(f"loop edge ({u}, {v})")
            if u > v:
                u, v = v, u
            if not 1 <= c <= r:
                raise InvalidInputError(f"color {c} outside 1..{r}")
            norm[(u, v)] = c
        self.colors = norm
        self.r = r

    @classmethod
    def from_sequence(cls, graph: Graph, seq, r: int) -> "Coloring":
        """Colors assigned to graph.edges() in order."""
        seq = list(seq)
        edges = graph.edges()
        if len(seq) != len(edges):
            raise InvalidInputError(f"expected {len(edges)} colors, got {len(seq)}")
        return cls(dict(zip(edges, seq)), r)

    def color(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self.colors[(u, v)]

    def used_colors(self) -> set[int]:
        return set(self.colors.values())

    def __eq__(self, other):
        return isinstance(other, Coloring) and self.r == other.r and self.colors == other.colors

    def __repr__(self):
        return f"Coloring(r={self.r}, {self.colors!r})"


def _check_total(graph: Graph, coloring: Coloring) -> None:
    edges = set(graph.edges())
    dom = set(coloring.colors)
    if dom != edges:
        missing = sorted(edges - dom)[:3]
        extra = sorted(dom - edges)[:3]
        raise InvalidInputError(f"coloring domain mismatch: missing={missing} extra={extra}")


def is_gallai(graph: Graph, coloring: Coloring) -> bool:
    """True when no triangle of the graph carries three distinct colors."""
    _check_total(graph, coloring)
    col = coloring.colors
    for a, b, c in graph.triangles():
        x, y, z = col[(a, b)], col[(a, c)], col[(b, c)]
        if x != y and y != z and x != z:
            return False
    return True


# ---------------------------------------------------------------------------
# naive route: full enumeration with vectorized triangle checks


def _triangle_edge_triples(graph: Graph) -> list[tuple[int, int, int]]:
    edges = graph.edges()
    pos = {e: i for i, e in enumerate(edges)}
    return [(pos[(a, b)], pos[(a, c)], pos[(b, c)]) for a, b, c in graph.triangles()]


def scan_colorings(graph: Graph, r: int, *, leaf_budget: int = DEFAULT_LEAF_BUDGET,
                   chunk: int = 1 << 16):
    """Sweep all r^e(G) colorings in chunks.

    Yields (colors, gallai) pairs where ``colors`` is an (N, e) uint8 array of
    0-based colors aligned with graph.edges() and ``gallai`` flags the rows
    with no rainbow triangle.  The sweep is plain mixed-radix enumeration.
    """
    if r < 1:
        raise InvalidParameterError("need r >= 1")
    if not 1 <= r <= 255:
        raise InvalidParameterError("color count does not fit the scan encoding")
    m = graph.edge_count
    total = r**m
    if total > leaf_budget:
        raise ResourceLimitError(f"r^e = {total} colorings exceed the leaf budget {leaf_budget}")
    triples = _triangle_edge_triples(graph)
    powers = [r**e for e in range(m)]
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        cols = np.empty((stop - start, m), dtype=np.uint8)
        for e in range(m):
            cols[:, e] = (idx // powers[e]) % r
        ok = np.ones(stop - start, dtype=bool)
        for a, b, c in triples:
            ca, cb, cc = cols[:, a], cols[:, b], cols[:, c]
            ok &= ~((ca != cb) & (cb != cc) & (ca != cc))
        yield cols, ok


def count_gallai_naive(graph: Graph, r: int, *, leaf_budget: int = DEFAULT_LEAF_BUDGET) -> int:
    """Exact Gallai coloring count by full enumeration of all r^e(G) colorings."""
    if r < 1:
        raise InvalidParameterError("need r >= 1")
    m = graph.edge_count
    total = r**m
    if total > leaf_budget:
        raise ResourceLimitError(f"r^e = {total} colorings exceed the leaf budget {leaf_budget}")
    if not graph.triangles():
        return total
    count = 0
    for _, ok in scan_colorings(graph, r, leaf_budget=leaf_budget):
        count += int(ok.sum())
    return count


def gallai_colorings(graph: Graph, r: int, *, leaf_budget: int = 10**7):
    """Yield every Gallai coloring as a 1-based color tuple over graph.edges()."""
    if r < 1:
        raise InvalidParameterError("need r >= 1")
    m = graph.edge_count
    if r**m > leaf_budget:
        raise ResourceLimitError(f"r^e = {r**m} colorings exceed the leaf budget {leaf_budget}")
    triples = _triangle_edge_triples(graph)
    for assignment in itertools.product(range(1, r + 1), repeat=m):
        ok = True
        for a, b, c in triples:
            x, y, z = assignment[a], assignment[b], assignment[c]
            if x != y and y != z and x != z:
                ok = False
                break
        if ok:
            yield assignment


# ---------------------------------------------------------------------------
# pruned route: backtracking with propagation


def _edge_components(m: int, triples) -> list[list[int]]:
    """Group edges that interact through triangles; singletons are free edges."""
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, c in triples:
        ra, rb, rc = find(a), find(b), find(c)
        parent[rb] = ra
        parent[find(rc)] = ra
    groups: dict[int, list[int]] = {}
    for e in range(m):
        groups.setdefault(find(e), []).append(e)
    return sorted(groups.values(), key=lambda g: g[0])


class _ComponentPlan:
    """Static search plan for one triangle-connected edge component."""

    __slots__ = ("order", "narrow", "tail_start")

    def __init__(self, comp: list[int], tri_of_edge: dict[int, list[tuple[int, int]]]):
        placed = set()
        remaining = sorted(comp)
        order: list[int] = []
        # greedy: close as many fully-placed triangles as possible, ties by edge id
        while remaining:
            best_e, best_score = None, -1
            for e in remaining:
                score = sum(1 for f, g in tri_of_edge[e] if f in placed and g in placed)
                if score > best_score:
                    best_e, best_score = e, score
            order.append(best_e)
            placed.add(best_e)
            remaining.remove(best_e)
        pos = {e: i for i, e in enumerate(order)}
        narrow: list[tuple[tuple[int, int], ...]] = []
        for i, e in enumerate(order):
            pairs = []
            for f, g in tri_of_edge[e]:
                pf, pg = pos.get(f), pos.get(g)
                if pf is None or pg is None:
                    continue
                if pf < i < pg:
                    pairs.append((f, g))
                elif pg < i < pf:
                    pairs.append((g, f))
            narrow.append(tuple(pairs))
        # past the last second-highest triangle position, remaining palettes
        # are mutually unconstrained and multiply out
        tail = 0
        seen_tris = set()
        for e in comp:
            for f, g in tri_of_edge[e]:
                tri = tuple(sorted((e, f, g)))
                if tri in seen_tris:
                    continue
                seen_tris.add(tri)
                second = sorted(pos[x] for x in tri)[1]
                tail = max(tail, second + 1)
        self.order = order
        self.narrow = narrow
        self.tail_start = tail


class _Searcher:
    """Backtracking counter over one component plan.

    Assigning a color to an edge narrows the candidate palettes of the yet
    unassigned third edges of its triangles to the two colors already present,
    so a branch dies the moment a rainbow triangle becomes unavoidable.
    """

    __slots__ = ("plan", "cand", "colors", "meter")

    def __init__(self, plan: _ComponentPlan, cand: list[int], colors: list[int], meter: list[int]):
        self.plan = plan
        self.cand = cand
        self.colors = colors
        self.meter = meter

    def run(self, pos: int) -> int:
        plan = self.plan
        if pos == plan.tail_start:
            prod = 1
            for e in plan.order[pos:]:
                prod *= self.cand[e].bit_count()
                if not prod:
                    return 0
            return prod
        cand = self.cand
        colors = self.colors
        meter = self.meter
        e = plan.order[pos]
        pairs = plan.narrow[pos]
        total = 0
        mask = cand[e]
        while mask:
            bit = mask & -mask
            mask ^= bit
            meter[0] -= 1
            if meter[0] < 0:
                raise ResourceLimitError("node budget exhausted during backtracking",
                                         nodes_visited=meter[1] - meter[0])
            colors[e] = bit
            trail = []
            dead = False
            for f, g in pairs:
                d = colors[f]
                if d == bit:
                    continue
                old = cand[g]
                new = old & (bit | d)
                if new != old:
                    if not new:
                        dead = True
                        break
                    trail.append((g, old))
                    cand[g] = new
            if not dead:
                total += self.run(pos + 1)
            for g, old in trail:
                cand[g] = old
        return total


def _search_plans(graph: Graph) -> list[_ComponentPlan]:
    m = graph.edge_count
    triples = _triangle_edge_triples(graph)
    tri_of_edge: dict[int, list[tuple[int, int]]] = {e: [] for e in range(m)}
    for a, b, c in triples:
        tri_of_edge[a].append((b, c))
        tri_of_edge[b].append((a, c))
        tri_of_edge[c].append((a, b))
    return [_ComponentPlan(comp, tri_of_edge) for comp in _edge_components(m, triples)]


def _count_planned(plans: list[_ComponentPlan], masks: list[int], meter: list[int]) -> int:
    """Product of the component counts; meter is [nodes left, budget]."""
    total = 1
    for plan in plans:
        total *= _Searcher(plan, list(masks), [0] * len(masks), meter).run(0)
        if total == 0:
            return 0
    return total


def count_gallai_with_palettes(graph: Graph, palette_masks, *,
                               node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Gallai colorings of the graph where edge i draws its color from the bitmask
    palette_masks[i] (bit c-1 stands for color c), aligned with graph.edges()."""
    masks = list(palette_masks)
    m = graph.edge_count
    if len(masks) != m:
        raise InvalidInputError(f"expected {m} palettes, got {len(masks)}")
    if m == 0:
        return 1
    if any(mask < 0 for mask in masks):
        raise InvalidInputError("negative palette mask")
    if any(mask == 0 for mask in masks):
        return 0
    return _count_planned(_search_plans(graph), masks, [node_budget, node_budget])


def count_gallai(graph: Graph, r: int, *, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Exact number of Gallai colorings of the graph with colors from 1..r.

    Backtracks in a greedy edge order that closes triangles early, prunes on
    completed rainbow triangles, and narrows palettes by forced-color
    propagation.  Colors are interchangeable, so counts for a fixed number of
    colors are lifted to any r through surjective counts, which keeps the
    search bounded by the largest number of colors the graph can actually use.
    node_budget bounds the search nodes of the whole call, over every color
    count searched.
    """
    if r < 1:
        raise InvalidParameterError("need r >= 1")
    m = graph.edge_count
    if m == 0:
        return 1
    if r == 1:
        return 1
    if r == 2:
        return 2**m
    # counts[j] = Gallai colorings with colors drawn from a fixed j-set
    counts: dict[int, int] = {0: 0, 1: 1, 2: 2**m}
    surjective: dict[int, int] = {1: 1, 2: 2**m - 2}
    plans = _search_plans(graph)
    meter = [node_budget, node_budget]
    j_cap = min(r, m)
    for j in range(3, j_cap + 1):
        counts[j] = _count_planned(plans, [(1 << j) - 1] * m, meter)
        surj = sum((-1) ** i * comb(j, i) * counts[j - i] for i in range(j + 1))
        surjective[j] = surj
        if surj == 0:
            # merging color classes shows no coloring can use more colors either
            return sum(comb(r, k) * surjective[k] for k in range(1, j))
    if j_cap == r:
        return counts[r]
    return sum(comb(r, k) * surjective[k] for k in range(1, j_cap + 1))


# ---------------------------------------------------------------------------
# closed forms and bounds


def lower_bound_two_color(n: int, r: int) -> int:
    """Gallai colorings of K_n that use at most two colors."""
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    if r < 2:
        raise InvalidParameterError("need r >= 2")
    return comb(r, 2) * 2 ** comb(n, 2) - r * (r - 2)


def red_once_count(n: int) -> int:
    """Gallai colorings of K_n with exactly three colors, one used exactly once."""
    if n < 3:
        raise InvalidParameterError("need n >= 3")
    return comb(n, 2) * (2 ** (comb(n, 2) - (n - 1)) - 2)


def book_gallai_count(q: int, r: int) -> int:
    """Gallai colorings of the book with q pages: r * (3r - 2)^q.

    Given the base color, each page contributes 3r - 2 legal color pairs and
    pages only interact through the base, so the product is exact.
    """
    if q < 0:
        raise InvalidParameterError("need q >= 0")
    if r < 1:
        raise InvalidParameterError("need r >= 1")
    return r * (3 * r - 2) ** q


@dataclass(frozen=True)
class AsymptoticBounds:
    """Two-sided bounds for the Gallai coloring count of K_n, reported in log2."""

    n: int
    r: int
    trivial_lower: Fraction
    trivial_lower_log2: float
    main_upper_log2: float


def asymptotic_bounds(n: int, r: int) -> AsymptoticBounds:
    """Trivial lower bound (C(r,2) + 2^-n) 2^C(n,2) as an exact rational and the
    upper bound (C(r,2) + 2^(-n / (4 log2(n)^2))) 2^C(n,2) in log2 space."""
    if n < 2:
        raise InvalidParameterError("need n >= 2")
    if r < 2:
        raise InvalidParameterError("need r >= 2")
    m = comb(n, 2)
    lower = (Fraction(comb(r, 2)) + Fraction(1, 2**n)) * Fraction(2**m)
    lower_log2 = log2(lower.numerator) - log2(lower.denominator)
    exponent = n / (4.0 * log2(n) ** 2)
    upper_log2 = log2(comb(r, 2) + 2.0 ** (-exponent)) + m
    return AsymptoticBounds(n, r, lower, lower_log2, upper_log2)


# ---------------------------------------------------------------------------
# deviation from a two-color majority


def max_matching_size(n: int, edges) -> int:
    """Exact maximum matching size by exhaustive search over vertex subsets."""
    if n > 20:
        raise ResourceLimitError(f"matching search is exponential in n; n={n} > 20")
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    memo: dict[int, int] = {0: 0}

    def best(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        bit = mask & -mask
        rest = mask ^ bit
        value = best(rest)
        nb = adj[bit.bit_length() - 1] & rest
        while nb:
            ub = nb & -nb
            nb ^= ub
            value = max(value, 1 + best(rest ^ ub))
        memo[mask] = value
        return value

    return best((1 << n) - 1)


@dataclass(frozen=True)
class SDeviation:
    """Edges colored outside a fixed pair of colors, and their matching number."""

    pair: tuple[int, int]
    s_edges: frozenset[tuple[int, int]]
    matching_size: int


def s_deviation(graph: Graph, coloring: Coloring, i: int, j: int) -> SDeviation:
    if i == j:
        raise InvalidParameterError("the two majority colors must differ")
    r = coloring.r
    if not (1 <= i <= r and 1 <= j <= r):
        raise InvalidParameterError(f"colors must lie in 1..{r}")
    if i > j:
        i, j = j, i
    _check_total(graph, coloring)
    stray = frozenset(e for e, c in coloring.colors.items() if c not in (i, j))
    size = max_matching_size(graph.n, stray)
    return SDeviation((i, j), stray, size)
