"""Shared generators and independent reference implementations.

The helpers here deliberately avoid the library's optimized paths so tests
compare two genuinely different routes to the same answer.
"""
import itertools
import random
from fractions import Fraction
from math import comb

from gallai.graphs import Graph, edge_index
from gallai.stability import MajorityReport
from gallai.templates import Template


def random_graph(rng: random.Random, n: int) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def random_template(rng: random.Random, n: int, r: int) -> Template:
    masks = tuple(rng.randrange(1 << r) for _ in range(comb(n, 2)))
    return Template(n, r, masks)


def brute_triangles(graph: Graph) -> list[tuple[int, int, int]]:
    return [
        (a, b, c)
        for a, b, c in itertools.combinations(range(graph.n), 3)
        if graph.has_edge(a, b) and graph.has_edge(a, c) and graph.has_edge(b, c)
    ]


def brute_canonical_form(graph: Graph) -> bytes:
    """Minimal packed edge bitstring over all n! vertex relabelings, by a
    plain loop over ``itertools.permutations``."""
    n = graph.n
    m = comb(n, 2)
    edges = graph.edges()
    best = None
    for perm in itertools.permutations(range(n)):
        val = 0
        for u, v in edges:
            pu, pv = perm[u], perm[v]
            if pu > pv:
                pu, pv = pv, pu
            val |= 1 << (m - 1 - edge_index(n, pu, pv))
        if best is None or val < best:
            best = val
    nbytes = (m + 7) // 8
    return (best << (8 * nbytes - m)).to_bytes(nbytes, "big")


def assignment_is_gallai(triangles, edge_pos, colors) -> bool:
    for a, b, c in triangles:
        x = colors[edge_pos[(a, b)]]
        y = colors[edge_pos[(a, c)]]
        z = colors[edge_pos[(b, c)]]
        if x != y and y != z and x != z:
            return False
    return True


def constrained_count(template: Template, graph: Graph, cap: int = 500_000):
    """Count colorings of the graph inside the template by direct product
    enumeration.  Returns None when the palette product exceeds the cap."""
    edges = graph.edges()
    choices = []
    for u, v in edges:
        cols = sorted(template.palette_colors(u, v))
        if not cols:
            return 0
        choices.append(cols)
    size = 1
    for cols in choices:
        size *= len(cols)
        if size > cap:
            return None
    edge_pos = {e: i for i, e in enumerate(edges)}
    triangles = brute_triangles(graph)
    return sum(
        1 for combo in itertools.product(*choices)
        if assignment_is_gallai(triangles, edge_pos, combo)
    )


def brute_count_gallai(graph: Graph, r: int) -> int:
    """Plain product-loop count, independent of the array scan and the
    backtracking counter."""
    edges = graph.edges()
    edge_pos = {e: i for i, e in enumerate(edges)}
    triangles = brute_triangles(graph)
    return sum(
        1 for combo in itertools.product(range(1, r + 1), repeat=len(edges))
        if assignment_is_gallai(triangles, edge_pos, combo)
    )


def brute_majority_report(graph: Graph, coloring, eps) -> MajorityReport:
    """The monochromatic-majority check by a loop over ``triangles()`` with
    ``Fraction`` comparisons, independent of the bitmask count."""
    eps = Fraction(eps)
    n = graph.n
    r = coloring.r
    mono = 0
    for a, b, c in graph.triangles():
        x = coloring.color(a, b)
        if x == coloring.color(a, c) == coloring.color(b, c):
            mono += 1
    hypothesis_ok = Fraction(mono) >= (1 - eps) * comb(n, 3)
    per_color = [0] * (r + 1)
    for col in coloring.colors.values():
        per_color[col] += 1
    best = max(range(1, r + 1), key=lambda c: (per_color[c], -c))
    deficit = graph.edge_count - per_color[best]
    conclusion_ok = Fraction(deficit) <= 4 * r * r * eps * comb(n, 2)
    feasible = Fraction(4, n) - Fraction(4, n * n) <= eps < Fraction(1, 2)
    return MajorityReport(mono, hypothesis_ok, best, deficit, conclusion_ok, feasible)
