"""The rainbow-triangle hypergraph, its parameter audit, and cover checking.

The 3-uniform hypergraph H(n, r) has vertex set E(K_n) x {1..r}; hyperedges
are the triples {(e1,d1), (e2,d2), (e3,d3)} where e1, e2, e3 is a triangle of
K_n and d1, d2, d3 are pairwise distinct colors.  Independent sets of H are
exactly the rainbow-triangle-free templates, so a small family of templates
covering all independent sets certifies an upper bound on Gallai colorings.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, exp, isqrt, log, log2

from .counting import gallai_colorings, sample_complete
from .errors import InvalidInputError, InvalidParameterError, ResourceLimitError
from .graphs import DEFAULT_NODE_BUDGET, DEFAULT_SAMPLE_SIZE, Record, complete, edge_pairs
# unused here, but still importable under its old name
from .graphs import DEFAULT_C_CAP  # noqa: F401
from .templates import Template, rt_count

BUILD_N_LIMIT = 10
BUILD_R_LIMIT = 6

# tau must stay below 1/(200 * (3!)^2 * 3)
TAU_CEILING_DENOM = 200 * 36 * 3


class RainbowHypergraph(Record):
    """Explicitly materialized H(n, r)."""

    n: int
    r: int
    vertices: tuple[tuple[tuple[int, int], int], ...]
    edges: tuple[frozenset[tuple[tuple[int, int], int]], ...]


def build(n: int, r: int) -> RainbowHypergraph:
    """Materialize H(n, r); refuses sizes past the explicit-build budget."""
    if n < 3 or r < 3:
        raise InvalidParameterError("need n >= 3 and r >= 3")
    if n > BUILD_N_LIMIT or r > BUILD_R_LIMIT:
        raise ResourceLimitError(
            f"explicit build capped at n <= {BUILD_N_LIMIT}, r <= {BUILD_R_LIMIT}; "
            "use closed_form_stats for larger parameters")
    vertices = tuple((e, d) for e in edge_pairs(n) for d in range(1, r + 1))
    edges = []
    for a, b, c in complete(n).triangles():
        e1, e2, e3 = (a, b), (a, c), (b, c)
        for d1, d2, d3 in itertools.permutations(range(1, r + 1), 3):
            edges.append(frozenset({(e1, d1), (e2, d2), (e3, d3)}))
    return RainbowHypergraph(n, r, vertices, tuple(edges))


class DegreeStats(Record):
    v: int
    e: int
    d: Fraction
    delta2: int
    delta3: int


def degree_stats(hypergraph: RainbowHypergraph) -> DegreeStats:
    """Measured vertex count, edge count, average degree, and co-degrees."""
    v = len(hypergraph.vertices)
    e = len(hypergraph.edges)
    pair_counts: dict = {}
    triple_counts: dict = {}
    for he in hypergraph.edges:
        members = sorted(he)
        for pair in itertools.combinations(members, 2):
            pair_counts[pair] = pair_counts.get(pair, 0) + 1
        key = tuple(members)
        triple_counts[key] = triple_counts.get(key, 0) + 1
    delta2 = max(pair_counts.values(), default=0)
    delta3 = max(triple_counts.values(), default=0)
    return DegreeStats(v, e, Fraction(3 * e, v), delta2, delta3)


def closed_form_stats(n: int, r: int) -> DegreeStats:
    if n < 3 or r < 3:
        raise InvalidParameterError("need n >= 3 and r >= 3")
    v = r * comb(n, 2)
    e = r * (r - 1) * (r - 2) * comb(n, 3)
    return DegreeStats(v, e, Fraction((r - 1) * (r - 2) * (n - 2)), r - 2, 1)


def template_vertices(template: Template) -> frozenset[tuple[tuple[int, int], int]]:
    """Hypergraph vertex set {(e, d) : d in P(e)} induced by a template."""
    out = []
    for (u, v), mask in zip(edge_pairs(template.n), template.palettes):
        for c in range(template.r):
            if mask >> c & 1:
                out.append(((u, v), c + 1))
    return frozenset(out)


def is_independent(hypergraph: RainbowHypergraph, vertex_subset) -> bool:
    vs = frozenset(vertex_subset)
    return not any(he <= vs for he in hypergraph.edges)


# ---------------------------------------------------------------------------
# container parameters


class ContainerParams(Record):
    """The (epsilon, tau) choice for H(n, r), with epsilon held symbolically.

    epsilon = epsilon_factor * n**epsilon_exponent; tau = sqrt(432 r) / n^(1/3).
    """

    n: int
    r: int
    epsilon_exponent: Fraction
    epsilon_factor: Fraction
    tau: float

    @property
    def epsilon(self) -> float:
        return float(self.epsilon_factor) * exp(float(self.epsilon_exponent) * log(self.n))


def container_params(n: int, r: int) -> ContainerParams:
    if n < 3 or r < 3:
        raise InvalidParameterError("need n >= 3 and r >= 3")
    # in logs, since n and r may be too large for a float while tau is not
    try:
        tau = exp(log(432 * r) / 2 - log(n) / 3)
    except OverflowError:
        raise InvalidParameterError(
            "tau = sqrt(432 r) / n^(1/3) is too large for a float") from None
    return ContainerParams(n, r,
                           epsilon_exponent=Fraction(-1, 3),
                           epsilon_factor=Fraction(1, r * (r - 1) * (r - 2)),
                           tau=tau)


def codegree_function(n: int, r: int, tau: float) -> float:
    """Delta(H, tau) = 4*Delta2/(d*tau) + 2*Delta3/(d*tau^2) via closed forms."""
    if n < 3 or r < 3:
        raise InvalidParameterError("need n >= 3 and r >= 3")
    if not 0 < tau < 1:
        raise InvalidInputError("tau must lie strictly between 0 and 1")
    # exact until the last step, since d may be too large for a float
    d = (r - 1) * (r - 2) * (n - 2)
    t = Fraction(tau)
    return float(4 * (r - 2) / (d * t) + 2 / (d * t * t))


def _tau_ok(n: int, r: int) -> bool:
    # tau <= 1/21600 rearranges to n^2 >= (432 r)^3 * 21600^6
    return n * n >= (432 * r) ** 3 * TAU_CEILING_DENOM**6


def _delta_ok(n: int, r: int) -> bool:
    # Delta(H, tau) <= epsilon / 72 rearranges, after clearing d, tau and
    # raising to the sixth power, to (r-2)^6 (432 r)^3 n^4 <= (n-3)^6.
    if n < 3:
        return False
    return (r - 2) ** 6 * (432 * r) ** 3 * n**4 <= (n - 3) ** 6


class ParamAudit(Record):
    n: int
    r: int
    tau_ok: bool
    delta_ok: bool
    min_n_estimate: int


def audit_params(n: int, r: int) -> ParamAudit:
    """Decide both parameter inequalities in exact integers and report the
    smallest order at which they start holding for this r.

    Both predicates are monotone in n, so the estimate is the larger of the
    two crossover points.  It is reported as a fact about the arithmetic,
    not asserted against any external claim.
    """
    if n < 3 or r < 3:
        raise InvalidParameterError("need n >= 3 and r >= 3")
    tau_cross = isqrt((432 * r) ** 3 * TAU_CEILING_DENOM**6 - 1) + 1
    # (n-3)^6 < n^6, so no n up to sqrt((r-2)^6 (432 r)^3) passes the Delta
    # test, and the crossover lies a few steps above that root
    lo = isqrt((r - 2) ** 6 * (432 * r) ** 3)
    step = 1
    while not _delta_ok(lo + step, r):
        step *= 2
    hi = lo + step
    while lo < hi:
        mid = (lo + hi) // 2
        if _delta_ok(mid, r):
            hi = mid
        else:
            lo = mid + 1
    return ParamAudit(n, r, _tau_ok(n, r), _delta_ok(n, r), max(tau_cross, lo))


# ---------------------------------------------------------------------------
# cover certification


class PropertyReport(Record):
    name: str
    passed: bool
    checked: int
    witness: dict | None


class CoverCertificate(Record):
    """The three property reports, and how coverage was checked: ``mode`` is
    "exhaustive" or "sampled", and ``three_color_checked`` counts the
    checked colorings that use three colors or more."""

    n: int
    r: int
    family_size: int
    coverage: PropertyReport
    sparsity: PropertyReport
    size_bound: PropertyReport
    mode: str
    three_color_checked: int

    @property
    def passed(self) -> bool:
        return self.coverage.passed and self.sparsity.passed and self.size_bound.passed


def _covered(palettes: tuple[int, ...], assignment: tuple[int, ...]) -> bool:
    return all(mask >> (c - 1) & 1 for mask, c in zip(palettes, assignment))


def verify_cover(family, n: int, r: int, c: float, *,
                 sample_size: int = DEFAULT_SAMPLE_SIZE, seed: int = 0,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> CoverCertificate:
    """Check the three cover properties for a claimed template family.

    Coverage is exhaustive for n <= 4, a sweep of all r^C(n,2) colorings
    that node_budget bounds (one node each).  Above that it checks sample_size colorings,
    each drawn uniformly from the Gallai r-colorings of K_n with Gallai's
    decomposition, so three-color colorings turn up as often as they
    exist; its tables are capped by ``counting.COMPLETE_BITS``.  The
    certificate says which of the two it did and how many checked colorings
    used three colors or more.  Sparsity is the per-template integer test
    RT^3 * n <= C(n,3)^3, and the size bound compares log2 of the family
    size against c n^(-1/3) log2^2(n) C(n,2).  A failing property always
    carries a concrete witness.
    """
    if n < 3 or r < 2:
        raise InvalidParameterError("need n >= 3 and r >= 2")
    family = list(family)
    for idx, template in enumerate(family):
        if template.n != n or template.r != r:
            raise InvalidInputError(
                f"family member {idx} has order {template.n} and {template.r} colors; "
                f"expected ({n}, {r})")
    palette_sets = [t.palettes for t in family]

    if n <= 4:
        mode = "exhaustive"
        colorings = gallai_colorings(complete(n), r, node_budget=node_budget)
    else:
        mode = "sampled"
        colorings = sample_complete(n, r, sample_size, random.Random(seed))
    checked = three_color = 0
    witness = None
    for assignment in colorings:
        checked += 1
        three_color += len(set(assignment)) >= 3
        if not any(_covered(p, assignment) for p in palette_sets):
            witness = {"coloring": dict(zip(edge_pairs(n), assignment))}
            break
    coverage = PropertyReport("coverage", witness is None, checked, witness)

    rhs = comb(n, 3) ** 3
    witness = None
    for idx, template in enumerate(family):
        rt = rt_count(template)
        if rt**3 * n > rhs:
            witness = {"template_index": idx, "rt": rt, "lhs": rt**3 * n, "rhs": rhs}
            break
    sparsity = PropertyReport("sparsity", witness is None, len(family), witness)

    limit = c * n ** (-1.0 / 3.0) * log2(n) ** 2 * comb(n, 2)
    measured = log2(len(family)) if family else 0.0
    witness = None
    if measured > limit:
        witness = {"log2_family": measured, "limit": limit}
    size_bound = PropertyReport("size-bound", witness is None, len(family), witness)

    return CoverCertificate(n, r, len(family), coverage, sparsity, size_bound,
                            mode, three_color)
