import itertools
import random
from fractions import Fraction
from math import comb, exp

import pytest

from conftest import brute_majority_report, random_graph
from gallai.counting import Coloring
from gallai.errors import InvalidInputError, InvalidParameterError, ResourceLimitError
from gallai.graphs import Graph, book, complete, complete_bipartite, cycle, edge_index
from gallai.stability import (
    DICHOTOMY_LIMIT,
    dichotomy_search,
    greedy_book_family,
    majority_color_check,
    peel,
    remove_low_degree,
    supersaturation_check,
    two_palette_majority,
)
from gallai.templates import Template, from_coloring, pair_template


def star(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def uniform_template(n, r, mask):
    return Template(n, r, tuple([mask] * comb(n, 2)))


class TestMajorityColor:
    def test_all_one_color(self):
        rep = majority_color_check(
            complete(4), Coloring({e: 1 for e in complete(4).edges()}, 2), Fraction(2, 5))
        assert rep.mono_triangles == 4
        assert rep.hypothesis_ok
        assert rep.color == 1
        assert rep.deficit == 0
        assert rep.conclusion_ok
        assert not rep.eps_feasible  # the window needs larger orders

    def test_near_monochromatic(self):
        colors = {e: 1 for e in complete(4).edges()}
        colors[(1, 3)] = 2
        colors[(2, 3)] = 3
        rep = majority_color_check(complete(4), Coloring(colors, 3), Fraction(2, 5))
        assert rep.mono_triangles == 1
        assert not rep.hypothesis_ok
        assert (rep.color, rep.deficit) == (1, 2)
        assert rep.conclusion_ok

    def test_feasibility_window(self):
        rep = majority_color_check(
            complete(9), Coloring({e: 1 for e in complete(9).edges()}, 2), Fraction(2, 5))
        assert rep.eps_feasible
        rep2 = majority_color_check(
            complete(9), Coloring({e: 1 for e in complete(9).edges()}, 2), Fraction(1, 2))
        assert not rep2.eps_feasible

    def test_majority_tie_prefers_smaller_color(self):
        colors = dict(zip(complete(4).edges(), (1, 1, 1, 2, 2, 2)))
        rep = majority_color_check(complete(4), Coloring(colors, 2), Fraction(1, 4))
        assert rep.color == 1

    def test_requires_total_coloring(self):
        with pytest.raises(InvalidInputError):
            majority_color_check(complete(4), Coloring({(0, 1): 1}, 2), Fraction(1, 4))

    def test_matches_the_triangle_loop_on_seeded_colorings(self):
        rng = random.Random(6)
        for _ in range(400):
            n = rng.randrange(1, 10)
            g = random_graph(rng, n) if rng.random() < 0.5 else complete(n)
            r = rng.randrange(1, 5)
            # mostly one color, so that the hypothesis holds now and then
            coloring = Coloring({e: 1 if rng.random() < 0.7 else rng.randrange(1, r + 1)
                                 for e in g.edges()}, r)
            ref = brute_majority_report(g, coloring, Fraction(1, 3))
            # every threshold exactly: hypothesis, conclusion, feasibility window
            grid = [Fraction(1, 3), Fraction(1, 2), Fraction(-1, 7), Fraction(5, 3), 0.4,
                    Fraction(4, n) - Fraction(4, n * n),
                    1 - Fraction(ref.mono_triangles, max(comb(n, 3), 1)),
                    Fraction(ref.deficit, 4 * r * r * max(comb(n, 2), 1))]
            for eps in grid:
                assert majority_color_check(g, coloring, eps) == \
                    brute_majority_report(g, coloring, eps)

    def test_implication_sweep_on_one_graph(self):
        g = complete(4)
        edges = g.edges()
        for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)):
            for combo in itertools.product((1, 2), repeat=6):
                rep = majority_color_check(g, Coloring(dict(zip(edges, combo)), 2), eps)
                assert rep.conclusion_ok or not rep.hypothesis_ok


class TestPaletteMajority:
    def test_counts_exact_two_color_palettes(self):
        rep = two_palette_majority(pair_template(4, 3, 2, 3))
        assert (rep.pair, rep.count) == ((2, 3), 6)

    def test_singleton_palettes_never_match(self):
        c = Coloring({(0, 1): 1, (0, 2): 1, (1, 2): 2}, 3)
        rep = two_palette_majority(from_coloring(c, 3))
        assert (rep.pair, rep.count) == ((1, 2), 0)

    def test_needs_two_colors(self):
        with pytest.raises(InvalidParameterError):
            two_palette_majority(uniform_template(3, 1, 0b1))


class TestDichotomy:
    def test_cycle_has_neither(self):
        res = dichotomy_search(cycle(5), alpha=1e-6)
        assert res.outcome == "neither"
        assert res.book is None and res.bipartite is None
        assert res.details["booksize"] == 0
        assert res.details["order_threshold"] == pytest.approx(4.95)
        assert res.details["degree_threshold"] == pytest.approx(2.3)

    def test_balanced_bipartite_graph_found_whole(self):
        res = dichotomy_search(complete_bipartite(5, 5), alpha=1e-6)
        assert res.outcome == "bipartite"
        vertices, min_degree = res.bipartite
        assert vertices == tuple(range(10))
        assert min_degree == 5

    def test_complete_graph_has_a_big_book(self):
        res = dichotomy_search(complete(10), alpha=1e-6)
        assert res.outcome == "book"
        assert res.book == ((0, 1), 8)

    def test_huge_alpha_accepts_any_book_edge(self):
        res = dichotomy_search(cycle(5), alpha=1 / 216)
        assert res.outcome == "book"
        assert res.book == ((0, 1), 0)

    def test_parameter_domain(self):
        with pytest.raises(InvalidParameterError):
            dichotomy_search(cycle(5), alpha=0.0)
        with pytest.raises(ResourceLimitError):
            dichotomy_search(complete(DICHOTOMY_LIMIT + 1), alpha=1e-6)

    def test_alpha_must_be_finite_and_positive(self):
        # NaN fails every comparison, so "alpha <= 0" alone let it through
        for alpha in (0.0, -1e-6, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidParameterError):
                dichotomy_search(cycle(5), alpha=alpha)

    def test_reported_bipartite_subgraph_is_genuine(self):
        res = dichotomy_search(complete_bipartite(4, 5), alpha=1e-6)
        if res.outcome == "bipartite":
            vertices, min_degree = res.bipartite
            sub = complete_bipartite(4, 5).induced(vertices)
            assert min(sub.degree(v) for v in range(sub.n)) == min_degree
            assert not sub.triangles() or True  # bipartite check below
            import networkx as nx
            h = nx.Graph()
            h.add_nodes_from(range(sub.n))
            h.add_edges_from(sub.edges())
            assert nx.is_bipartite(h)


class TestGreedyBooks:
    def test_complete_graph_family(self):
        fam = greedy_book_family(complete(5), threshold=3)
        assert [(b.base, tuple(sorted(b.pages))) for b in fam.books] == [
            ((0, 1), (2, 3, 4)), ((2, 3), (0, 1, 4))]
        assert fam.removed_bases == frozenset({(0, 1), (2, 3)})
        assert fam.residual.edge_count == 8

    def test_triangle_free_graph_has_no_books(self):
        fam = greedy_book_family(complete_bipartite(3, 3), threshold=1)
        assert fam.books == ()
        assert fam.residual.edge_count == 9

    def test_single_book_graph(self):
        fam = greedy_book_family(book(5), threshold=5)
        assert len(fam.books) == 1
        assert fam.books[0].base == (0, 1)
        assert tuple(sorted(fam.books[0].pages)) == (2, 3, 4, 5, 6)
        assert fam.residual.edge_count == 10

    def test_only_base_edges_leave_the_graph(self):
        g = complete(6)
        fam = greedy_book_family(g, threshold=2)
        assert fam.residual.edge_count == g.edge_count - len(fam.books)
        for bk in fam.books:
            u, v = bk.base
            assert not fam.residual.has_edge(u, v)

    def test_every_book_met_the_threshold_when_removed(self):
        rng = random.Random(97)
        for _ in range(15):
            g = random_graph(rng, 7)
            current = g
            fam = greedy_book_family(g, threshold=2)
            for bk in fam.books:
                u, v = bk.base
                mask = current.common_neighbors(u, v)
                assert mask.bit_count() >= 2
                assert set(bk.pages) == {w for w in range(7) if mask >> w & 1}
                current = current.without_edge(u, v)

    def test_threshold_domain(self):
        with pytest.raises(InvalidParameterError):
            greedy_book_family(complete(4), threshold=0)


class TestPeel:
    def test_star_peels_down_to_three_vertices(self):
        g = star(10)
        masks = [0] * comb(10, 2)
        for u, v in g.edges():
            masks[edge_index(10, u, v)] = 0b011
        trace = peel(g, Template(10, 3, tuple(masks)), xi=Fraction(1, 10))
        assert len(trace.removed) == 7
        assert trace.residual_vertices == (0, 8, 9)
        first = trace.removed[0]
        assert (first.kind, first.vertices) == ("single", (1,))
        assert first.witness == {"degree": 1, "threshold": 4.41}
        assert trace.residual_template_stats["order"] == 3

    def test_two_color_template_on_complete_graph_is_stable(self):
        for n in (5, 6, 7):
            trace = peel(complete(n), pair_template(n, 3, 1, 2), xi=Fraction(1, 10))
            assert trace.removed == ()
            assert trace.residual_vertices == tuple(range(n))

    def test_pair_trigger_removes_a_typical_wide_edge(self):
        masks = [0b001] * comb(6, 2)
        masks[edge_index(6, 0, 1)] = 0b111
        trace = peel(complete(6), Template(6, 3, tuple(masks)), xi=Fraction(1, 10))
        assert len(trace.removed) == 1
        step = trace.removed[0]
        assert (step.kind, step.vertices, step.order_before) == ("pair", (0, 1), 6)
        assert step.witness == {"common_neighbors": 4, "threshold": 0.08}
        assert trace.residual_vertices == (2, 3, 4, 5)

    def test_trace_replays_consistently(self):
        g = star(10)
        masks = [0] * comb(10, 2)
        for u, v in g.edges():
            masks[edge_index(10, u, v)] = 0b011
        trace = peel(g, Template(10, 3, tuple(masks)), xi=Fraction(1, 10))
        remaining = set(range(10))
        xi = Fraction(1, 10)
        for step in trace.removed:
            assert step.order_before == len(remaining)
            assert set(step.vertices) <= remaining
            if step.kind == "single":
                (v,) = step.vertices
                degree = sum(1 for w in remaining if w != v and g.has_edge(v, w))
                assert degree == step.witness["degree"]
                assert Fraction(degree) <= (Fraction(1, 2) - xi * xi) * (len(remaining) - 1)
            remaining -= set(step.vertices)
        assert remaining == set(trace.residual_vertices)

    def test_parameter_domain(self):
        with pytest.raises(InvalidParameterError):
            peel(complete(4), pair_template(4, 3, 1, 2), xi=Fraction(0))
        with pytest.raises(InvalidParameterError):
            peel(complete(4), pair_template(4, 3, 1, 2), xi=Fraction(1))
        with pytest.raises(InvalidInputError):
            peel(complete(4), pair_template(5, 3, 1, 2), xi=Fraction(1, 10))


class TestLowDegreeRemoval:
    def test_star_keeps_one_edge(self):
        res = remove_low_degree(star(10), set(range(10)))
        assert res.removed_order == (1, 2, 3, 4, 5, 6, 7, 8)
        assert res.residual_vertices == (0, 9)
        assert res.residual.edge_count == 1

    def test_candidates_limit_the_removals(self):
        res = remove_low_degree(star(10), {0})
        assert res.removed_order == ()
        assert res.residual_vertices == tuple(range(10))

    def test_bad_candidate_rejected(self):
        with pytest.raises(InvalidInputError):
            remove_low_degree(star(4), {7})

    def test_edge_loss_identity_on_random_instances(self):
        rng = random.Random(101)
        for _ in range(100):
            n = rng.randint(1, 8)
            g = random_graph(rng, n)
            candidates = {v for v in range(n) if rng.random() < 0.7}
            res = remove_low_degree(g, candidates)
            e_res = res.residual.edge_count if res.residual else 0
            n_res = len(res.residual_vertices)
            assert 2 * (g.edge_count - e_res) <= comb(n, 2) - comb(n_res, 2)


class TestSupersaturation:
    def test_complete_graph_fixture(self):
        rep = supersaturation_check(complete(4), k=2, t=1)
        assert rep.t_far
        assert rep.cliques == 4
        assert rep.bound == pytest.approx(6 / exp(4), rel=1e-12)
        assert rep.ok

    def test_bipartite_graph_is_vacuous(self):
        rep = supersaturation_check(complete_bipartite(3, 3), k=2, t=1)
        assert not rep.t_far
        assert rep.ok
        assert rep.cliques == 0

    def test_parameter_domain(self):
        with pytest.raises(InvalidParameterError):
            supersaturation_check(complete(4), k=0, t=1)
        with pytest.raises(InvalidParameterError):
            supersaturation_check(complete(4), k=2, t=0)

    def test_bound_past_the_float_range_is_refused(self):
        with pytest.raises(InvalidParameterError, match="past the float range"):
            supersaturation_check(complete(4), k=2, t=10**400)

    def test_bound_grows_with_distance(self):
        bounds = [supersaturation_check(complete(5), k=2, t=t).bound for t in (1, 2, 3)]
        assert bounds == sorted(bounds)
