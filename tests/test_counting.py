import itertools
import random
from fractions import Fraction
from math import comb, log2

import networkx as nx
import pytest

import gallai.counting
from conftest import brute_count_gallai, random_graph
from gallai.counting import (
    Coloring,
    asymptotic_bounds,
    book_gallai_count,
    count_gallai,
    count_gallai_naive,
    count_gallai_with_palettes,
    gallai_colorings,
    is_gallai,
    lower_bound_two_color,
    max_matching_size,
    red_once_count,
    s_deviation,
    scan_colorings,
)
from gallai.errors import InvalidInputError, InvalidParameterError, ResourceLimitError
from gallai.graphs import Graph, all_graphs, book, complete, complete_bipartite, cycle

OCTAHEDRON = Graph.from_edges(
    6, [(u, v) for u in range(6) for v in range(u + 1, 6)
        if {u, v} not in ({0, 1}, {2, 3}, {4, 5})])
DIAMOND = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
PAW = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
WHEEL4 = Graph.from_edges(
    5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4), (2, 4), (3, 4)])

# values produced by the full mixed-radix scan, kept as an independent anchor
FROZEN_COUNTS = [
    (complete(3), 3, 21),
    (complete(3), 4, 40),
    (complete(4), 3, 279),
    (complete(4), 4, 736),
    (complete(5), 3, 6129),
    (complete(5), 4, 20896),
    (complete(5), 5, 53425),
    (complete(6), 3, 210987),
    (complete_bipartite(2, 3), 3, 729),
    (DIAMOND, 3, 147),
    (PAW, 3, 63),
    (WHEEL4, 3, 2403),
    (WHEEL4, 4, 10048),
    (OCTAHEDRON, 3, 71637),
    (book(2), 3, 147),
    (book(2), 5, 845),
    (book(4), 3, 7203),
]


class TestColoring:
    def test_normalizes_and_validates(self):
        c = Coloring({(0, 1): 2}, 3)
        assert c.color(1, 0) == 2
        assert c.used_colors() == {2}
        assert Coloring({(1, 0): 7}, 9).colors == {(0, 1): 7}
        with pytest.raises(InvalidInputError):
            Coloring({(0, 0): 1}, 3)
        with pytest.raises(InvalidInputError):
            Coloring({(0, 1): 4}, 3)

    def test_from_sequence_aligns_with_edges(self):
        g = complete(3)
        c = Coloring.from_sequence(g, (1, 2, 2), 3)
        assert c.color(0, 1) == 1
        assert c.color(1, 2) == 2

    def test_is_gallai(self):
        g = complete(3)
        assert not is_gallai(g, Coloring({(0, 1): 1, (0, 2): 2, (1, 2): 3}, 3))
        assert is_gallai(g, Coloring({(0, 1): 1, (0, 2): 2, (1, 2): 2}, 3))


class TestFrozenCounts:
    @pytest.mark.parametrize("graph,r,expected", FROZEN_COUNTS)
    def test_pruned_counter_hits_frozen_value(self, graph, r, expected):
        assert count_gallai(graph, r) == expected

    def test_naive_counter_agrees_on_small_cases(self):
        for graph, r, expected in FROZEN_COUNTS:
            if r ** graph.edge_count <= 10**6:
                assert count_gallai_naive(graph, r) == expected

    def test_plain_loop_oracle_agrees(self):
        for graph, r, expected in FROZEN_COUNTS:
            if r ** graph.edge_count <= 30_000:
                assert brute_count_gallai(graph, r) == expected


class TestOracleEquivalence:
    def test_random_graphs(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 5))
            r = rng.randint(1, 4)
            assert count_gallai(g, r) == count_gallai_naive(g, r)

    def test_isolated_vertices_and_empty_graph(self):
        assert count_gallai(Graph(1, (0,)), 3) == 1
        assert count_gallai(Graph(4, (0, 0, 0, 0)), 5) == 1

    def test_isomorphism_invariance(self):
        rng = random.Random(37)
        for _ in range(10):
            g = random_graph(rng, 5)
            perm = list(range(5))
            rng.shuffle(perm)
            assert count_gallai(g, 3) == count_gallai(g.permuted(perm), 3)

    def test_monotone_in_color_count(self):
        rng = random.Random(41)
        for _ in range(10):
            g = random_graph(rng, 5)
            counts = [count_gallai(g, r) for r in range(1, 6)]
            assert counts == sorted(counts)


class TestGenerators:
    def test_gallai_colorings_matches_filter(self):
        g = complete(4)
        seen = set(gallai_colorings(g, 3))
        assert len(seen) == 279
        edges = g.edges()
        for combo in itertools.product((1, 2, 3), repeat=6):
            expected = is_gallai(g, Coloring(dict(zip(edges, combo)), 3))
            assert (combo in seen) == expected

    def test_scan_colorings_flags_match(self):
        g = complete(3)
        rows = 0
        good = 0
        for colors, gallai in scan_colorings(g, 3):
            rows += colors.shape[0]
            good += int(gallai.sum())
        assert rows == 27
        assert good == 21

    def test_budget_errors(self):
        with pytest.raises(ResourceLimitError):
            count_gallai_naive(complete(5), 4, leaf_budget=10)
        with pytest.raises(ResourceLimitError):
            list(gallai_colorings(complete(5), 4, leaf_budget=10))
        with pytest.raises(ResourceLimitError):
            count_gallai(complete(6), 3, node_budget=50)

    def test_node_budget_covers_every_color_count_of_one_call(self):
        # count_gallai(K4, 4) searches full palettes of 3 and then 4 colors
        g = complete(4)

        def fits(j, budget):
            try:
                count_gallai_with_palettes(g, [(1 << j) - 1] * 6, node_budget=budget)
            except ResourceLimitError:
                return False
            return True

        def least_budget(j):
            lo, hi = 0, 1
            while not fits(j, hi):
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if fits(j, mid) else (mid, hi)
            return hi

        need3, need4 = least_budget(3), least_budget(4)
        with pytest.raises(ResourceLimitError):
            count_gallai(g, 4, node_budget=max(need3, need4))
        with pytest.raises(ResourceLimitError):
            count_gallai(g, 4, node_budget=need3 + need4 - 1)
        assert count_gallai(g, 4, node_budget=need3 + need4) == count_gallai(g, 4)


class TestSurjectiveDecomposition:
    def test_ladder_matches_binomial_extrapolation(self):
        # counts with exactly k colors, recovered from the scan counts alone
        by_r = {r: count_gallai_naive(complete(5), r) for r in range(1, 6)}
        exact = {}
        for k in range(1, 6):
            exact[k] = by_r[k] - sum(comb(k, j) * exact[j] for j in range(1, k))
        assert exact[5] == 0
        for r in (6, 8, 10):
            extrapolated = sum(comb(r, k) * exact[k] for k in range(1, 6))
            assert count_gallai(complete(5), r) == extrapolated
        assert count_gallai(complete(5), 10) == 942400

    def test_merging_two_colors_preserves_the_property(self):
        # surjective counts vanish from the first zero onward because any
        # coloring with k colors yields one with k-1 by merging two classes
        g = complete(4)
        for combo in gallai_colorings(g, 3):
            merged = tuple(1 if c == 2 else c for c in combo)
            assert is_gallai(g, Coloring(dict(zip(g.edges(), merged)), 3))


class TestClosedForms:
    def test_two_color_formula_forms_agree(self):
        for n in range(2, 8):
            for r in range(2, 7):
                m = comb(n, 2)
                assert lower_bound_two_color(n, r) == comb(r, 2) * (2**m - 2) + r

    def test_two_color_count_by_filtered_enumeration(self):
        for n, r in [(3, 3), (4, 3), (4, 4)]:
            m = comb(n, 2)
            direct = sum(
                1 for combo in itertools.product(range(1, r + 1), repeat=m)
                if len(set(combo)) <= 2)
            assert direct == lower_bound_two_color(n, r)

    def test_red_once_formula(self):
        assert red_once_count(4) == 36
        assert red_once_count(5) == 620

    def test_book_formula(self):
        for q in range(0, 5):
            for r in range(1, 6):
                assert book_gallai_count(q, r) == r * (3 * r - 2) ** q
                assert count_gallai(book(q) if q else complete(2), r) \
                    == book_gallai_count(q, r)

    def test_asymptotic_bounds_values(self):
        b = asymptotic_bounds(6, 3)
        assert b.trivial_lower == Fraction(98816)
        assert b.trivial_lower_log2 == pytest.approx(log2(98816), rel=1e-12)
        assert b.main_upper_log2 == pytest.approx(16.94706834833339, rel=1e-12)
        assert lower_bound_two_color(6, 3) <= count_gallai(complete(6), 3)


class TestPaletteCounting:
    def test_pair_palettes_give_power_of_two(self):
        g = complete(5)
        masks = [0b011] * g.edge_count
        assert count_gallai_with_palettes(g, masks) == 2 ** g.edge_count

    def test_empty_palette_gives_zero(self):
        g = complete(3)
        assert count_gallai_with_palettes(g, [0b111, 0b111, 0]) == 0

    def test_singleton_palettes_test_membership(self):
        g = complete(3)
        assert count_gallai_with_palettes(g, [0b001, 0b010, 0b100]) == 0
        assert count_gallai_with_palettes(g, [0b001, 0b010, 0b010]) == 1

    def test_palette_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            count_gallai_with_palettes(complete(3), [0b1, 0b1])


class TestMatchingAndDeviation:
    def test_matching_against_networkx(self):
        rng = random.Random(43)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 9))
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            assert max_matching_size(g.n, g.edges()) == len(nx.max_weight_matching(h))

    def test_matching_budget(self):
        with pytest.raises(ResourceLimitError):
            max_matching_size(21, [])

    def test_matching_memo_does_not_outlive_the_call(self):
        rng = random.Random(47)
        for _ in range(20):
            g = random_graph(rng, 10)
            max_matching_size(g.n, g.edges())
        held = [name for name, obj in vars(gallai.counting).items()
                if hasattr(obj, "cache_info") and obj.cache_info().currsize]
        assert held == []

    def test_s_deviation(self):
        g = complete(5)
        colors = {e: 1 for e in g.edges()}
        colors[(0, 1)] = 3
        colors[(2, 3)] = 3
        dev = s_deviation(g, Coloring(colors, 3), 1, 2)
        assert dev.pair == (1, 2)
        assert dev.s_edges == frozenset({(0, 1), (2, 3)})
        assert dev.matching_size == 2
        dev2 = s_deviation(g, Coloring(colors, 3), 2, 1)
        assert dev2.pair == (1, 2)
        with pytest.raises(InvalidParameterError):
            s_deviation(g, Coloring(colors, 3), 1, 1)

    def test_s_deviation_requires_total_coloring(self):
        g = complete(4)
        with pytest.raises(InvalidInputError):
            s_deviation(g, Coloring({(0, 1): 1}, 3), 1, 2)
