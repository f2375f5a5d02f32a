import itertools
import random
from math import comb, log2

import pytest

from conftest import constrained_count, random_template
from gallai.counting import Coloring, count_gallai
from gallai.errors import InvalidInputError, InvalidParameterError, ParseError
from gallai.graphs import complete, edge_index
from gallai.templates import (
    MAX_COLORS,
    TALLY_MODES,
    Template,
    classify_triangles,
    coloring_in_template,
    count_ga,
    from_coloring,
    full_template,
    is_gallai_template,
    is_subtemplate,
    pair_template,
    ProductLogBound,
    product_log_bound,
    r_edges,
    rt_count,
    rt_through_edge,
    template_from_text,
    template_to_text,
    weight,
)
from gallai.templates import _classify_complete, _classify_dense4, _classify_dense_generic


def template_with_sizes(n, r, size_by_edge):
    """Palette of the requested size on each edge, colors taken low-first."""
    masks = []
    for k in size_by_edge:
        masks.append((1 << k) - 1)
    return Template(n, r, tuple(masks))


class TestConstruction:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            Template(3, 3, (0b111, 0b111))
        with pytest.raises(InvalidParameterError):
            Template(3, 3, (0b1111, 0, 0))
        with pytest.raises(InvalidParameterError):
            Template(3, MAX_COLORS + 1, tuple([0] * 3))

    def test_palette_access(self):
        t = pair_template(4, 5, 2, 4)
        assert t.palette(3, 1) == 0b01010
        assert t.palette_colors(0, 1) == frozenset({2, 4})
        assert t.sizes() == [2] * 6

    def test_from_coloring(self):
        c = Coloring({(0, 1): 3}, 3)
        t = from_coloring(c, 3)
        assert t.palette(0, 1) == 0b100
        assert t.palette(0, 2) == 0
        with pytest.raises(InvalidInputError):
            from_coloring(Coloring({(0, 5): 1}, 3), 3)


class TestSubtemplates:
    def test_partial_order(self):
        full = full_template(4, 3)
        pair = pair_template(4, 3, 1, 2)
        assert is_subtemplate(pair, full)
        assert not is_subtemplate(full, pair)
        assert is_subtemplate(pair, pair)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(InvalidInputError):
            is_subtemplate(full_template(3, 3), full_template(4, 3))

    def test_coloring_membership(self):
        pair = pair_template(3, 3, 1, 2)
        inside = Coloring({(0, 1): 1, (0, 2): 2, (1, 2): 2}, 3)
        outside = Coloring({(0, 1): 1, (0, 2): 2, (1, 2): 3}, 3)
        assert coloring_in_template(pair, inside)
        assert not coloring_in_template(pair, outside)


class TestRainbowCounting:
    def test_full_template_closed_form(self):
        for n in range(3, 8):
            for r in range(3, 6):
                assert rt_count(full_template(n, r)) == r * (r - 1) * (r - 2) * comb(n, 3)

    def test_two_color_templates_have_none(self):
        assert rt_count(pair_template(6, 4, 2, 3)) == 0

    def test_singleton_rainbow_triangle(self):
        c = Coloring({(0, 1): 1, (0, 2): 2, (1, 2): 3}, 3)
        assert rt_count(from_coloring(c, 3)) == 1

    def test_matches_direct_triple_enumeration(self):
        rng = random.Random(47)
        for _ in range(30):
            n = rng.randint(3, 6)
            r = rng.randint(3, 5)
            t = random_template(rng, n, r)
            direct = 0
            for a, b, c in itertools.combinations(range(n), 3):
                for x in t.palette_colors(a, b):
                    for y in t.palette_colors(a, c):
                        for z in t.palette_colors(b, c):
                            if x != y and y != z and x != z:
                                direct += 1
            assert rt_count(t) == direct

    def test_through_edge_sums_to_triple_count(self):
        rng = random.Random(53)
        for _ in range(15):
            t = random_template(rng, 5, 4)
            through = sum(rt_through_edge(t, u, v)
                          for u, v in itertools.combinations(range(5), 2))
            assert through == 3 * rt_count(t)

    def test_gallai_template_predicate(self):
        assert not is_gallai_template(full_template(4, 3), complete(4))
        assert is_gallai_template(pair_template(4, 3, 1, 2), complete(4))
        # empty palette on a graph edge disqualifies regardless of sparsity
        masks = list(pair_template(4, 3, 1, 2).palettes)
        masks[0] = 0
        assert not is_gallai_template(Template(4, 3, tuple(masks)), complete(4))


class TestCountGa:
    def test_pair_template_powers_of_two(self):
        g = complete(5)
        assert count_ga(pair_template(5, 4, 1, 3), g) == 2 ** g.edge_count

    def test_full_template_equals_unrestricted_count(self):
        rng = random.Random(59)
        for _ in range(10):
            n = rng.randint(2, 5)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
            from gallai.graphs import Graph
            g = Graph.from_edges(n, edges)
            r = rng.randint(1, 4)
            assert count_ga(full_template(n, r), g) == count_gallai(g, r)

    def test_singleton_template_is_membership(self):
        g = complete(3)
        gallai = Coloring({(0, 1): 1, (0, 2): 1, (1, 2): 3}, 3)
        rainbow = Coloring({(0, 1): 1, (0, 2): 2, (1, 2): 3}, 3)
        assert count_ga(from_coloring(gallai, 3), g) == 1
        assert count_ga(from_coloring(rainbow, 3), g) == 0

    def test_matches_product_enumeration(self):
        rng = random.Random(61)
        checked = 0
        while checked < 25:
            t = random_template(rng, 4, 3)
            expected = constrained_count(t, complete(4))
            if expected is None:
                continue
            assert count_ga(t, complete(4)) == expected
            checked += 1


class TestClassification:
    def test_full_template_tallies(self):
        t3 = full_template(4, 3)
        assert classify_triangles(t3, "complete").as_dict() == {
            "T1": 0, "T2": 4, "T3": 0, "T4": 0, "T5": 0}
        assert classify_triangles(t3, "dense-generic").as_dict() == {
            "T1": 0, "T2": 0, "T3": 0, "T4": 4, "T5": 0}
        t4 = full_template(4, 4)
        assert classify_triangles(t4, "dense4").as_dict() == {
            "T1": 0, "T2": 0, "T3": 0, "T4": 4, "T5": 0}

    def test_identical_pair_palettes_all_t1(self):
        t = pair_template(5, 3, 1, 3)
        tally = classify_triangles(t, "complete")
        assert tally.as_dict()["T1"] == comb(5, 3)

    def test_dense_generic_classes(self):
        # sizes (0, 3, 3) on a triangle lands in T2, (1, 1, 3) in T3
        t2 = template_with_sizes(3, 3, [0, 3, 3])
        assert classify_triangles(t2, "dense-generic").as_dict()["T2"] == 1
        t3 = template_with_sizes(3, 3, [1, 1, 3])
        assert classify_triangles(t3, "dense-generic").as_dict()["T3"] == 1
        # total size 6 without a named profile falls to T4
        t4 = template_with_sizes(3, 3, [1, 2, 3])
        assert classify_triangles(t4, "dense-generic").as_dict()["T4"] == 1
        # small total without a wide palette falls to T5
        t5 = template_with_sizes(3, 3, [1, 2, 2])
        assert classify_triangles(t5, "dense-generic").as_dict()["T5"] == 1

    def test_dense4_classes(self):
        t2 = template_with_sizes(3, 4, [0, 2, 2])
        assert classify_triangles(t2, "dense4").as_dict()["T2"] == 1
        t3 = template_with_sizes(3, 4, [1, 1, 4])
        assert classify_triangles(t3, "dense4").as_dict()["T3"] == 1

    def test_dense4_requires_four_colors(self):
        with pytest.raises(InvalidInputError):
            classify_triangles(full_template(4, 3), "dense4")

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidParameterError):
            classify_triangles(full_template(4, 3), "bogus")

    def test_tallies_always_sum_to_triangle_count(self):
        rng = random.Random(67)
        for _ in range(100):
            n = rng.randint(3, 6)
            r = rng.choice((3, 4, 5))
            t = random_template(rng, n, r)
            for mode in TALLY_MODES:
                if mode == "dense4" and r != 4:
                    continue
                assert classify_triangles(t, mode).total() == comb(n, 3)

    def test_tallies_match_the_per_triangle_loop(self):
        classify = {"complete": _classify_complete, "dense-generic": _classify_dense_generic,
                    "dense4": _classify_dense4}
        rng = random.Random(73)
        for trial in range(60):
            n = rng.randint(3, 12)
            r = 4 if trial % 2 else rng.choice((3, 5))
            t = random_template(rng, n, r)
            if trial % 3 == 0:
                # few distinct palettes, so many triangles share a triple
                t = Template(n, r, tuple(rng.choice((1, 3, (1 << r) - 1)) for _ in t.palettes))
            for mode in TALLY_MODES:
                if mode == "dense4" and r != 4:
                    continue
                tally = dict.fromkeys(("T1", "T2", "T3", "T4", "T5"), 0)
                for a, b, c in itertools.combinations(range(n), 3):
                    masks = (t.palette(a, b), t.palette(a, c), t.palette(b, c))
                    tally[classify[mode](tuple(m.bit_count() for m in masks), masks)] += 1
                assert classify_triangles(t, mode).as_dict() == tally

    def test_complete_mode_never_uses_t5(self):
        rng = random.Random(71)
        for _ in range(50):
            t = random_template(rng, rng.randint(3, 6), rng.choice((3, 4, 5)))
            assert classify_triangles(t, "complete").as_dict()["T5"] == 0


class TestEntropyBound:
    def test_weight_floors_at_one(self):
        t = template_with_sizes(3, 3, [0, 1, 3])
        assert weight(t, 0, 1) == 1
        assert weight(t, 0, 2) == 1
        assert weight(t, 1, 2) == 3

    def test_normalized_triangle_sum_reproduces_edge_sum(self):
        rng = random.Random(73)
        for _ in range(25):
            n = rng.randint(3, 6)
            t = random_template(rng, n, 4)
            b = product_log_bound(t)
            assert b.triangle_sum == pytest.approx(b.edge_sum, abs=1e-9)

    def test_under_three_vertices_both_sums_are_the_edge_sum(self):
        for n in (1, 2):
            b = product_log_bound(template_with_sizes(n, 4, [4] * (n - 1)))
            assert b == ProductLogBound(2.0 * (n - 1), 2.0 * (n - 1))
            assert isinstance(b.edge_sum, float) and isinstance(b.triangle_sum, float)

    def test_bounds_the_restricted_count(self):
        rng = random.Random(79)
        checked = 0
        while checked < 40:
            t = random_template(rng, 4, 3)
            count = constrained_count(t, complete(4))
            if count is None:
                continue
            if count:
                assert log2(count) <= product_log_bound(t).edge_sum + 1e-9
            checked += 1


class TestREdges:
    def test_pair_template_has_no_wide_palettes(self):
        rep = r_edges(pair_template(5, 3, 1, 2))
        assert rep.all == frozenset()
        assert rep.typical == frozenset()

    def test_full_template_edges_all_wide_none_typical(self):
        rep = r_edges(full_template(5, 3))
        assert len(rep.all) == 10
        assert rep.typical == frozenset()

    def test_isolated_wide_palette_is_typical(self):
        masks = [0b001] * comb(5, 2)
        masks[edge_index(5, 0, 1)] = 0b111
        rep = r_edges(Template(5, 3, tuple(masks)))
        assert rep.all == frozenset({(0, 1)})
        assert rep.typical == frozenset({(0, 1)})


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(83)
        for _ in range(20):
            t = random_template(rng, rng.randint(2, 6), rng.randint(1, 6))
            assert template_from_text(template_to_text(t)) == t

    def test_header_and_bit_convention(self):
        t = template_from_text("3 3\n0 1 110\n0 2 001\n1 2 010\n")
        assert t.palette_colors(0, 1) == frozenset({1, 2})
        assert t.palette_colors(0, 2) == frozenset({3})
        assert t.palette_colors(1, 2) == frozenset({2})

    def test_comments_and_blank_lines(self):
        text = "# header\n3 2\n\n0 1 10\n0 2 01\n1 2 11\n"
        t = template_from_text(text)
        assert t.palette(0, 1) == 0b01

    @pytest.mark.parametrize("bad", [
        "",
        "3\n",
        "3 3\n0 1 111\n",                          # missing edges
        "3 3\n0 1 111\n0 2 111\n1 2 111\n0 1 111\n",  # duplicate
        "3 3\n0 1 11\n0 2 111\n1 2 111\n",        # wrong mask width
        "3 3\n0 5 111\n0 2 111\n1 2 111\n",       # edge out of range
        "3 3\n0 1 1x1\n0 2 111\n1 2 111\n",       # bad character
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            template_from_text(bad)

    def test_line_numbers_count_comments_and_blank_lines(self):
        text = "# K3 palettes\n3 3\n\n0 1 110\n0 2 001\n1 2 0x0\n"
        with pytest.raises(ParseError, match=r"\(line 6\)") as exc:
            template_from_text(text)
        assert exc.value.line == 6
        with pytest.raises(ParseError, match=r"\(line 5\)"):
            template_from_text("3 3\n# edges\n\n0 1 110\n0 2 001\n")
