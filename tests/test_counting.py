import itertools
import random
import time
from fractions import Fraction
from math import comb, log2, prod

import networkx as nx
import numpy as np
import pytest

import gallai.counting
import gallai.kn
from conftest import assignment_is_gallai, brute_count_gallai, brute_triangles, random_graph
from gallai.counting import (
    Coloring,
    book_gallai_count,
    count_gallai,
    count_gallai_naive,
    count_gallai_with_palettes,
    gallai_colorings,
    is_gallai,
    max_matching_size,
    s_deviation,
    scan_colorings,
)
from gallai.errors import InvalidInputError, InvalidParameterError, ResourceLimitError
from gallai.graphs import (Graph, all_graphs, book, complete, complete_bipartite, cycle,
                           graph_from_name)
from gallai.kn import (
    COMPLETE_BITS,
    EXACT_BOUNDS_LIMIT,
    asymptotic_bounds,
    count_complete,
    lower_bound_two_color,
    red_once_count,
)

OCTAHEDRON = Graph.from_edges(
    6, [(u, v) for u in range(6) for v in range(u + 1, 6)
        if {u, v} not in ({0, 1}, {2, 3}, {4, 5})])
DIAMOND = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
PAW = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
WHEEL4 = Graph.from_edges(
    5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4), (2, 4), (3, 4)])


def disjoint_union(g, h):
    return Graph.from_edges(g.n + h.n, list(g.edges())
                            + [(u + g.n, v + g.n) for u, v in h.edges()])


# K4 on 0..3 and a diamond on 4..7: two triangle-connected components
K4_AND_DIAMOND = disjoint_union(complete(4), DIAMOND)

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


# K7 counts of the K_n recurrence from Gallai's decomposition, which the
# search without star tables reproduces too
COMPLETE_SEVEN = [(3, 11_813_949), (4, 48_252_160), (5, 160_913_825)]
# K8 counts of the recurrence; the search reproduces r = 3 in 2.1 s, which a
# test below checks, and r = 4 in 71 s, too slow for these tests (2-vCPU
# Xeon VM, Python 3.11.7)
COMPLETE_EIGHT = [(3, 1_212_514_191), (4, 4_274_432_896), (5, 13_893_272_725)]


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

    @pytest.mark.parametrize("keys", [
        [(-1, 0), (0, 1), (0, 2)],  # right length, but adj[-1] is a valid index
        [(0, 1), (0, 2), (1, 3)],   # right length, endpoint past n
        [(0, 1), (0, 2)],           # an edge missing
        [(0, 1), (0, 2), (1, 2), (2, 3)],
    ])
    def test_domain_must_be_the_edge_set(self, keys):
        g = complete(3)
        coloring = Coloring(dict.fromkeys(keys, 1), 3)
        with pytest.raises(InvalidInputError, match="coloring domain mismatch"):
            is_gallai(g, coloring)
        with pytest.raises(InvalidInputError, match="coloring domain mismatch"):
            s_deviation(g, coloring, 1, 2)


class TestFrozenCounts:
    @pytest.mark.parametrize("graph,r,expected", FROZEN_COUNTS)
    def test_pruned_counter_hits_frozen_value(self, graph, r, expected):
        assert count_gallai(graph, r) == expected

    @pytest.mark.parametrize("r,expected", COMPLETE_SEVEN)
    def test_complete_seven_hits_recurrence_value(self, r, expected):
        assert count_gallai(complete(7), r) == expected

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

    def test_every_small_class_agrees_with_full_palettes_and_naive(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                m = g.edge_count
                for r in range(3, 7):
                    count = count_gallai(g, r)
                    assert count == count_gallai_with_palettes(g, [(1 << r) - 1] * m)
                    if r**m <= 10**6:
                        assert count == count_gallai_naive(g, r)

    def test_star_tables_agree_with_branching_and_naive(self, monkeypatch):
        plans = []

        def recording_plans(graph, masks):
            found = search_plans(graph, masks)
            plans[:] = found[0]
            return found

        search_plans = gallai.counting._search_plans
        monkeypatch.setattr(gallai.counting, "_search_plans", recording_plans)
        rng = random.Random(71)
        seen = {"components": 0, "new colors read": 0, "chain colors read": 0, "naive": 0}
        for trial in range(180):
            if trial % 3:
                g = random_graph(rng, rng.randint(3, 6))
            else:
                g = disjoint_union(random_graph(rng, rng.randint(4, 5)),
                                   random_graph(rng, rng.randint(4, 5)))
            r = rng.choice((3, 4, 5, 7, 10**6))
            count = count_gallai(g, r)
            seen["components"] += len(plans) >= 2
            # rows M_{k,t} exist only for levels k below the star's window
            seen["new colors read"] += any(
                any(k < plan.tables[-1].width for k in plan.tables[-1].fresh) for plan in plans)
            # a star before A walked inside the window
            seen["chain colors read"] += any(
                any(k < table.width for k in table.fresh)
                for plan in plans for table in plan.tables[:-2])
            with monkeypatch.context() as patch:
                # no star fits one table bit, so the search branches on every edge
                patch.setattr(gallai.counting, "_STAR_TABLE_BITS", 1)
                assert count == count_gallai(g, r)
                assert all(plan.starts[0] == len(plan.order) for plan in plans)
            if r**g.edge_count <= 10**6:
                assert count == count_gallai_naive(g, r)
                seen["naive"] += 1
        assert seen["components"] >= 10
        assert seen["new colors read"] >= 50
        assert seen["chain colors read"] >= 20
        assert seen["naive"] >= 100

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


def least_budget(count, graph):
    """The least node_budget under which count(graph, node_budget) finishes."""
    def fits(budget):
        try:
            count(graph, budget)
        except ResourceLimitError:
            return False
        return True

    lo, hi = 0, 1
    while not fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


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

    @pytest.mark.parametrize("graph, r", [(complete(4), 3), (book(2), 4), (complete(2), 300)])
    def test_scan_rows_follow_product_order(self, graph, r):
        rows = []
        for colors, _ in scan_colorings(graph, r):
            assert colors.dtype == np.min_scalar_type(r)
            rows.extend(map(tuple, colors.tolist()))
        assert rows == list(itertools.product(range(r), repeat=graph.edge_count))

    @pytest.mark.parametrize("name", ["K4", "K2,3", "B2", "C5"])
    @pytest.mark.parametrize("r", [3, 4])
    def test_gallai_colorings_are_the_gallai_products_in_order(self, name, r):
        g = graph_from_name(name)
        edge_pos = {e: i for i, e in enumerate(g.edges())}
        triangles = brute_triangles(g)
        expected = [combo for combo in itertools.product(range(1, r + 1), repeat=g.edge_count)
                    if assignment_is_gallai(triangles, edge_pos, combo)]
        assert list(gallai_colorings(g, r)) == expected

    def test_naive_sweep_takes_colors_past_one_byte(self):
        assert count_gallai_naive(complete(3), 300) == book_gallai_count(1, 300)

    def test_budget_errors(self):
        with pytest.raises(ResourceLimitError):
            count_gallai_naive(complete(5), 4, node_budget=10)
        with pytest.raises(ResourceLimitError):
            list(gallai_colorings(complete(5), 4, node_budget=10))
        with pytest.raises(ResourceLimitError):
            count_gallai(complete(6), 3, node_budget=50)

    def test_node_budget_covers_every_component_of_one_call(self):
        # both components end in a star that the tables count
        plans, free = gallai.counting._search_plans(K4_AND_DIAMOND, [0b1111] * 11)
        assert len(plans) == 2 and not free
        assert all(plan.starts[-2] < len(plan.order) for plan in plans)

        def count(graph, budget):
            return count_gallai(graph, 4, node_budget=budget)

        need = least_budget(count, complete(4)) + least_budget(count, DIAMOND)
        assert least_budget(count, K4_AND_DIAMOND) == need
        with pytest.raises(ResourceLimitError):
            count_gallai(K4_AND_DIAMOND, 4, node_budget=need - 1)
        assert count_gallai(K4_AND_DIAMOND, 4, node_budget=need) \
            == count_gallai(complete(4), 4) * count_gallai(DIAMOND, 4)

    def test_palette_node_budget_covers_every_component_of_one_call(self):
        k4_masks = [0b0111, 0b1110, 0b1011, 0b0111, 0b1101, 0b1111]
        diamond_masks = [0b1111, 0b0110, 0b0111, 0b1011, 0b1110]
        masks = {complete(3): [0b111] * 3, complete(4): k4_masks, DIAMOND: diamond_masks,
                 K4_AND_DIAMOND: k4_masks + diamond_masks}
        # both components end in a star that the tables count
        plans, free = gallai.counting._search_plans(K4_AND_DIAMOND, masks[K4_AND_DIAMOND])
        assert len(plans) == 2 and not free
        assert all(plan.starts[-3] < plan.starts[-2] < len(plan.order) for plan in plans)

        def count(graph, budget):
            return count_gallai_with_palettes(graph, masks[graph], node_budget=budget)

        # K3's two stars are its first edge and the two edges at its last
        # vertex, so the search branches on no edge: its one leaf sums each
        # of the first edge's 3 colorings, one node apiece
        [plan], _ = gallai.counting._search_plans(complete(3), masks[complete(3)])
        assert plan.starts == [0, 1, 3]
        assert least_budget(count, complete(3)) == 3
        need = least_budget(count, complete(4)) + least_budget(count, DIAMOND)
        assert least_budget(count, K4_AND_DIAMOND) == need
        with pytest.raises(ResourceLimitError):
            count(K4_AND_DIAMOND, need - 1)
        assert count(K4_AND_DIAMOND, need) == count(complete(4), need) * count(DIAMOND, need)

    def test_free_edges_build_no_plan_and_cost_no_node(self):
        # K4 on 0..3 with two pendant edges, 3-4 and 4-5, that lie in no triangle
        k4 = complete(4)
        pendant = Graph.from_edges(6, list(k4.edges()) + [(3, 4), (4, 5)])
        k4_masks = [0b0111, 0b1110, 0b1011, 0b0111, 0b1101, 0b1111]
        masks = {k4: k4_masks, pendant: k4_masks + [0b0110, 0b1011]}
        plans, free = gallai.counting._search_plans(pendant, masks[pendant])
        assert [plan.order for plan in plans] == [
            plan.order for plan in gallai.counting._search_plans(k4, k4_masks)[0]]
        assert [pendant.edges()[e] for e in free] == [(3, 4), (4, 5)]

        def count(graph, budget):
            return count_gallai(graph, 4, node_budget=budget)

        def palette_count(graph, budget):
            return count_gallai_with_palettes(graph, masks[graph], node_budget=budget)

        assert least_budget(count, pendant) == least_budget(count, k4)
        assert least_budget(palette_count, pendant) == least_budget(palette_count, k4)
        assert count_gallai(pendant, 4) == 16 * count_gallai(k4, 4)
        assert palette_count(pendant, 10**9) == 2 * 3 * palette_count(k4, 10**9)


def reference_plan(comp, tri_of_edge, ends, sizes):
    """The plain greedy: rescore every remaining edge at every step.  A run
    order[start:stop] may be a star block when its edges share a vertex,
    their palette sizes fit the table, and no triangle through its edge at
    position i has another edge before i and one at stop or later.  B is
    the longest such suffix and A the longest such run that ends where B
    starts; more blocks follow backwards while one is found.  Returns the
    order, the narrowing pairs of the head, and the block bounds."""
    placed, order = set(), []
    remaining = sorted(comp)
    while remaining:
        def closed(e):
            return sum(1 for f, g in tri_of_edge[e] if f in placed and g in placed)
        best = max(remaining, key=lambda e: (closed(e), -e))
        order.append(best)
        placed.add(best)
        remaining.remove(best)
    pos = {e: i for i, e in enumerate(order)}
    narrow = []
    for i, e in enumerate(order):
        pairs = []
        for f, g in tri_of_edge[e]:
            lo, hi = sorted((f, g), key=pos.get)
            if pos[lo] < i < pos[hi]:
                pairs.append((lo, hi))
        narrow.append(tuple(pairs))

    def block(start, stop):
        run = order[start:stop]
        at_one_vertex = not run or set.intersection(*(set(ends[e]) for e in run))
        return bool(at_one_vertex) \
            and prod(sizes[e] for e in run) <= gallai.counting._STAR_TABLE_BITS \
            and not any(min(pos[f], pos[g]) < i and max(pos[f], pos[g]) >= stop
                        for i in range(start, stop) for f, g in tri_of_edge[order[i]])

    def longest(stop):
        return min(start for start in range(stop + 1) if block(start, stop))

    starts = [len(order)]
    starts.append(longest(starts[-1]))
    starts.append(longest(starts[-1]))
    while starts[-1] < starts[-2] and longest(starts[-1]) < starts[-1]:
        starts.append(longest(starts[-1]))
    starts.reverse()
    return order, narrow[:starts[0]], starts


class TestTwoStarLeaf:
    def test_agrees_with_naive_and_plain_branching(self, monkeypatch):
        rng = random.Random(83)
        seen = {"first star": 0, "cross rows": 0, "components": 0, "naive": 0}
        for trial in range(150):
            if trial % 3:
                g = random_graph(rng, rng.randint(3, 6))
            else:
                g = disjoint_union(random_graph(rng, rng.randint(4, 5)),
                                   random_graph(rng, rng.randint(4, 5)))
            m = g.edge_count
            if m == 0:
                continue
            r = rng.choice((2, 3, 4))
            masks = [sum(1 << c for c in rng.sample(range(r), rng.randint(1, r)))
                     for _ in range(m)]
            plans, _ = gallai.counting._search_plans(g, masks)
            seen["first star"] += any(plan.starts[-3] < plan.starts[-2] for plan in plans)
            # a coloring of A that rules out part of B through B's pair rows;
            # a plan with no triangle through both stars has no cross rows
            seen["cross rows"] += sum(plan.cross[-2] is not None and any(
                plan.cross[-2][s] != plan.tables[-1].ones
                for s in range(plan.tables[-2].ones.bit_length())) for plan in plans)
            seen["components"] += len(plans) >= 2
            counts = count_gallai(g, r), count_gallai_with_palettes(g, masks)
            with monkeypatch.context() as patch:
                # only stars of one-color palettes fit one table bit
                patch.setattr(gallai.counting, "_STAR_TABLE_BITS", 1)
                assert counts == (count_gallai(g, r), count_gallai_with_palettes(g, masks))
            if r**m <= 10**6:
                assert counts == (count_gallai_naive(g, r), enumerated_palette_count(g, masks))
                seen["naive"] += 1
        assert seen["first star"] >= 50
        assert seen["cross rows"] >= 40
        assert seen["components"] >= 10
        assert seen["naive"] >= 100

    def test_children_cut_on_the_packed_row_agree_with_naive_and_plain_branching(
            self, monkeypatch):
        calls = []
        run = gallai.counting._Searcher.run
        walk = gallai.counting._Searcher.walk

        def recording_run(self, pos, k, live):
            calls.append((self.plan, pos, k, live, list(self.cand)))
            return run(self, pos, k, live)

        def recording_walk(self, j, k, live):
            calls.append((self.plan, ~j, k, live, None))
            return walk(self, j, k, live)

        monkeypatch.setattr(gallai.counting._Searcher, "run", recording_run)
        monkeypatch.setattr(gallai.counting._Searcher, "walk", recording_walk)
        rng = random.Random(97)
        seen = {"branch cut": 0, "star cut": 0, "naive": 0}
        for trial in range(120):
            n = rng.randint(4, 6)
            g = random_graph(rng, n) if trial % 2 else complete(n)
            m = g.edge_count
            r = rng.choice((3, 4))
            # narrow palettes, so many a prefix color leaves B no coloring;
            # in every sixth trial K6's vertex 4 has 15 of 16 colors on each
            # edge, too many for one table, so the chain ends there and the
            # search branches on a head
            wide = trial % 6 == 0 and n == 6
            masks = [((1 << 16) - 1) ^ (1 << rng.randrange(16)) if wide and v == 4 else
                     sum(1 << c for c in rng.sample(range(r), rng.randint(1, 2)))
                     for u, v in g.edges()]
            calls.clear()
            count = count_gallai_with_palettes(g, masks)
            # a child of a branching call, or of a star's coloring, whose B
            # half is empty is never run
            for plan, pos, k, live, cand in calls:
                if pos >= 0 and plan.steps[pos][2] is not None:
                    keys = plan.steps[pos][2]
                    colors = cand[plan.order[pos]] & ((2 << k) - 1)
                    seen["branch cut"] += sum(live & keys[1 << c] < plan.tops[0]
                                              for c in range(colors.bit_length())
                                              if colors >> c & 1)
                elif pos < 0:
                    j = ~pos
                    table, cross = plan.tables[j], plan.cross[j]
                    rest = live >> table.ones.bit_length()
                    seen["star cut"] += sum(
                        (rest if cross is None else rest & cross[s]) < plan.tops[j + 1]
                        for s in range(table.ones.bit_length()) if live >> s & 1)
            assert count == branching_palette_count(g, masks)
            if max(masks).bit_length()**m <= 10**6:
                assert count == enumerated_palette_count(g, masks)
                seen["naive"] += 1
        assert seen["branch cut"] >= 100
        assert seen["star cut"] >= 20
        assert seen["naive"] >= 40

    def test_a_child_cut_on_the_packed_row_costs_no_node(self):
        # K4 in the order 01, 02, 12, 03, 13, 23: a chain of three stars, 01
        # alone, A = (02, 12) at vertex 2 and B = (03, 13, 23) at vertex 3.
        # The first star iterates its 3 colorings, 3 nodes.  03 is 1 and 13
        # is 3, so 01 = 2 makes triangle 013 rainbow: B's half of that child
        # is empty and the child is cut.  01 = 1 and 01 = 3 each leave A one
        # coloring (02 = 01, 12 = 2), one node per leaf, 5 in all; a search
        # that ran the cut child to its leaf would charge it a sixth
        g = complete(4)
        masks = [0b111, 0b101, 0b001, 0b010, 0b100, 0b011]
        [plan], _ = gallai.counting._search_plans(g, masks)
        assert [g.edges()[e] for e in plan.order] == [
            (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
        assert plan.starts == [0, 1, 3, 6]

        def count(graph, budget):
            return count_gallai_with_palettes(graph, masks, node_budget=budget)

        assert least_budget(count, g) == 5
        # 01 = 1, 02 = 1, 12 = 2, 03 = 1, 13 = 3 and 23 = 2
        assert count(g, 5) == 1 == enumerated_palette_count(g, masks)

    def test_third_rule_cuts_the_first_star_short(self):
        # B is (2, 3) and A is (1, 4).  The edge (1, 3) before A shares its
        # vertex 1 and fits a table, but its triangle with B's edge (2, 3)
        # has its third edge (1, 2) in the prefix, so A stops; for the same
        # reason (1, 3) starts no star before A, and the chain ends
        g = Graph.from_edges(5, [(0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
        ends = g.edges()
        rng = random.Random(89)
        for r in (3, 4):
            [plan], _ = gallai.counting._search_plans(g, [(1 << r) - 1] * 7)
            assert [ends[e] for e in plan.order] == [
                (0, 3), (0, 4), (3, 4), (1, 2), (1, 3), (1, 4), (2, 3)]
            assert plan.starts == [5, 6, 7]
            assert count_gallai(g, r) == count_gallai_naive(g, r)
            for _ in range(10):
                masks = [sum(1 << c for c in rng.sample(range(r), rng.randint(1, r)))
                         for _ in range(7)]
                assert count_gallai_with_palettes(g, masks) \
                    == enumerated_palette_count(g, masks) == branching_palette_count(g, masks)


class TestChain:
    """Plans of three stars or more: the search walks the stars before A one
    star coloring at a time."""

    def test_chains_agree_with_naive_and_plain_branching(self, monkeypatch):
        rng = random.Random(101)
        seen = {"chains": 0, "four stars": 0, "naive": 0}
        for trial in range(150):
            n = rng.randint(4, 7)
            g = random_graph(rng, n) if trial % 3 else complete(n)
            m = g.edge_count
            r = rng.choice((2, 3, 4))
            masks = [sum(1 << c for c in rng.sample(range(r), rng.randint(1, r)))
                     for _ in range(m)]
            plans, _ = gallai.counting._search_plans(g, masks)
            if not any(len(plan.tables) > 2 for plan in plans):
                continue
            seen["chains"] += 1
            seen["four stars"] += any(len(plan.tables) > 3 for plan in plans)
            count = count_gallai_with_palettes(g, masks)
            assert count == branching_palette_count(g, masks)
            if r**m <= 10**6:
                assert count == enumerated_palette_count(g, masks)
                assert count_gallai(g, r) == count_gallai_naive(g, r)
                seen["naive"] += 1
        assert seen["chains"] >= 80
        assert seen["four stars"] >= 40
        assert seen["naive"] >= 40

    @pytest.mark.parametrize("n", range(2, 8))
    def test_complete_graphs_with_full_palettes_match_the_decomposition(self, n):
        # the palette search breaks no color symmetry, and K7 at r = 5 is a
        # plan of two stars that branches on 16 edges (32 s), so it is left out
        for r in range(1, 6):
            assert count_gallai(complete(n), r) == count_complete(n, r)
            if (n, r) != (7, 5):
                masks = [(1 << r) - 1] * comb(n, 2)
                assert count_gallai_with_palettes(complete(n), masks) == count_complete(n, r)

    # K4 in 4 colors is the stars 01, (02, 12) and (03, 13, 23): 01 iterates
    # its 4 colorings, and each leaves A 16 - 6 colorings of 02 and 12 that
    # keep 012 not rainbow, 4 + 4 * 10 nodes.  K5 in 3 colors adds a star:
    # 01 iterates 3 colorings, each leaves 7 of (02, 12), 21 nodes, and the
    # leaves sum A's 279 colorings over them, one per Gallai coloring of K4
    @pytest.mark.parametrize("n, masks, nodes", [
        (4, [0b1111] * 6, 44),
        (4, [0b0111, 0b1110, 0b1011, 0b0111, 0b1101, 0b1111], 20),
        (5, [0b111] * 10, 3 + 21 + 279),
        (5, [0b0111, 0b1110, 0b1011, 0b0111, 0b1101, 0b1111, 0b0011, 0b1100, 0b0110, 0b1001],
         129),
        (5, [0b111, 0b110, 0b011, 0b101, 0b111, 0b010, 0b111, 0b011, 0b110, 0b101], 47)])
    def test_a_star_before_a_costs_a_node_per_coloring_it_iterates(self, n, masks, nodes):
        [plan], _ = gallai.counting._search_plans(complete(n), masks)
        assert plan.starts == [0, 1, 3, 6, 10][:n]

        def count(graph, budget):
            return count_gallai_with_palettes(graph, masks, node_budget=budget)

        assert least_budget(count, complete(n)) == nodes

    # the least budgets of the search before it chained its stars, which a
    # plan of two stars charges unchanged
    @pytest.mark.parametrize("graph, r, nodes", [
        (complete(5), 10**6, 400), (complete(6), 10**6, 26630), (OCTAHEDRON, 10**6, 4592)])
    def test_two_star_plans_charge_what_they_did(self, graph, r, nodes):
        plans, _ = gallai.counting._search_plans(graph, [(1 << graph.edge_count) - 1]
                                                 * graph.edge_count)
        assert all(len(plan.tables) == 2 for plan in plans)
        assert least_budget(lambda g, budget: count_gallai(g, r, node_budget=budget),
                            graph) == nodes

    THIRD_RULE = Graph.from_edges(5, [(0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
    WIDE_K6 = [((1 << 16) - 1) ^ (1 << u + 3) if v == 4 else (0b011, 0b110, 0b101)[(u + v) % 3]
               for u, v in complete(6).edges()]

    @pytest.mark.parametrize("graph, masks, nodes", [
        (THIRD_RULE, [0b111] * 7, 726),
        (THIRD_RULE, [0b011, 0b110, 0b111, 0b101, 0b111, 0b011, 0b110], 147),
        (complete(6), WIDE_K6, 2204)])
    def test_two_star_palette_plans_charge_what_they_did(self, graph, masks, nodes):
        plans, _ = gallai.counting._search_plans(graph, masks)
        assert all(len(plan.tables) == 2 and plan.starts[0] for plan in plans)
        assert least_budget(lambda g, budget: count_gallai_with_palettes(
            g, masks, node_budget=budget), graph) == nodes


class TestSearchPlan:
    @pytest.mark.parametrize("graph", [
        complete(7), complete_bipartite(3, 4), OCTAHEDRON,
        *(random_graph(random.Random(seed), 8) for seed in (51, 52, 53, 54))])
    def test_greedy_order_matches_reference(self, graph):
        edges = graph.edges()
        idx = {e: i for i, e in enumerate(edges)}
        tri_of_edge = {i: [] for i in range(len(edges))}
        for a, b, c in graph.triangles():
            ab, ac, bc = idx[(a, b)], idx[(a, c)], idx[(b, c)]
            tri_of_edge[ab].append((ac, bc))
            tri_of_edge[ac].append((ab, bc))
            tri_of_edge[bc].append((ab, ac))
        m = len(edges)

        seen = {"leads": 0, "chains": 0}

        def check(masks):
            sizes = [mask.bit_count() for mask in masks]
            plans, free = gallai.counting._search_plans(graph, masks)
            # an edge in no triangle is free, and every other edge is in one plan
            assert free == [e for e in range(m) if not tri_of_edge[e]]
            assert sorted(free + [e for plan in plans for e in plan.order]) == list(range(m))
            for plan in plans:
                order, narrow, starts = reference_plan(
                    sorted(plan.order), tri_of_edge, edges, sizes)
                assert plan.order == order
                assert [pairs for _, pairs, _, _ in plan.steps] == narrow
                assert plan.starts == starts
                assert [len(table.choices) for table in plan.tables] == [
                    stop - start for start, stop in zip(starts, starts[1:])]
                seen["leads"] += starts[-3] < starts[-2]
                seen["chains"] += len(starts) > 3

        # palettes of 1..8 colors, so some stars are cut short by the table cap
        rng = random.Random(m)
        check([sum(1 << c for c in rng.sample(range(8), rng.randint(1, 8))) for _ in edges])
        # count_gallai plans with full palettes of its window's width
        for r in (3, 5, 10**6):
            check([(1 << min(r, m)) - 1] * m)
        # every graph here with a triangle has a plan whose star A is not
        # empty, and one with a star before A
        assert seen["leads"] >= 1 or not graph.triangles()
        assert seen["chains"] >= 1 or not graph.triangles()

    # K7's last vertex has 6 edges: at r = 5 the table cap keeps 5 of them
    # (5^5 <= 2^12 < 5^6), and at r = 10^6 the width is e = 21, so 2 (21^3 > 2^12).
    # At r = 3 every vertex star is a block, A is vertex 5's five edges and
    # the search branches on no edge.  At the other two the edge just before
    # B is vertex 6's (0, 6) or (3, 6), which closes a triangle with an edge
    # of B and an earlier edge, so A is empty and the chain ends there
    @pytest.mark.parametrize("r, star_edges", [(3, 6), (5, 5), (10**6, 2)])
    def test_count_gallai_star_is_cut_by_the_table_cap(self, r, star_edges):
        [plan], _ = gallai.counting._search_plans(complete(7), [(1 << min(r, 21)) - 1] * 21)
        blocks = {3: [1, 2, 3, 4, 5, 6], 5: [0, 5], 10**6: [0, 2]}[r]
        assert blocks[-1] == star_edges
        starts = plan.starts
        assert [stop - start for start, stop in zip(starts, starts[1:])] == blocks
        assert starts[0] == 21 - sum(blocks)
        assert [len(table.choices) for table in plan.tables] == blocks

    def test_component_deeper_than_the_stack_is_a_budget_error(self):
        # the search recurses once per edge; K70 has 2415 edges in one component
        with pytest.raises(ResourceLimitError, match="depth"):
            count_gallai(complete(70), 3)
        with pytest.raises(ResourceLimitError, match="depth"):
            count_gallai_with_palettes(complete(70), [0b111] * comb(70, 2))

    def test_deep_component_is_refused_before_triangles_are_listed(self, monkeypatch):
        def no_listing(*args):
            raise AssertionError("triangles listed")

        monkeypatch.setattr(Graph, "triangle_edges", no_listing)
        monkeypatch.setattr(gallai.counting, "_triangle_edges", no_listing)
        with pytest.raises(ResourceLimitError, match="at least 179700 edges"):
            count_gallai(complete(600), 3)
        with pytest.raises(ResourceLimitError, match="at least 179700 edges"):
            count_gallai_with_palettes(complete(600), [0b111] * comb(600, 2))

    def test_one_plan_build_lists_the_edges_once(self, monkeypatch):
        listed = []
        edges = Graph.edges

        def counted(graph):
            listed.append(graph)
            return edges(graph)

        monkeypatch.setattr(Graph, "edges", counted)
        for graph in (complete(7), K4_AND_DIAMOND, cycle(5), book(3)):
            listed.clear()
            gallai.counting._search_plans(graph, [0b111] * graph.edge_count)
            assert listed == [graph]

    def test_component_floor_bounds_the_largest_component(self):
        # exact on K_n, and never above the largest component elsewhere; a
        # cap of every edge never stops the floor early
        floor = gallai.counting._component_floor
        for n in (1, 2, 3, 7, 41):
            assert floor(complete(n), comb(n, 2)) == comb(n, 2)
        rng = random.Random(73)
        graphs = [random_graph(rng, rng.randint(3, 9)) for _ in range(60)]
        graphs += [cycle(6), book(4), complete_bipartite(3, 4), K4_AND_DIAMOND]
        for g in graphs:
            tri_of_edge = gallai.counting._edge_triangles(g.edge_count, g.triangle_edges())
            largest = max(map(len, gallai.counting._edge_components(tri_of_edge)), default=0)
            assert floor(g, g.edge_count) <= largest
        assert floor(book(4), book(4).edge_count) == comb(6, 2) - comb(4, 2)

    def test_component_floor_stops_at_the_first_piece_past_the_cap(self):
        # K5 on vertices 0-4 beside K8 on 5-12: vertex 0's piece already
        # has 10 edges, past a cap of 9, so K8's 28 are never reached
        g = Graph.from_edges(13, [(u, v) for u in range(5) for v in range(u + 1, 5)]
                             + [(u, v) for u in range(5, 13) for v in range(u + 1, 13)])
        floor = gallai.counting._component_floor
        assert floor(g, 9) == comb(5, 2)
        assert floor(g, comb(5, 2)) == comb(8, 2)


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

    def test_huge_palette_matches_closed_forms_quickly(self):
        r = 10**6
        cases = [(complete(3), r**3 - r * (r - 1) * (r - 2))]
        cases += [(book(q), book_gallai_count(q, r)) for q in range(1, 5)]
        for graph, expected in cases:
            start = time.perf_counter()
            assert count_gallai(graph, r) == expected
            assert time.perf_counter() - start < 1.0

    def test_asymptotic_bounds_values(self):
        b = asymptotic_bounds(6, 3)
        assert b.trivial_lower == Fraction(98816)
        assert b.trivial_lower_log2 == pytest.approx(log2(98816), rel=1e-12)
        assert b.main_upper_log2 == pytest.approx(16.94706834833339, rel=1e-12)
        assert lower_bound_two_color(6, 3) <= count_gallai(complete(6), 3)
        assert b.two_color_log2 == log2(lower_bound_two_color(6, 3))

    def test_exact_bounds_stop_at_the_cap(self):
        n = EXACT_BOUNDS_LIMIT + 1
        with pytest.raises(ResourceLimitError):
            lower_bound_two_color(n, 3)
        assert asymptotic_bounds(n, 3).trivial_lower is None
        assert asymptotic_bounds(n - 1, 3).trivial_lower is not None


class TestCompleteRecurrence:
    """count_complete reads K_n's count off Gallai's decomposition."""

    @pytest.mark.parametrize("r", [3, 4, 5, 10])
    def test_matches_the_search(self, r):
        for n in range(1, 7):
            assert count_complete(n, r) == count_gallai(complete(n), r)

    def test_matches_the_sweep_where_it_fits(self):
        budget = 1 << 20
        seen = 0
        for n in range(1, 6):
            for r in range(1, 11):
                if r ** comb(n, 2) <= budget:
                    assert count_complete(n, r) == count_gallai_naive(
                        complete(n), r, node_budget=budget)
                    seen += 1
        assert seen == 44

    @pytest.mark.parametrize("n,r,expected", [(7, *case) for case in COMPLETE_SEVEN]
                             + [(8, *case) for case in COMPLETE_EIGHT])
    def test_frozen_seven_and_eight(self, n, r, expected):
        assert count_complete(n, r) == expected

    def test_search_reproduces_k8_at_three_colors(self):
        r, expected = COMPLETE_EIGHT[0]
        assert count_gallai(complete(8), r) == count_complete(8, r) == expected

    def test_prime_quotients_and_one_or_two_colors(self):
        tables = gallai.kn._decomposition(2).grow(8)
        assert tables.quotients[:9] == [0, 0, 0, 0, 12, 192, 10800, 970080, 161310240]
        for n in range(1, 30):
            assert count_complete(n, 2) == 2 ** comb(n, 2)
            assert count_complete(n, 1) == 1

    def test_tables_kept_are_bounded_and_rebuilt_when_evicted(self):
        decomposition = gallai.kn._decomposition
        keep = gallai.kn._DECOMPOSITION_TABLES
        decomposition.cache_clear()
        counts = {r: count_complete(8, r) for r in (3, 7)}
        first = decomposition(2)
        # K_1 grows no table, so these calls read no r = 2 table and push it out
        for r in range(100, 100 + 2 * keep):
            assert count_complete(1, r) == 1
        assert decomposition.cache_info().currsize == keep
        assert decomposition(2) is not first
        decomposition.cache_clear()
        # r = 7 was evicted too; its K_8 count rebuilds the prime-graph counts
        assert count_complete(8, 7) == counts[7]
        for r in range(3, 3 + 10 * keep):
            count = count_complete(8, r)
            assert decomposition.cache_info().currsize <= keep
            if r in counts:
                assert count == counts[r]
        assert count_complete(5, 9) == count_gallai(complete(5), 9)
        assert count_complete(8, 3) == COMPLETE_EIGHT[0][1]

    def test_domain_and_cap(self):
        with pytest.raises(InvalidParameterError):
            count_complete(0, 3)
        with pytest.raises(InvalidParameterError):
            count_complete(3, 0)

    @pytest.mark.parametrize("r", [3, 10**6, 10**400])
    def test_width_cap(self, r):
        n = 2
        while comb(n + 1, 2) + n * r.bit_length() <= COMPLETE_BITS:
            n += 1
        assert n == {3: 153, 10**6: 136, 10**400: 9}[r]
        with pytest.raises(ResourceLimitError):
            count_complete(n + 1, r)
        if r == 10**400:
            assert count_complete(n, r) > r ** (n - 1)

    def test_huge_palette_is_quick(self):
        r = 10**6
        start = time.perf_counter()
        assert count_complete(3, r) == r**3 - r * (r - 1) * (r - 2)
        assert count_complete(30, r) > comb(r, 2) * 2 ** comb(30, 2)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 10])
    def test_two_color_floor_is_below_the_count(self, r):
        assert lower_bound_two_color(1, r) == 1
        for n in range(1, 41):
            floor, count = lower_bound_two_color(n, r), count_complete(n, r)
            assert floor == count if r == 2 else floor <= count

    @pytest.mark.parametrize("r", [3, 4, 5, 10])
    def test_three_color_share_falls(self, r):
        # almost every Gallai coloring of a large K_n uses two colors
        shares = [1 - Fraction(lower_bound_two_color(n, r), count_complete(n, r))
                  for n in range(9, 41)]
        assert all(a > b for a, b in zip(shares, shares[1:]))
        assert shares[-1] < Fraction(1, 2**25)


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

    def test_star_tables_agree_with_branching_and_enumeration(self):
        rng = random.Random(61)
        seen = {"components": 0, "narrowed star": 0, "sizes": set(), "enumerated": 0}
        for trial in range(150):
            if trial % 3:
                g = random_graph(rng, rng.randint(3, 7))
            else:
                g = disjoint_union(random_graph(rng, rng.randint(3, 4)),
                                   random_graph(rng, rng.randint(3, 4)))
            m = g.edge_count
            if m == 0:
                continue
            r = rng.randint(1, 5)
            masks = []
            for _ in range(m):
                colors = rng.sample(range(r), rng.randint(1, r))
                masks.append(sum(1 << c for c in colors))
                seen["sizes"].add(len(colors))
            count = count_gallai_with_palettes(g, masks)
            assert count == branching_palette_count(g, masks)
            width = max(masks).bit_length()
            if width**m <= 10**6:
                assert count == enumerated_palette_count(g, masks)
                seen["enumerated"] += 1
            plans, _ = gallai.counting._search_plans(g, masks)
            seen["components"] += len(plans) >= 2
            seen["narrowed star"] += any(narrowed_star(plan, g.edges()) for plan in plans)
        assert seen["components"] >= 10
        assert seen["narrowed star"] >= 1
        assert seen["sizes"] == {1, 2, 3, 4, 5}
        assert seen["enumerated"] >= 50

    def test_star_wider_than_the_table_is_cut_short(self):
        # K8 in 16 colors: the last vertex's 7 edges take every color and the
        # rest one or two, so only 3 star edges fit 2^12 table bits
        rng = random.Random(67)
        g = complete(8)
        masks = [(1 << 16) - 1 if v == 7 else
                 sum(1 << c for c in rng.sample(range(16), rng.randint(1, 2)))
                 for u, v in g.edges()]
        [plan], _ = gallai.counting._search_plans(g, masks)
        assert len(plan.order) - plan.starts[-2] == 3
        assert narrowed_star(plan, g.edges())
        assert count_gallai_with_palettes(g, masks) == branching_palette_count(g, masks)


def branching_palette_count(graph, masks):
    """The palette search on plans without star tables: it branches on every edge."""
    with pytest.MonkeyPatch.context() as patch:
        # not even a star of one-color palettes fits a table of no bits
        patch.setattr(gallai.counting, "_STAR_TABLE_BITS", 0)
        plans, free = gallai.counting._search_plans(graph, masks)
    assert all(plan.starts[0] == len(plan.order) for plan in plans)
    start = max(masks).bit_length()
    searcher = gallai.counting._Searcher(masks, 10**9, {start: 1})
    return searcher.count(plans, start) * prod(masks[e].bit_count() for e in free)


def enumerated_palette_count(graph, masks):
    r = max(masks).bit_length()
    return sum(1 for combo in gallai_colorings(graph, r)
               if all(mask >> (c - 1) & 1 for mask, c in zip(masks, combo)))


def narrowed_star(plan, ends):
    """True when an edge at the last star's vertex lies in the head of the
    plan, so the head can narrow the star's candidates."""
    star = plan.order[plan.starts[-2]:]
    if len(star) < 2:
        return False
    [vertex] = set.intersection(*(set(ends[e]) for e in star))
    return any(vertex in ends[e] for e in plan.order[:plan.starts[0]])


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
