import decimal
import gc
import json
import random
import warnings

import pytest

from conftest import random_graph
from gallai.counting import count_gallai, count_gallai_naive
from gallai.errors import InvalidParameterError, ResourceLimitError
from gallai.extremal import (
    CountCache,
    ExtremalRow,
    ExtremalTable,
    compare_known,
    export_csv,
    extremal_search,
    KnownComparison,
)
from gallai.graphs import (
    all_graphs,
    canonical_form,
    canonical_graph,
    complete,
    complete_bipartite,
    graph6_decode,
    graph6_encode,
)

K4 = graph6_encode(complete(4))


class TestSearch:
    def test_triangle_wins_on_three_vertices(self):
        table = extremal_search(3, 3)
        assert table.authoritative
        assert len(table.rows) == 4
        assert table.max_count == 21
        assert table.argmax == ("Bw",)

    def test_rows_cover_all_classes_sorted_by_canonical_form(self):
        table = extremal_search(4, 3)
        forms = [canonical_form(graph6_decode(row.g6)) for row in table.rows]
        assert forms == sorted(canonical_form(g) for g in all_graphs(4))
        assert len(set(forms)) == 11
        assert all(graph6_encode(canonical_graph(graph6_decode(row.g6))) == row.g6
                   for row in table.rows)
        assert table.max_count == 279

    def test_every_row_count_matches_the_scan_oracle(self):
        table = extremal_search(4, 3)
        for g, row in zip(all_graphs(4), table.rows):
            assert row.count == count_gallai_naive(g, 3)
            assert row.edges == g.edge_count

    def test_unique_bipartite_winner_at_ten_colors(self):
        table = extremal_search(5, 10)
        assert table.authoritative
        assert table.max_count == 10**6
        assert table.argmax == (graph6_encode(canonical_graph(complete_bipartite(2, 3))),)
        assert table.argmax == ("DFw",)

    @pytest.mark.parametrize("r, argmax, winner", [
        (5, "E~~w", "complete"),     # K6
        (10, "EFz_", "bipartite"),   # K3,3
    ])
    def test_six_vertices_agree_with_the_closed_forms(self, r, argmax, winner):
        table = extremal_search(6, r)
        known = compare_known(6, r)
        assert table.authoritative
        assert len(table.rows) == 156
        assert table.argmax == (argmax,)
        assert known.winner == winner
        assert table.max_count == max(known.count_complete, known.count_bipartite)

    def test_order_gates(self):
        with pytest.raises(ResourceLimitError):
            extremal_search(8, 3)
        with pytest.raises(InvalidParameterError):
            extremal_search(4, 0)

    def test_budget_exhaustion_attaches_partial_table(self):
        with pytest.raises(ResourceLimitError) as info:
            extremal_search(5, 3, node_budget=50)
        partial = info.value.partial
        assert partial is not None
        assert not partial.authoritative
        assert partial.argmax == ()
        assert any(row.count is None for row in partial.rows)
        assert len(partial.rows) == 34


class TestCache:
    def test_round_trip_is_keyed_by_isomorphism_class(self, tmp_path):
        path = tmp_path / "counts.jsonl"
        cache = CountCache(path)
        g = complete_bipartite(2, 3)
        key = graph6_encode(canonical_graph(g))
        cache.put(key, 7, 12345)
        assert path.read_text() == json.dumps({"g6": key, "r": 7, "count": "12345"}) + "\n"
        assert cache.get(key, 7) == 12345
        relabeled = g.permuted([4, 2, 0, 3, 1])
        assert cache.get(graph6_encode(canonical_graph(relabeled)), 7) == 12345
        assert cache.get(key, 8) is None

    def test_persisted_across_instances(self, tmp_path):
        path = tmp_path / "counts.jsonl"
        CountCache(path).put(K4, 3, 279)
        assert CountCache(path).get(K4, 3) == 279

    def test_corrupt_lines_warn_and_are_skipped(self, tmp_path):
        path = tmp_path / "counts.jsonl"
        CountCache(path).put(K4, 3, 279)
        with open(path, "ab") as fh:
            fh.write(b"not json\n")
            fh.write(json.dumps({"g6": "C~"}).encode() + b"\n")
            fh.write(b"\xff\n")
        cache = CountCache(path)
        with pytest.warns(UserWarning) as caught:
            assert cache.get(K4, 3) == 279
        assert [str(w.message).split(" in ")[0] for w in caught] == \
            [f"skipping corrupt cache line {i}" for i in (2, 3, 4)]

    @pytest.mark.parametrize("fields", [
        {"r": 3.7, "count": 1.5}, {"r": 3, "count": True}, {"r": 3, "count": "-7"},
        {"r": True, "count": "5"}, {"r": 3, "count": 5}, {"r": 3, "count": " 5"},
        {"r": 3, "count": "1_0"}, {"r": 3, "count": "\u0663"}, {"r": 3, "count": ""},
    ])
    def test_only_lines_put_writes_are_served(self, tmp_path, fields):
        path = tmp_path / "counts.jsonl"
        path.write_text(json.dumps({"g6": "Bw", **fields}) + "\n")
        with pytest.warns(UserWarning, match="skipping corrupt cache line 1"):
            assert CountCache(path).get("Bw", 3) is None

    def test_counts_past_the_int_digit_limit_round_trip(self, tmp_path):
        count = 7**6000
        digits = str(decimal.Decimal(count))
        assert len(digits) > 4300
        path = tmp_path / "counts.jsonl"
        CountCache(path).put(K4, 3, count)
        assert json.loads(path.read_text())["count"] == digits
        assert CountCache(path).get(K4, 3) == count

    def test_identical_puts_do_not_grow_the_file(self, tmp_path):
        path = tmp_path / "counts.jsonl"
        cache = CountCache(path)
        cache.put(K4, 3, 279)
        size = path.stat().st_size
        cache.put(K4, 3, 279)
        assert path.stat().st_size == size

    def test_search_reuses_cached_counts(self, tmp_path):
        path = tmp_path / "counts.jsonl"
        first = extremal_search(4, 4, cache=CountCache(path))
        lines = len(path.read_text().splitlines())
        assert lines == len(first.rows)
        second = extremal_search(4, 4, cache=CountCache(path))
        assert first == second
        assert len(path.read_text().splitlines()) == lines

    def test_a_table_cut_short_keeps_its_counted_rows(self, tmp_path):
        path = tmp_path / "counts.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ResourceLimitError) as info:
                extremal_search(5, 3, node_budget=5, cache=CountCache(path))
            counted = {row.g6: row.count for row in info.value.partial.rows
                       if row.count is not None}
            del info
            cache = CountCache(path)
            assert {g6: cache.get(g6, 3) for g6 in counted} == counted
            with cache:
                cache.put(K4, 4, 1)
                # each line is flushed, so a run killed here keeps the row
                assert CountCache(path).get(K4, 4) == 1
            cache.put(K4, 5, 1)
            del cache
            gc.collect()
        assert 0 < len(counted) < 34
        assert len(path.read_text().splitlines()) == len(counted) + 2
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_poisoned_cache_value_is_trusted(self, tmp_path):
        # the cache is an authority by design: a poisoned entry changes results
        path = tmp_path / "counts.jsonl"
        cache = CountCache(path)
        cache.put(graph6_encode(complete(3)), 3, 999999)
        table = extremal_search(3, 3, cache=cache)
        assert table.max_count == 999999


class TestComparisons:
    def test_small_complete_graph_wins(self):
        cmp = compare_known(6, 3)
        assert cmp == KnownComparison(6, 3, 210987, 19683, "complete")

    def test_bipartite_wins_with_many_colors(self):
        cmp = compare_known(5, 10)
        assert cmp.count_complete == 942400
        assert cmp.count_bipartite == 10**6
        assert cmp.winner == "bipartite"

    def test_degenerate_tie(self):
        assert compare_known(2, 3).winner == "tie"

    def test_crossovers(self):
        # K_n's lead over K_{n/2,n/2} ends first at n = 8 for r = 4 and at
        # n = 7 for r = 5, and still holds at n = 12 for r = 3
        def first_bipartite_win(r):
            return next(n for n in range(2, 40) if compare_known(n, r).winner == "bipartite")

        assert compare_known(8, 4) == KnownComparison(
            8, 4, 4_274_432_896, 4_294_967_296, "bipartite")
        assert first_bipartite_win(4) == 8
        assert first_bipartite_win(5) == 7
        assert compare_known(12, 3) == KnownComparison(
            12, 3, 230_278_743_809_297_386_119, 3**36, "complete")
        assert all(compare_known(n, 3).winner == "complete" for n in range(3, 13))

    def test_counts_match_direct_evaluation(self):
        for n, r in [(4, 3), (5, 4), (6, 3)]:
            cmp = compare_known(n, r)
            assert cmp.count_complete == count_gallai(complete(n), r)
            a, b = n // 2, n - n // 2
            assert cmp.count_bipartite == count_gallai(complete_bipartite(a, b), r)


class TestCsvExport:
    def test_full_table(self, tmp_path):
        table = extremal_search(3, 3)
        out = tmp_path / "table.csv"
        export_csv(table, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "g6,edges,count"
        assert len(lines) == 5
        assert lines[-1].startswith("Bw,3,21")

    def test_counts_past_the_int_digit_limit(self, tmp_path):
        count = 7**6000
        table = ExtremalTable(3, 7, (ExtremalRow("Bw", 3, count),), ("Bw",), True)
        out = tmp_path / "table.csv"
        export_csv(table, out)
        assert out.read_text().splitlines()[1] == f"Bw,3,{decimal.Decimal(count)}"

    def test_partial_table_leaves_blank_counts(self, tmp_path):
        with pytest.raises(ResourceLimitError) as info:
            extremal_search(5, 3, node_budget=50)
        out = tmp_path / "partial.csv"
        export_csv(info.value.partial, out)
        rows = out.read_text().splitlines()[1:]
        assert any(row.endswith(",") for row in rows)


class TestEdgeRemovalBound:
    def test_count_at_most_r_times_subgraph_count(self):
        rng = random.Random(103)
        for _ in range(15):
            g = random_graph(rng, 6)
            if not g.edge_count:
                continue
            u, v = g.edges()[rng.randrange(g.edge_count)]
            sub = g.without_edge(u, v)
            for r in (3, 4):
                assert count_gallai(g, r) <= r * count_gallai(sub, r)
