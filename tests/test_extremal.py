import json
import random

import pytest

from conftest import random_graph
from gallai.counting import count_gallai, count_gallai_naive
from gallai.errors import InvalidParameterError, ResourceLimitError
from gallai.extremal import (
    CountCache,
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
    graph6_encode,
)

K4 = graph6_encode(complete(4))


class TestSearch:
    def test_triangle_wins_on_three_vertices(self):
        table = extremal_search(3, 3)
        assert table.authoritative
        assert len(table.rows) == 4
        assert table.max_count == 21
        assert table.argmax == (canonical_form(complete(3)),)
        assert table.argmax_g6 == ("Bw",)

    def test_rows_cover_all_classes_sorted_by_canonical_form(self):
        table = extremal_search(4, 3)
        assert [row.canonical for row in table.rows] == sorted(
            canonical_form(g) for _, g in all_graphs(4))
        assert table.max_count == 279

    def test_every_row_count_matches_the_scan_oracle(self):
        table = extremal_search(4, 3)
        for (_, g), row in zip(all_graphs(4), table.rows):
            assert row.count == count_gallai_naive(g, 3)
            assert row.edges == g.edge_count

    def test_unique_bipartite_winner_at_ten_colors(self):
        table = extremal_search(5, 10)
        assert table.authoritative
        assert table.max_count == 10**6
        assert len(table.argmax) == 1
        assert table.argmax[0] == canonical_form(complete_bipartite(2, 3))
        assert table.argmax_g6 == ("DFw",)

    def test_order_gates(self):
        with pytest.raises(ResourceLimitError):
            extremal_search(7, 3)
        with pytest.raises(ResourceLimitError):
            extremal_search(6, 5)
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
        with open(path, "a") as fh:
            fh.write("not json\n")
            fh.write(json.dumps({"g6": "C~"}) + "\n")
        cache = CountCache(path)
        with pytest.warns(UserWarning):
            assert cache.get(K4, 3) == 279

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
        lines = sum(1 for _ in open(path))
        assert lines == len(first.rows)
        second = extremal_search(4, 4, cache=CountCache(path))
        assert first == second
        assert sum(1 for _ in open(path)) == lines

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
