import decimal
import json
import os
import subprocess
import sys
import time
from math import comb, isfinite, log2
from pathlib import Path

import pytest

import gallai
from gallai.cli import build_parser, load_config, main
from gallai.counting import EXACT_BOUNDS_LIMIT
from gallai.errors import InvalidInputError
from gallai.graphs import Graph, edge_index
from gallai.templates import Template, pair_template, template_to_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert list(payload) == sorted(payload)
    return payload


@pytest.fixture
def full_template_file(tmp_path):
    path = tmp_path / "full43.tpl"
    lines = ["4 3"] + [f"{u} {v} 111" for u in range(4) for v in range(u + 1, 4)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def star_template_file(tmp_path):
    g = Graph.from_edges(10, [(0, i) for i in range(1, 10)])
    masks = [0] * comb(10, 2)
    for u, v in g.edges():
        masks[edge_index(10, u, v)] = 0b011
    path = tmp_path / "star.tpl"
    path.write_text(template_to_text(Template(10, 3, tuple(masks))))
    return str(path)


class TestCount:
    def test_pruned(self, capsys):
        assert run_json(capsys, "count", "K5", "--r", "3") == {
            "count": "6129", "edges": 10, "graph": "D~{",
            "method": "pruned", "n": 5, "r": 3}

    def test_naive_flag_changes_method_not_count(self, capsys):
        payload = run_json(capsys, "count", "K5", "--r", "3", "--naive")
        assert payload["method"] == "naive"
        assert payload["count"] == "6129"

    def test_graph6_input(self, capsys):
        payload = run_json(capsys, "count", "DFw", "--r", "10")
        assert payload["count"] == str(10**6)

    def test_bad_r_is_usage_error(self, capsys):
        code, out, err = run(capsys, "count", "K5", "--r", "0")
        assert code == 2
        assert not out
        assert "error" in err

    def test_unparseable_graph(self, capsys):
        code, out, err = run(capsys, "count", "Zork", "--r", "3")
        assert code == 4
        assert "parse error" in err

    @pytest.mark.parametrize("name, message", [
        ("K0", "complete graph needs n >= 1"),
        ("K2,0", "complete bipartite graph needs both sides nonempty"),
        ("C2", "cycle needs n >= 3"),
    ])
    def test_bad_family_size_is_usage_error(self, capsys, name, message):
        code, out, err = run(capsys, "count", name, "--r", "3")
        assert (code, out) == (2, "")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, count", [("D~{", "6129"), ("C~", "279")])
    def test_graph6_names_still_parse(self, capsys, name, count):
        assert run_json(capsys, "count", name, "--r", "3")["count"] == count

    def test_budget_exhaustion(self, capsys):
        code, out, err = run(capsys, "count", "K5", "--r", "3", "--naive",
                             "--node-budget", "10")
        assert code == 3
        assert "exceed the node budget 10" in err

    def test_component_too_deep_for_the_search_exits_3(self, capsys):
        # K70's 2415 edges form one component, deeper than the recursion limit
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "K70", "--r", "3")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert not out
        assert "depth" in err
        assert "Traceback" not in err


class TestExtremal:
    def test_table_payload(self, capsys):
        payload = run_json(capsys, "extremal", "--n", "4", "--r", "3")
        assert payload["authoritative"] is True
        assert payload["max_count"] == "279"
        assert payload["argmax"] == ["C~"]
        assert len(payload["rows"]) == 11
        assert payload["rows"][0] == {"count": "1", "edges": 0, "g6": "C?"}

    def test_csv_side_output(self, capsys, tmp_path):
        out_csv = tmp_path / "t.csv"
        run_json(capsys, "extremal", "--n", "3", "--r", "3", "--csv", str(out_csv))
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "g6,edges,count"
        assert len(lines) == 5

    def test_budget_exhaustion_prints_partial_table(self, capsys):
        code, out, err = run(capsys, "extremal", "--n", "5", "--r", "3",
                             "--node-budget", "50")
        assert code == 3
        payload = json.loads(out)
        assert payload["authoritative"] is False
        assert payload["argmax"] == []
        assert any(row["count"] is None for row in payload["rows"])

    def test_csv_after_a_budget_cutoff_keeps_the_partial_table(self, capsys, tmp_path):
        out_csv = tmp_path / "partial.csv"
        code, out, err = run(capsys, "--node-budget", "50", "extremal", "--n", "5",
                             "--r", "3", "--csv", str(out_csv))
        assert code == 3
        rows = json.loads(out)["rows"]
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "g6,edges,count"
        assert len(lines) == 1 + len(rows) == 35
        assert any(line.endswith(",") for line in lines[1:])
        assert lines[1:] == [f"{row['g6']},{row['edges']},{row['count'] or ''}"
                             for row in rows]

    def test_undecodable_cache_line_is_skipped(self, capsys, tmp_path):
        plain = run_json(capsys, "extremal", "--n", "3", "--r", "3")
        cache = tmp_path / "bad.jsonl"
        # one line that is not UTF-8, one valid line the table must use
        cache.write_bytes(b'\xff\n{"g6": "Bw", "r": 3, "count": "21"}\n')
        with pytest.warns(UserWarning, match="corrupt cache line 1"):
            payload = run_json(capsys, "--cache", str(cache), "extremal", "--n", "3", "--r", "3")
        assert payload == plain

    def test_gate_is_a_budget_error(self, capsys):
        code, out, err = run(capsys, "extremal", "--n", "7", "--r", "3",
                             "--node-budget", "10000")
        assert code == 3
        assert "budget" in err
        payload = json.loads(out)
        assert payload["authoritative"] is False
        assert len(payload["rows"]) == 1044
        assert any(row["count"] is None for row in payload["rows"])

    def test_too_many_vertices_to_enumerate_exits_3_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "extremal", "--n", "8", "--r", "3")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "n=8 > 7" in err
        assert "Traceback" not in err


class TestTemplateCommands:
    def test_rt(self, capsys, full_template_file):
        assert run_json(capsys, "template", "rt", full_template_file) == {
            "n": 4, "r": 3, "rt": 24}

    def test_classify(self, capsys, full_template_file):
        payload = run_json(capsys, "template", "classify", full_template_file,
                           "--mode", "complete")
        assert payload == {
            "counts": {"T1": 0, "T2": 4, "T3": 0, "T4": 0, "T5": 0},
            "mode": "complete", "total": 4}

    def test_count_ga_defaults_to_complete_graph(self, capsys, full_template_file):
        assert run_json(capsys, "template", "count-ga", full_template_file) == {
            "count": "279", "graph": "C~", "n": 4, "r": 3}

    def test_count_ga_with_explicit_graph(self, capsys, full_template_file):
        payload = run_json(capsys, "template", "count-ga", full_template_file,
                           "--graph", "C4")
        assert payload["count"] == str(3**4)

    def test_count_ga_budget_exhaustion_exits_3(self, capsys, full_template_file):
        code, out, err = run(capsys, "--node-budget", "1", "template", "count-ga",
                             full_template_file)
        assert code == 3
        assert not out
        assert "budget exhausted" in err
        assert "Traceback" not in err

    def test_malformed_template_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.tpl"
        bad.write_text("3 3\n0 1 111\n")
        code, out, err = run(capsys, "template", "rt", str(bad))
        assert code == 4
        assert "parse error" in err

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "template", "rt", "/nonexistent/x.tpl")
        assert code == 2


class TestFileErrors:
    # both files decode as Latin-1 into a valid template and config, so only
    # strict UTF-8 decoding rejects them
    @pytest.mark.parametrize("argv, expected", [
        (("extremal", "--n", "3", "--r", "3", "--csv", "{dir}"), 2),
        (("--cache", "{dir}", "extremal", "--n", "3", "--r", "3"), 2),
        (("--config", "{dir}", "count", "K3", "--r", "3"), 2),
        (("template", "rt", "{dir}"), 2),
        (("template", "rt", "{tpl}"), 4),
        (("--config", "{cfg}", "count", "K3", "--r", "3"), 2),
    ])
    def test_documented_exit_code(self, capsys, tmp_path, argv, expected):
        tpl, cfg = tmp_path / "latin1.tpl", tmp_path / "latin1.cfg"
        tpl.write_bytes(b"# caf\xe9\n3 3\n0 1 111\n0 2 111\n1 2 111\n")
        cfg.write_bytes(b"# caf\xe9\nnode_budget = 10\n")
        code, out, err = run(capsys, *(a.format(dir=tmp_path, tpl=tpl, cfg=cfg) for a in argv))
        assert (code, out) == (expected, "")
        assert err.startswith("parse error:" if expected == 4 else "error:")


class TestHypergraph:
    def test_stats_measured_within_build_limits(self, capsys):
        assert run_json(capsys, "hypergraph", "stats", "--n", "5", "--r", "3") == {
            "d": 6, "delta2": 1, "delta3": 1, "e": 60,
            "measured": True, "n": 5, "r": 3, "v": 30}

    def test_stats_fall_back_to_closed_forms(self, capsys):
        payload = run_json(capsys, "hypergraph", "stats", "--n", "11", "--r", "3")
        assert payload["measured"] is False
        assert payload["v"] == 3 * comb(11, 2)

    def test_audit(self, capsys):
        payload = run_json(capsys, "hypergraph", "audit", "--n", "10", "--r", "3",
                           "--tau", "0.5")
        assert payload["tau_ok"] is False
        assert payload["delta_ok"] is False
        assert payload["min_n_estimate"] == 470184984576000000
        assert payload["codegree"] == pytest.approx(1.0)

    def test_audit_with_out_of_range_tau_reports_null(self, capsys):
        payload = run_json(capsys, "hypergraph", "audit", "--n", "10", "--r", "3",
                           "--tau", "1.5")
        assert payload["codegree"] is None


class TestStability:
    def test_monoedge(self, capsys, tmp_path):
        tpl = tmp_path / "red5.tpl"
        rows = ["5 3"]
        for u in range(5):
            for v in range(u + 1, 5):
                mask = "010"
                if (u, v) == (0, 1):
                    mask = "001"
                if (u, v) == (1, 4):
                    mask = "100"
                rows.append(f"{u} {v} {mask}")
        tpl.write_text("\n".join(rows) + "\n")
        payload = run_json(capsys, "stability", "monoedge", "--graph", "K5",
                           "--template", str(tpl), "--eps", "0.4")
        assert payload == {
            "color": 2, "conclusion_ok": True, "deficit": 2,
            "eps_feasible": False, "hypothesis_ok": False, "mono_triangles": 5}

    def test_monoedge_rejects_non_coloring_template(self, capsys, full_template_file):
        code, out, err = run(capsys, "stability", "monoedge", "--graph", "K4",
                             "--template", full_template_file)
        assert code == 2

    def test_monoedge_graph_larger_than_template(self, capsys, tmp_path):
        tpl = tmp_path / "mono3.tpl"
        tpl.write_text("3 3\n0 1 100\n0 2 100\n1 2 100\n")
        code, out, err = run(capsys, "stability", "monoedge", "--graph", "K4",
                             "--template", str(tpl))
        assert (code, out) == (2, "")
        assert err == "error: graph order exceeds template order\n"

    def test_monoedge_malformed_eps_is_usage_error(self, capsys, tmp_path):
        tpl = tmp_path / "mono4.tpl"
        tpl.write_text("4 3\n" + "".join(f"{u} {v} 100\n"
                                        for u in range(4) for v in range(u + 1, 4)))
        for eps in ("abc", "1/0"):
            code, out, err = run(capsys, "stability", "monoedge", "--graph", "K4",
                                 "--template", str(tpl), "--eps", eps)
            assert (code, out) == (2, "")
            assert "error:" in err

    def test_dichotomy(self, capsys):
        payload = run_json(capsys, "stability", "dichotomy", "--graph", "C5",
                           "--alpha", "1e-6")
        assert payload["outcome"] == "neither"
        assert payload["book"] is None
        assert payload["details"]["booksize"] == 0

    def test_books(self, capsys):
        payload = run_json(capsys, "stability", "books", "--graph", "K5",
                           "--threshold", "3")
        assert payload == {
            "books": [{"base": [0, 1], "pages": [2, 3, 4]},
                      {"base": [2, 3], "pages": [0, 1, 4]}],
            "removed_bases": [[0, 1], [2, 3]],
            "residual_edges": 8}

    def test_peel(self, capsys, star_template_file):
        payload = run_json(capsys, "stability", "peel", "--graph", "K1,9",
                           "--template", star_template_file, "--xi", "0.1")
        assert payload["residual_vertices"] == [0, 8, 9]
        assert len(payload["steps"]) == 7
        assert payload["steps"][0] == {
            "kind": "single", "order_before": 10, "vertices": [1],
            "witness": {"degree": 1, "threshold": 4.41}}

    def test_peel_malformed_xi_is_usage_error(self, capsys, star_template_file):
        for xi in ("zz", "nan"):
            code, out, err = run(capsys, "stability", "peel", "--graph", "K1,9",
                                 "--template", star_template_file, "--xi", xi)
            assert (code, out) == (2, "")
            assert "error:" in err

    def test_lowdeg(self, capsys):
        payload = run_json(capsys, "stability", "lowdeg", "--graph", "K1,9",
                           "--set", "0,1,2,3,4,5,6,7,8,9")
        assert payload == {
            "removed": [1, 2, 3, 4, 5, 6, 7, 8],
            "residual_edges": 1,
            "residual_vertices": [0, 9]}

    def test_supersat(self, capsys):
        payload = run_json(capsys, "stability", "supersat", "--graph", "K4",
                           "--k", "2", "--t", "1")
        assert payload["ok"] is True
        assert payload["t_far"] is True
        assert payload["cliques"] == 4
        assert payload["bound"] == pytest.approx(0.1098938333324051)

    def test_supersat_honours_node_budget(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "--node-budget", "10000", "stability", "supersat",
                             "--graph", "K20", "--k", "3", "--t", "1")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "budget exhausted" in err


class TestVerifyCover:
    def write_pair_family(self, directory, n):
        directory.mkdir(exist_ok=True)
        for i, j in ((1, 2), (1, 3), (2, 3)):
            path = directory / f"pair{i}{j}.tpl"
            path.write_text(template_to_text(pair_template(n, 3, i, j)))

    def test_passing_family(self, capsys, tmp_path):
        fam = tmp_path / "fam3"
        self.write_pair_family(fam, 3)
        payload = run_json(capsys, "verify-cover", str(fam), "--n", "3", "--r", "3")
        assert payload["passed"] is True
        assert payload["family_size"] == 3
        assert payload["coverage"] == {"checked": 21, "passed": True, "witness": None}

    def test_failing_family_reports_witness(self, capsys, tmp_path):
        fam = tmp_path / "fam4"
        self.write_pair_family(fam, 4)
        payload = run_json(capsys, "verify-cover", str(fam), "--n", "4", "--r", "3")
        assert payload["passed"] is False
        witness = payload["coverage"]["witness"]["coloring"]
        assert len(witness) == 6
        assert set(witness.values()) == {1, 2, 3}

    def test_witness_is_the_first_uncovered_coloring(self, capsys, tmp_path):
        fam = tmp_path / "fam4w"
        self.write_pair_family(fam, 4)
        code, out, err = run(capsys, "verify-cover", str(fam), "--n", "4", "--r", "3")
        assert code == 0
        assert out == (
            '{"coverage": {"checked": 12, "passed": false, "witness": {"coloring": '
            '{"0-1": 1, "0-2": 1, "0-3": 1, "1-2": 2, "1-3": 2, "2-3": 3}}}, '
            '"family_size": 3, "n": 4, "passed": false, "r": 3, '
            '"size_bound": {"checked": 3, "passed": true, "witness": null}, '
            '"sparsity": {"checked": 3, "passed": true, "witness": null}}\n')

    def test_node_budget_bounds_exhaustive_coverage(self, capsys, tmp_path):
        fam = tmp_path / "fam4b"
        self.write_pair_family(fam, 4)
        code, out, err = run(capsys, "--node-budget", "10", "verify-cover", str(fam),
                             "--n", "4", "--r", "3")
        assert (code, out) == (3, "")
        assert "budget exhausted" in err
        assert "Traceback" not in err

    def test_c_flag_is_not_ambiguous(self, capsys, tmp_path):
        fam = tmp_path / "fam3b"
        self.write_pair_family(fam, 3)
        payload = run_json(capsys, "verify-cover", str(fam), "--n", "3", "--r", "3",
                           "--c", "648000")
        assert payload["passed"] is True

    def test_c_defaults_to_the_cap(self, capsys, tmp_path):
        fam = tmp_path / "fam3c"
        self.write_pair_family(fam, 3)
        argv = ("verify-cover", str(fam), "--n", "3", "--r", "3")
        assert run(capsys, *argv) == run(capsys, *argv, "--c", "648000")

    def test_c_flag_sets_the_size_bound(self, capsys, tmp_path):
        # three templates at n = 3: log2(3) exceeds the size bound at c = 0.1
        # but not at c = 1
        fam = tmp_path / "fam3s"
        self.write_pair_family(fam, 3)
        argv = ("verify-cover", str(fam), "--n", "3", "--r", "3", "--c")
        assert run_json(capsys, *argv, "0.1")["size_bound"]["passed"] is False
        assert run_json(capsys, *argv, "1")["size_bound"]["passed"] is True

    def test_missing_directory(self, capsys):
        code, out, err = run(capsys, "verify-cover", "/no/such/dir",
                             "--n", "3", "--r", "3")
        assert code == 2

    def test_corrupt_member_file(self, capsys, tmp_path):
        fam = tmp_path / "famx"
        fam.mkdir()
        (fam / "broken.tpl").write_text("garbage\n")
        code, out, err = run(capsys, "verify-cover", str(fam), "--n", "3", "--r", "3")
        assert code == 4


class TestNonFiniteFloats:
    @pytest.mark.parametrize("argv", [
        ("hypergraph", "audit", "--n", "10", "--r", "3", "--tau", "nan"),
        ("hypergraph", "audit", "--n", "10", "--r", "3", "--tau", "inf"),
        ("stability", "dichotomy", "--graph", "C5", "--alpha", "nan"),
        ("stability", "dichotomy", "--graph", "C5", "--alpha", "inf"),
        ("verify-cover", ".", "--n", "3", "--r", "3", "--c", "nan"),
        ("verify-cover", ".", "--n", "3", "--r", "3", "--c", "inf"),
    ])
    def test_rejected_at_parse_time(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "error:" in err


class TestHugeIntegerFlags:
    @pytest.mark.parametrize("argv", [
        ("bounds", "--n", "5", "--r", str(10**400)),
        ("hypergraph", "audit", "--n", "5", "--r", str(10**400)),
        ("hypergraph", "audit", "--n", str(10**400), "--r", "3"),
        ("hypergraph", "audit", "--n", str(10**400), "--r", "3", "--tau", "0.5"),
    ])
    def test_floats_stay_finite(self, capsys, argv):
        payload = run_json(capsys, *argv)
        floats = [v for v in payload.values() if isinstance(v, float)]
        assert floats and all(isfinite(v) for v in floats)

    def test_bounds_past_the_float_range(self, capsys):
        payload = run_json(capsys, "bounds", "--n", "5", "--r", str(10**400))
        pairs_log2 = log2(comb(10**400, 2))
        assert payload["lower_simple_log2"] == pytest.approx(pairs_log2 + 10, rel=1e-12)
        assert payload["upper_log2"] >= payload["lower_simple_log2"]

    def test_tau_past_the_float_range_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "hypergraph", "audit", "--n", "5", "--r", str(10**1000))
        assert (code, out) == (2, "")
        assert "error: tau" in err


class TestBounds:
    def test_reference_values(self, capsys):
        payload = run_json(capsys, "bounds", "--n", "6", "--r", "3")
        assert payload["lower_two_color"] == "98301"
        assert payload["lower_simple_log2"] == pytest.approx(16.59245703726808)
        assert payload["lower_two_color_log2"] == pytest.approx(16.584918472490713)
        assert payload["upper_log2"] == pytest.approx(16.94706834833339)

    def test_counts_past_the_int_digit_limit_print_exactly(self, capsys):
        payload = run_json(capsys, "bounds", "--n", "200", "--r", "3")
        with decimal.localcontext() as ctx:
            ctx.prec = 10_000
            expected = str(decimal.Decimal(3 * 2**comb(200, 2) - 3))
        assert len(expected) > 4300
        assert payload["lower_two_color"] == expected

    def test_last_exact_n_is_unchanged(self, capsys):
        assert EXACT_BOUNDS_LIMIT == 500
        payload = run_json(capsys, "bounds", "--n", "500", "--r", "3")
        with decimal.localcontext() as ctx:
            ctx.prec = 40_000
            expected = str(decimal.Decimal(3 * 2**comb(500, 2) - 3))
        assert payload == {"lower_simple_log2": 124751.58496250072,
                           "lower_two_color": expected,
                           "lower_two_color_log2": 124751.58496250072,
                           "n": 500, "r": 3, "upper_log2": 124751.73998889004}

    @pytest.mark.parametrize("r", [2, 3, 10])
    def test_past_the_cap_every_log2_is_computed_in_log_space(self, capsys, r):
        n = EXACT_BOUNDS_LIMIT + 1
        m = comb(n, 2)
        payload = run_json(capsys, "bounds", "--n", str(n), "--r", str(r))
        assert payload["lower_two_color"] is None
        assert payload["lower_two_color_log2"] == pytest.approx(
            log2(comb(r, 2) * 2**m - r * (r - 2)), rel=1e-15)
        assert payload["lower_simple_log2"] == pytest.approx(
            log2(comb(r, 2) * 2**n + 1) - n + m, rel=1e-15)
        assert payload["upper_log2"] > payload["lower_simple_log2"]

    @pytest.mark.parametrize("n", [10**5, 10**150], ids=["1e5", "1e150"])
    def test_huge_n_prints_finite_log2_at_once(self, capsys, n):
        start = time.perf_counter()
        payload = run_json(capsys, "bounds", "--n", str(n), "--r", "3")
        assert time.perf_counter() - start < 2.0
        assert payload["lower_two_color"] is None
        floats = [v for k, v in payload.items() if k.endswith("_log2")]
        assert len(floats) == 3 and all(isfinite(v) for v in floats)
        assert payload["lower_simple_log2"] == pytest.approx(comb(n, 2) + log2(3), rel=1e-15)

    def test_n_past_the_float_range_is_a_usage_error(self, capsys):
        # log2 of 2^C(n,2) is about 5e799 here, which no float holds
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", "--n", str(10**400), "--r", "3")
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert "float range" in err


class TestParserReuse:
    def test_one_parser_serves_every_call(self, capsys, full_template_file):
        calls = [("count", "K5", "--r", "3"), ("count", "K5"),
                 ("bounds", "--n", "6", "--r", "3"),
                 ("template", "count-ga", full_template_file), ("count", "K5", "--r", "3")]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        build_parser.cache_clear()
        reused = [run(capsys, *argv) for argv in calls]
        assert build_parser.cache_info().misses == 1
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 2, 0, 0, 0]


# Runs main in a fresh interpreter, which has not imported numpy or any
# gallai module yet (this one has); prints the exit code, stdout, whether
# numpy got loaded and the gallai modules that did.
_PROBE = """
import contextlib, io, json, sys
from gallai.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "out": out.getvalue(), "numpy": "numpy" in sys.modules,
                  "modules": sorted(m for m in sys.modules if m.partition(".")[0] == "gallai")}))
"""

# what every command runs, so what ``import gallai.cli`` loads
_CORE = ("gallai", "gallai.cli", "gallai.counting", "gallai.errors", "gallai.graphs")


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(gallai.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def fresh_python(code: str, *argv: str) -> str:
    return subprocess.run([sys.executable, "-c", code, *argv], check=True, timeout=60,
                          capture_output=True, text=True, env=fresh_env()).stdout


class TestColdStart:
    """numpy loads only for the commands that use it, no record class is
    built by ``dataclasses``, the K_n tables are built on first use, and
    each command loads only the gallai modules it runs."""

    @pytest.mark.parametrize("module", ["gallai", "gallai.cli"])
    def test_import_leaves_numpy_unloaded(self, module):
        code = f"import sys, {module}; print('numpy' in sys.modules, 'dataclasses' in sys.modules)"
        assert fresh_python(code).strip() == "False False"

    def test_import_builds_no_decomposition_table(self):
        code = ("import gallai.cli, gallai.counting as c; "
                "print(c._decomposition.cache_info().currsize)")
        assert fresh_python(code).strip() == "0"

    @pytest.mark.parametrize("argv", [
        ("count", "K5", "--r", "3"),
        ("bounds", "--n", "6", "--r", "3"),
        ("hypergraph", "audit", "--n", "10", "--r", "3"),
        ("template", "count-ga", "TEMPLATE"),
    ])
    def test_commands_leave_numpy_unloaded(self, capsys, full_template_file, argv):
        argv = [full_template_file if a == "TEMPLATE" else a for a in argv]
        probe = json.loads(fresh_python(_PROBE, *argv))
        del probe["modules"]
        assert probe == {"code": 0, "out": run(capsys, *argv)[1], "numpy": False}

    def test_extremal_loads_numpy_and_prints_the_same_table(self, capsys):
        argv = ["extremal", "--n", "4", "--r", "3"]
        probe = json.loads(fresh_python(_PROBE, *argv))
        del probe["modules"]
        assert probe == {"code": 0, "out": run(capsys, *argv)[1], "numpy": True}
        assert json.loads(probe["out"])["max_count"] == "279"

    @pytest.mark.parametrize("module, loaded", [("gallai", ["gallai"]), ("gallai.cli", _CORE)])
    def test_import_loads_no_module_beyond_the_core(self, module, loaded):
        code = (f"import json, sys, {module}; print(json.dumps(sorted(m for m in sys.modules "
                "if m.partition('.')[0] in ('gallai', 'fractions', 'decimal'))))")
        assert json.loads(fresh_python(code)) == list(loaded)

    @pytest.mark.parametrize("argv, extra", [
        (("count", "K5", "--r", "3"), ()),
        (("bounds", "--n", "6", "--r", "3"), ()),
        (("extremal", "--n", "4", "--r", "3"), ("extremal",)),
        (("template", "rt", "TEMPLATE"), ("templates",)),
        (("template", "count-ga", "TEMPLATE"), ("templates",)),
        (("verify-cover", "DIR", "--n", "4", "--r", "3"), ("containers", "templates")),
        (("hypergraph", "audit", "--n", "10", "--r", "3"), ("containers", "templates")),
        (("stability", "books", "--graph", "K5"), ("stability", "templates")),
    ])
    def test_each_command_loads_only_its_modules(self, capsys, full_template_file, argv,
                                                 extra):
        where = {"TEMPLATE": full_template_file, "DIR": str(Path(full_template_file).parent)}
        argv = [where.get(a, a) for a in argv]
        probe = json.loads(fresh_python(_PROBE, *argv))
        assert (probe["code"], probe["out"]) == run(capsys, *argv)[:2]
        assert probe["code"] == 0
        assert probe["modules"] == sorted([*_CORE, *(f"gallai.{m}" for m in extra)])


# gallai.__all__ as the package exported it when it imported every module eagerly
_EXPORTED = {
    "AsymptoticBounds", "Coloring", "GallaiError", "Graph", "InvalidInputError",
    "InvalidParameterError", "ParseError", "ResourceLimitError", "Template", "TriangleTally",
    "all_graphs", "asymptotic_bounds", "book", "book_gallai_count", "booksize",
    "booksize_edge", "canonical_form", "canonical_graph", "classify_triangles", "complete",
    "complete_bipartite", "count_cliques", "count_complete", "count_ga", "count_gallai",
    "count_gallai_naive", "count_gallai_with_palettes", "counting", "cycle", "errors",
    "format_edge_list", "from_coloring", "full_template", "gallai_colorings",
    "graph6_decode", "graph6_encode", "graph_from_name", "graphs", "is_gallai",
    "is_gallai_template", "is_subtemplate", "lovasz_triangle_bound", "lower_bound_two_color",
    "max_k_partite_edges", "max_matching_size", "pair_template", "parse_edge_list",
    "product_log_bound", "r_edges", "red_once_count", "rt_count", "rt_through_edge",
    "s_deviation", "t_far", "template_from_text", "template_to_text", "templates", "weight",
}


class TestPackageExports:
    """The package's names resolve on first use to the objects their
    modules define, and none of them went missing."""

    def test_names_are_unchanged(self):
        assert sorted(gallai.__all__) == sorted(_EXPORTED)
        assert set(dir(gallai)) >= _EXPORTED

    def test_each_name_is_its_modules_object(self):
        code = """
import json, sys, gallai
wrong = []
for name in gallai.__all__:
    value = getattr(gallai, name)
    if isinstance(value, type(sys)):
        home = value is sys.modules["gallai." + name]
    else:
        module = value.__module__
        home = module.startswith("gallai.") and getattr(sys.modules[module], name) is value
    if not home or gallai.__dict__[name] is not value:
        wrong.append(name)
print(json.dumps(wrong))
"""
        assert json.loads(fresh_python(code)) == []

    def test_star_import_binds_every_name(self):
        code = ("import json, gallai; from gallai import *; "
                "print(json.dumps(sorted(n for n in gallai.__all__ "
                "if globals().get(n) is not getattr(gallai, n))))")
        assert json.loads(fresh_python(code)) == []

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'gallai' has no attribute 'no_such'"):
            gallai.no_such  # noqa: B018

    def test_submodules_import_from_the_package(self):
        names = ["cli", "containers", "counting", "extremal", "graphs", "stability", "templates"]
        code = (f"from gallai import {', '.join(names)}; "
                f"print(*(m.__name__ for m in ({', '.join(names)})))")
        assert fresh_python(code).split() == [f"gallai.{name}" for name in names]


class TestClosedStdout:
    """A reader that closes stdout early ends the run quietly, with the
    exit code the run had earned."""

    @pytest.mark.parametrize("argv, expected", [
        (("count", "K3", "--r", "3"), 0),
        (("--node-budget", "50", "extremal", "--n", "5", "--r", "3"), 3),
    ])
    def test_closed_pipe_keeps_the_exit_code(self, argv, expected):
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the run starts, so every write fails
        try:
            proc = subprocess.run([sys.executable, "-m", "gallai.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  timeout=60, env=fresh_env())
        finally:
            os.close(write_end)
        assert proc.returncode == expected, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr


class TestSettings:
    """Flags and config lines share one value check per setting."""

    @pytest.mark.parametrize("flag", ["--node-budget", "--sample-size"])
    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_flag_needs_a_positive_integer(self, capsys, flag, value):
        for argv in ((flag, value, "count", "K3", "--r", "3"),
                     ("count", "K3", "--r", "3", flag, value)):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert f"argument {flag}: expected a positive integer" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["node_budget", "sample_size"])
    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_config_value_needs_a_positive_integer(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# budgets\n\n{key} = {value}\n")
        code, out, err = run(capsys, "--config", str(cfg), "count", "K3", "--r", "3")
        assert (code, out) == (2, "")
        assert f"config line 3: {key}: expected a positive integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--leaf-budget", "--container-c"])
    def test_removed_flags_are_unknown(self, capsys, flag):
        # before the subcommand too, the flag is named, not its value
        for argv in ((flag, "10", "count", "K3", "--r", "3"),
                     (f"{flag}=10", "count", "K3", "--r", "3"),
                     ("--node-budget", "5", flag, "10", "count", "K3", "--r", "3"),
                     ("count", "K3", "--r", "3", flag, "10")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert f"error: unrecognized arguments: {flag}" in err
            assert "invalid choice" not in err
            assert "Traceback" not in err

    def test_global_flags_before_the_subcommand_still_parse(self, capsys):
        for argv in (("--node-budget", "100", "count", "K3", "--r", "3"),
                     ("--node-budget=100", "--sample-size", "5", "count", "K3", "--r", "3")):
            assert run_json(capsys, *argv)["count"] == "21"
        code, out, err = run(capsys, "K3", "count")
        assert (code, out) == (2, "")
        assert "invalid choice: 'K3'" in err

    def test_one_node_budget_bounds_the_sweep_and_the_cover(self, capsys, tmp_path):
        fam = tmp_path / "fam4"
        fam.mkdir()
        (fam / "full.tpl").write_text(template_to_text(Template(4, 3, (0b111,) * 6)))
        for argv in (("count", "K5", "--r", "3", "--naive"),
                     ("verify-cover", str(fam), "--n", "4", "--r", "3")):
            assert run_json(capsys, *argv)
            code, out, err = run(capsys, "--node-budget", "10", *argv)
            assert (code, out) == (3, "")
            assert "colorings exceed the node budget 10" in err


class TestConfig:
    def test_file_values_apply(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# tuning\nnode_budget = 10\n")
        code, out, err = run(capsys, "--config", str(cfg),
                             "count", "K5", "--r", "3", "--naive")
        assert code == 3

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("node_budget = 10\n")
        payload = run_json(capsys, "--config", str(cfg), "count", "K5", "--r", "3",
                           "--naive", "--node-budget", "100000000")
        assert payload["count"] == "6129"

    def test_node_budget_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("node_budget = 1\n")
        code, out, err = run(capsys, "--config", str(cfg), "count", "K5", "--r", "3")
        assert (code, out) == (3, "")
        payload = run_json(capsys, "--config", str(cfg), "--node-budget", "1000000000",
                           "count", "K5", "--r", "3")
        assert payload["count"] == "6129"

    def test_cache_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"cache_path = {tmp_path / 'from-config.jsonl'}\n")
        run_json(capsys, "--config", str(cfg), "extremal", "--n", "3", "--r", "3",
                 "--cache", str(tmp_path / "from-flag.jsonl"))
        assert [p.name for p in tmp_path.glob("*.jsonl")] == ["from-flag.jsonl"]
        run_json(capsys, "--config", str(cfg), "extremal", "--n", "3", "--r", "3")
        assert (tmp_path / "from-config.jsonl").is_file()

    def test_sample_size_flag_overrides_config(self, capsys, tmp_path):
        fam = tmp_path / "fam5"
        fam.mkdir()
        (fam / "full.tpl").write_text(template_to_text(Template(5, 3, (0b111,) * 10)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sample_size = 5\n")
        argv = ("--config", str(cfg), "verify-cover", str(fam), "--n", "5", "--r", "3")
        assert run_json(capsys, *argv)["coverage"]["checked"] == 5
        assert run_json(capsys, *argv, "--sample-size", "7")["coverage"]["checked"] == 7

    def test_global_flags_accepted_after_subcommand(self, capsys):
        code, out, err = run(capsys, "count", "K5", "--r", "3", "--naive",
                             "--node-budget", "10")
        assert code == 3
        code2, out2, err2 = run(capsys, "--node-budget", "10",
                                "count", "K5", "--r", "3", "--naive")
        assert code2 == 3

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_speed = 9\n")
        with pytest.raises(InvalidInputError):
            load_config(str(cfg))

    def test_unknown_key_exits_with_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_speed = 9\n")
        code, out, err = run(capsys, "--config", str(cfg), "count", "K5", "--r", "3")
        assert code == 2

    def test_order_overrides_parsed(self, tmp_path):
        cfg = tmp_path / "n0.cfg"
        cfg.write_text("sample_size = 77\n")
        assert load_config(str(cfg)).sample_size == 77
        cfg.write_text("n0_dense = 4096\nsample_size = 77\n")
        with pytest.raises(InvalidInputError, match="unknown config key 'n0_dense'"):
            load_config(str(cfg))

    def test_non_finite_container_c_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("container_c = nan\n")
        with pytest.raises(InvalidInputError):
            load_config(str(cfg))
        code, out, err = run(capsys, "--config", str(cfg),
                             "hypergraph", "audit", "--n", "10", "--r", "3")
        assert (code, out) == (2, "")
        assert "error:" in err

    @pytest.mark.parametrize("key", ["leaf_budget", "container_c"])
    def test_removed_keys_are_unknown(self, capsys, tmp_path, key):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"# before\n{key} = 10\n")
        code, out, err = run(capsys, "--config", str(cfg),
                             "hypergraph", "audit", "--n", "10", "--r", "3")
        assert (code, out) == (2, "")
        assert err == f"error: unknown config key {key!r} on line 2\n"

    def test_missing_config_file(self, capsys):
        code, out, err = run(capsys, "--config", "/no/such.cfg",
                             "count", "K5", "--r", "3")
        assert code == 2


class TestGlobalFlagPlacement:
    """One settings parser takes the global flags out of argv wherever they
    stand; the rest goes to the subcommand."""

    def test_between_a_positional_and_the_options(self, capsys):
        code, out, err = run(capsys, "count", "K5", "--node-budget", "10", "--r", "3", "--naive")
        assert (code, out) == (3, "")
        assert "exceed the node budget 10" in err

    def test_config_after_the_subcommand(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("node_budget = 10\n")
        argv = ("count", "K5", "--r", "3", "--naive", "--config", str(cfg))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "exceed the node budget 10" in err
        assert run_json(capsys, *argv, "--node-budget", "100000")["count"] == "6129"

    def test_flag_equals_value_after_the_subcommand(self, capsys):
        code, out, err = run(capsys, "count", "K5", "--r", "3", "--naive", "--node-budget=10")
        assert (code, out) == (3, "")
        assert "exceed the node budget 10" in err

    def test_the_later_of_two_copies_wins(self, capsys):
        argv = ("count", "K5", "--r", "3", "--naive")
        assert run_json(capsys, "--node-budget", "10", *argv,
                        "--node-budget", "100000")["count"] == "6129"
        code, out, err = run(capsys, "--node-budget", "100000", *argv, "--node-budget", "10")
        assert (code, out) == (3, "")

    def test_root_help_lists_every_global_flag(self, capsys):
        code, out, err = run(capsys, "-h")
        assert code == 0
        for flag in ("--config", "--node-budget", "--cache", "--sample-size"):
            assert flag in out


class TestHugeIntegers:
    """Integers past the interpreter's 4300-digit str() limit end in an exit
    code, never a traceback."""

    @pytest.mark.parametrize("graph", ["K3", "K150"])
    def test_naive_sweep_at_a_huge_r_is_refused_at_once(self, capsys, graph):
        start = time.perf_counter()
        code, out, err = run(capsys, "count", graph, "--r", str(10**2000), "--naive")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "colorings exceed the node budget" in err

    def test_exhaustive_cover_at_a_huge_r_is_refused(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify-cover", str(tmp_path), "--n", "4",
                             "--r", str(10**2000))
        assert (code, out) == (3, "")
        assert "colorings exceed the node budget" in err

    def test_counts_past_the_limit_round_trip_through_csv_and_cache(self, capsys, tmp_path):
        r = 10**2200
        csv, cache = tmp_path / "table.csv", tmp_path / "counts.jsonl"
        argv = ("extremal", "--n", "3", "--r", str(r), "--cache", str(cache))
        payload = run_json(capsys, *argv, "--csv", str(csv))
        top = 3 * r**2 - 2 * r  # K3: r^3 minus its r(r-1)(r-2) rainbow colorings
        assert payload["max_count"] == str(decimal.Decimal(top))
        assert len(payload["max_count"]) > 4300
        assert csv.read_text().splitlines()[-1] == f"Bw,3,{payload['max_count']}"
        written = cache.read_bytes()
        assert run_json(capsys, *argv) == payload
        assert cache.read_bytes() == written

    @pytest.mark.parametrize("name", [
        "K10000000000000000000000", "K2,100000000000000000000", "K1,100000000000000000000",
        "C10000000000000000000000", "B10000000000000000000000"])
    @pytest.mark.parametrize("command", ["count", "count-ga"])
    def test_huge_family_names_are_refused_before_they_are_built(
            self, capsys, full_template_file, name, command):
        argv = (("count", name, "--r", "3") if command == "count" else
                ("template", "count-ga", full_template_file, "--graph", name))
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "vertices, too many to build" in err

    def test_supersat_bound_past_the_float_range(self, capsys):
        code, out, err = run(capsys, "stability", "supersat", "--graph", "K4", "--k", "2",
                             "--t", str(10**3000))
        assert (code, out) == (2, "")
        assert "error: k and t are too large" in err

    def test_hypergraph_stats_with_an_unprintable_edge_count(self, capsys):
        code, out, err = run(capsys, "hypergraph", "stats", "--n", str(10**3000), "--r", "3")
        assert (code, out) == (2, "")
        assert "error: n and r are too large" in err
