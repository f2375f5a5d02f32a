import json
from math import comb

import pytest

from gallai.cli import load_config, main
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

    def test_budget_exhaustion(self, capsys):
        code, out, err = run(capsys, "count", "K5", "--r", "3", "--naive",
                             "--leaf-budget", "10")
        assert code == 3
        assert "budget" in err


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

    def test_gate_is_a_budget_error(self, capsys):
        code, out, err = run(capsys, "extremal", "--n", "7", "--r", "3")
        assert code == 3


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

    def test_malformed_template_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.tpl"
        bad.write_text("3 3\n0 1 111\n")
        code, out, err = run(capsys, "template", "rt", str(bad))
        assert code == 4
        assert "parse error" in err

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "template", "rt", "/nonexistent/x.tpl")
        assert code == 2


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

    def test_c_flag_is_not_ambiguous(self, capsys, tmp_path):
        fam = tmp_path / "fam3b"
        self.write_pair_family(fam, 3)
        payload = run_json(capsys, "verify-cover", str(fam), "--n", "3", "--r", "3",
                           "--c", "648000")
        assert payload["passed"] is True

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
        ("--container-c", "inf", "hypergraph", "audit", "--n", "10", "--r", "3"),
    ])
    def test_rejected_at_parse_time(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "error:" in err


class TestBounds:
    def test_reference_values(self, capsys):
        payload = run_json(capsys, "bounds", "--n", "6", "--r", "3")
        assert payload["lower_two_color"] == "98301"
        assert payload["lower_simple_log2"] == pytest.approx(16.59245703726808)
        assert payload["lower_two_color_log2"] == pytest.approx(16.584918472490713)
        assert payload["upper_log2"] == pytest.approx(16.94706834833339)


class TestConfig:
    def test_file_values_apply(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# tuning\nleaf_budget = 10\n")
        code, out, err = run(capsys, "--config", str(cfg),
                             "count", "K5", "--r", "3", "--naive")
        assert code == 3

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("leaf_budget = 10\n")
        payload = run_json(capsys, "--config", str(cfg), "count", "K5", "--r", "3",
                           "--naive", "--leaf-budget", "100000000")
        assert payload["count"] == "6129"

    def test_global_flags_accepted_after_subcommand(self, capsys):
        code, out, err = run(capsys, "count", "K5", "--r", "3", "--naive",
                             "--leaf-budget", "10")
        assert code == 3
        code2, out2, err2 = run(capsys, "--leaf-budget", "10",
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

    def test_missing_config_file(self, capsys):
        code, out, err = run(capsys, "--config", "/no/such.cfg",
                             "count", "K5", "--r", "3")
        assert code == 2
