"""Experiment config parsing and the report bundle."""

import math

import pytest

import netelast as ne
from netelast.experiment import derive_seed, fmt, load_config, run_experiment
from netelast.graph import save_edge_list

from conftest import star_graph

CONFIG = """
[experiment]
output_dir = out
global_seed = 42
model = dijkstra_homogeneous
attacks = random, highest_degree, highest_betweenness
stop_fraction = 1.0
batch = 1

[topology:mesh10]
family = mesh
n = 10

[topology:star10]
path = star10.edges

[topology:gi]
family = gilbert
n = 18
p = 0.4
"""


@pytest.fixture
def config_dir(tmp_path):
    (tmp_path / "grid.ini").write_text(CONFIG)
    save_edge_list(star_graph(10), tmp_path / "star10.edges")
    return tmp_path


class TestFmt:
    def test_seven_significant_digits(self):
        assert fmt(0.31666666666) == "0.3166667"
        assert fmt(1.0) == "1"
        assert fmt(499500.0) == "499500"

    def test_nan_literal(self):
        assert fmt(math.nan) == "NaN"


class TestLoadConfig:
    def test_happy_path(self, config_dir):
        cfg = load_config(config_dir / "grid.ini")
        assert [t.name for t in cfg.topologies] == ["mesh10", "star10", "gi"]
        assert cfg.topologies[1].path == (config_dir / "star10.edges").resolve()
        assert cfg.global_seed == 42
        assert cfg.attacks == ["random", "highest_degree", "highest_betweenness"]
        assert cfg.output_dir == config_dir / "out"

    def test_generator_seed_derived_from_name(self, config_dir):
        cfg = load_config(config_dir / "grid.ini")
        assert cfg.topologies[2].spec.seed == derive_seed(42, "gi")

    def test_missing_experiment_section(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[topology:a]\nfamily = mesh\nn = 4\n")
        with pytest.raises(ne.ParseError):
            load_config(p)

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[experiment]\n[misc]\n")
        with pytest.raises(ne.ParseError):
            load_config(p)

    def test_duplicate_topology_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(
            "[experiment]\n[topology:a]\nfamily = mesh\nn = 4\n"
            "[topology:a]\nfamily = mesh\nn = 5\n"
        )
        with pytest.raises(ne.ParseError):
            load_config(p)

    def test_bad_number(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[experiment]\nstop_fraction = soon\n[topology:a]\nfamily = mesh\nn = 4\n")
        with pytest.raises(ne.ParseError):
            load_config(p)

    def test_no_topologies(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[experiment]\n")
        with pytest.raises(ne.ParseError):
            load_config(p)

    def test_bad_stop_fraction_value(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[experiment]\nstop_fraction = 1.5\n[topology:a]\nfamily = mesh\nn = 4\n")
        with pytest.raises(ne.ParameterError):
            load_config(p)


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(42, "gi") == derive_seed(42, "gi")

    def test_sensitive_to_parts(self):
        assert derive_seed(42, "gi") != derive_seed(42, "pa")
        assert derive_seed(42, "gi") != derive_seed(43, "gi")
        assert derive_seed(42, "gi", "random") != derive_seed(42, "gi")


class TestRunExperiment:
    def test_report_bundle(self, config_dir):
        report = run_experiment(load_config(config_dir / "grid.ini"))
        out = report.output_dir
        for name in ("metrics.csv", "ranking.csv", "tradeoff.csv", "correlations.csv", "run.log"):
            assert (out / name).exists()
        assert (out / "curves" / "mesh10_random.csv").exists()
        assert not report.errors

        rows = {r.name: r for r in report.rows}
        # closed-form mesh value and the single-trapezoid star value
        assert rows["mesh10"].elas_r == pytest.approx(1 / 3 - 1 / 60, abs=1e-9)
        assert rows["star10"].elas_d == pytest.approx(0.05, abs=1e-12)

    def test_re_score_recomputable_from_rows(self, config_dir):
        report = run_experiment(load_config(config_dir / "grid.ini"))
        for r in report.rows:
            expected = ne.tradeoff_re(r.elas_r, r.elas_d, r.elas_b, r.nodes, r.links)
            assert r.re_score == pytest.approx(expected, abs=1e-9)

    def test_ranking_columns_sorted_descending(self, config_dir):
        report = run_experiment(load_config(config_dir / "grid.ini"))
        lines = (report.output_dir / "ranking.csv").read_text().splitlines()[1:]
        cells = [line.split(",") for line in lines]
        for col in (1, 3, 5, 7):
            vals = [float(c[col]) for c in cells if c[col] != "NaN"]
            assert vals == sorted(vals, reverse=True)

    def test_tradeoff_sorted_by_score(self, config_dir):
        report = run_experiment(load_config(config_dir / "grid.ini"))
        lines = (report.output_dir / "tradeoff.csv").read_text().splitlines()[2:]
        scores = [float(l.split(",")[-1]) for l in lines if not l.startswith("#")]
        assert scores == sorted(scores, reverse=True)

    def test_correlations_cover_grid(self, config_dir):
        report = run_experiment(load_config(config_dir / "grid.ini"))
        assert set(report.correlations) == {
            (m, a)
            for m in ("links", "heterogeneity", "asp")
            for a in ("random", "highest_degree", "highest_betweenness")
        }

    def test_failed_cell_yields_nan_and_run_continues(self, tmp_path):
        (tmp_path / "grid.ini").write_text(
            "[experiment]\noutput_dir = out\nmodel = lp_optimization\n"
            "attacks = highest_degree\n"
            "[topology:big]\nfamily = gilbert\nn = 40\np = 0.3\n"
            "[topology:small]\nfamily = mesh\nn = 5\n"
        )
        report = run_experiment(load_config(tmp_path / "grid.ini"))
        rows = {r.name: r for r in report.rows}
        assert math.isnan(rows["big"].elas_d)
        assert rows["small"].elas_d == pytest.approx(1 / 3 - 1 / 30, abs=1e-7)
        assert "big/highest_degree" in report.errors
        ranking = (report.output_dir / "ranking.csv").read_text()
        assert "NaN" in ranking

    def test_unreadable_topology_logged(self, tmp_path):
        (tmp_path / "grid.ini").write_text(
            "[experiment]\noutput_dir = out\nattacks = random\n"
            "[topology:ghost]\npath = nowhere.edges\n"
            "[topology:ok]\nfamily = mesh\nn = 4\n"
        )
        report = run_experiment(load_config(tmp_path / "grid.ini"))
        assert "ghost" in report.errors
        assert ("ok", "random") in report.curves
        assert "ERROR" in (report.output_dir / "run.log").read_text()

    def test_workers_key_is_ignored(self, tmp_path):
        base = (
            "[experiment]\noutput_dir = {out}\nglobal_seed = 9\n{extra}"
            "attacks = random, highest_degree, highest_betweenness\n"
            "[topology:a]\nfamily = gilbert\nn = 16\np = 0.35\n"
            "[topology:b]\nfamily = mesh\nn = 8\n"
        )
        (tmp_path / "plain.ini").write_text(base.format(out="o1", extra=""))
        (tmp_path / "workers.ini").write_text(base.format(out="o2", extra="workers = 3\n"))
        r1 = run_experiment(load_config(tmp_path / "plain.ini"))
        r2 = run_experiment(load_config(tmp_path / "workers.ini"))
        for name in ("metrics.csv", "ranking.csv", "tradeoff.csv", "correlations.csv"):
            assert (r1.output_dir / name).read_text() == (r2.output_dir / name).read_text()

    def test_rejected_tradeoff_is_reported(self, tmp_path):
        # two K5 (0-4 and 5-9) joined through node 10: every elasticity is
        # above 1, so the tradeoff score is NaN
        bridge = [(4, 10), (10, 5)]
        edges = [(u, v) for k in (0, 5) for u in range(k, k + 5) for v in range(u + 1, k + 5)]
        save_edge_list(ne.Graph.from_edges(11, edges + bridge), tmp_path / "barbell.edges")
        (tmp_path / "grid.ini").write_text(
            "[experiment]\noutput_dir = out\n[topology:barbell]\npath = barbell.edges\n"
        )
        report = run_experiment(load_config(tmp_path / "grid.ini"))
        assert math.isnan(report.rows[0].re_score)
        assert list(report.errors) == ["tradeoff/barbell"]
        assert "outside [0, 1]" in report.errors["tradeoff/barbell"]
        assert "tradeoff barbell: NaN" in (report.output_dir / "run.log").read_text()
