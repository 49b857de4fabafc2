"""Experiment config parsing and the report bundle."""

import hashlib
import io
import math
import multiprocessing

import numpy as np
import pytest

import netelast as ne
from netelast import _csr, experiment, robustness
from netelast.experiment import derive_seed, fmt, load_config, run_experiment
from netelast.graph import save_edge_list

from conftest import deadline, star_graph

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


# the same topologies under the heterogeneous engine, with a static ranking,
# batches of 3 and a stop at half the nodes
HET_CONFIG = (
    CONFIG.replace("output_dir = out", "output_dir = het")
    .replace("model = dijkstra_homogeneous", "model = dijkstra_heterogeneous\nrecompute = false")
    .replace("stop_fraction = 1.0", "stop_fraction = 0.5")
    .replace("batch = 1", "batch = 3")
)

# sha256 of every table and curve that CONFIG and HET_CONFIG write
GOLDEN = {
    "grid.ini": {
        "correlations.csv": "d01d7f94cf04fe0ef4ab36e4de854b3ee8f69bf2b1d7c53381a17f4015fce1df",
        "curves/gi_highest_betweenness.csv": "114057444d390dc7852870a2bfa12bc9381659b54ec4009d89cf279dca8e722f",
        "curves/gi_highest_degree.csv": "dc3e4cad4bc0f1f386c1eb69ed832ab9a059ebef283852785fab1e83230fe982",
        "curves/gi_random.csv": "b2f8f3b42eaa9a4f0efe8947ba3248250bd2665d89a90412cdd5cf7e67a341d4",
        "curves/mesh10_highest_betweenness.csv": "e6f2f4606bb13f127b0c492d93fe03b1a87080598785f4f56b2652b98772666e",
        "curves/mesh10_highest_degree.csv": "e76bbc79ca81c70112e60d63584c9f7255a7802ee017eb85057d9178139fa971",
        "curves/mesh10_random.csv": "ce2f732ce64628e69d1e0ed5cabd5cb8df234532260fd72934c142f3cc3402ff",
        "curves/star10_highest_betweenness.csv": "ce9d320edf65aa2a6056de4d83fac9d26434c539d0117c2ff1516dced712cbd7",
        "curves/star10_highest_degree.csv": "2a0d47f3d7aa3f4590032980c66463e81179edbd3939e596b1973a073dfebaf0",
        "curves/star10_random.csv": "a390c916ef86515e29c86d274513e80a75db881e386fe7a85a7a232e22f6ea2f",
        "metrics.csv": "bdf3b368ef160a7fd71e1d53d7909be06ff0487ef8a694d3672a23da7d315a76",
        "ranking.csv": "a95a3a7c2113f28a667b35a551faf9d2f23a8864ad2e8f8eeadc7ec18b5ffa38",
        "tradeoff.csv": "5bd3959949cc884e0c1315782f855c679bd89c651b5d1f822b0dfb8077cd2b3a",
    },
    "het.ini": {
        "correlations.csv": "7c1da8acfba6cbde10338f6cacc4914fe30d6c9219e439b0de8f388919a58d56",
        "curves/gi_highest_betweenness.csv": "39dd4899b14a379b6c28db28e10cd9136c8fe14f83c83a9bf4ed73ee1c335784",
        "curves/gi_highest_degree.csv": "26d9e2076ea203c998b46677b5b96d348102094684deea37313666e181f54963",
        "curves/gi_random.csv": "5be866ffdb84d998c8f342a7bdd00367a968ce0d526c91c6dd13920de16e5765",
        "curves/mesh10_highest_betweenness.csv": "e97df55749ecf0f8b487efef809d23e94ca054f9f55c380eb3f9d92b6c6f4135",
        "curves/mesh10_highest_degree.csv": "398bc82336dc18e164b22b95f85769a8606b614c558f7671520ebc7db096f42a",
        "curves/mesh10_random.csv": "106d8603f48fb74503816d38f31e9e3f5ed4111cf53fdce6f69abb46d53d7552",
        "curves/star10_highest_betweenness.csv": "6f2d1d1477603505d35bfcbd151428638f382293a521666caa7eeb2f0b37c27b",
        "curves/star10_highest_degree.csv": "21c60743c3d0d8e5aa0ce697091e13481dc8630825f1c75722b9c81c5b8a261b",
        "curves/star10_random.csv": "1290b34947b831525e94e6f50c01f7a6e0231112e4ee7447f440375d2b2368c3",
        "metrics.csv": "bdf3b368ef160a7fd71e1d53d7909be06ff0487ef8a694d3672a23da7d315a76",
        "ranking.csv": "a3f88af9cbca1d14c2231d35c3260def028f05673fc58af16aaab455108c549a",
        "tradeoff.csv": "d2a88b02930252dcfbd3c27987ec496624fd7c8d9ac38a050e4b286024d519ed",
    },
}


@pytest.fixture
def config_dir(tmp_path):
    (tmp_path / "grid.ini").write_text(CONFIG)
    (tmp_path / "het.ini").write_text(HET_CONFIG)
    save_edge_list(star_graph(10), tmp_path / "star10.edges")
    return tmp_path


def _save_barbell(path):
    """Two K5 (0-4 and 5-9) joined through node 10: every elasticity under
    the homogeneous engine is above 1, so its tradeoff score is NaN."""
    bridge = [(4, 10), (10, 5)]
    edges = [(u, v) for k in (0, 5) for u in range(k, k + 5) for v in range(u + 1, k + 5)]
    save_edge_list(ne.Graph.from_edges(11, edges + bridge), path)


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

    @pytest.mark.parametrize("batch", [2.5, True, 0])
    def test_bad_batch_rejected_by_the_config(self, batch):
        # a batch that the run's strategies would refuse never reaches run_experiment
        with pytest.raises(ne.ParameterError, match="batch must be an integer >= 1"):
            experiment.ExperimentConfig([experiment.TopologyDecl("a", ne.GeneratorSpec("mesh", n=4))], batch=batch)

    def test_unknown_attack_kind_rejected(self):
        with pytest.raises(ne.ParameterError, match="unknown attack kind 'cascade'"):
            experiment.ExperimentConfig([], attacks=["random", "cascade"])

    def test_empty_attack_list(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[experiment]\nattacks =\n[topology:a]\nfamily = mesh\nn = 4\n")
        with pytest.raises(ne.ParameterError, match="attacks must name at least one attack kind"):
            load_config(p)


    @pytest.mark.parametrize(
        "body,key",
        [
            ("family = watts_strogatz\nn = 40\nk = 4\nbeta = 0.3\n", "beta"),
            ("family = watts_strogatz\nn = 40\nk = 4\np = 0.3\nm = 2\n", "m"),
            ("family = mesh\nn = 4\nseed = 3\n", "seed"),
            ("family = near_regular\nrows = 2\ncols = 3\nn = 6\n", "n"),
            ("path = k4.edges\nfamily = mesh\n", "family"),
            ("path = k4.edges\nn = 4\n", "n"),
        ],
        ids=["ws_beta", "ws_m", "mesh_seed", "grid_n", "path_and_family", "path_and_n"],
    )
    def test_parameter_the_section_does_not_take(self, tmp_path, body, key):
        p = tmp_path / "bad.ini"
        p.write_text("[experiment]\n[topology:t]\n" + body)
        with pytest.raises(ne.ParseError, match=f"topology 't': .* takes .*; got '{key}'"):
            load_config(p)

    def test_keys_read_by_field_type(self, tmp_path):
        p = tmp_path / "grid.ini"
        p.write_text(
            "[experiment]\nglobal_seed = 5\n"
            "[topology:ws]\nfamily = watts_strogatz\nn = 40\nk = 4\np = 0.25\nseed = 8\n"
            "[topology:grid]\nfamily = near_regular\nrows = 2\ncols = 3\ndiagonals = yes\n"
        )
        ws, grid = (t.spec for t in load_config(p).topologies)
        assert ws == ne.GeneratorSpec("watts_strogatz", n=40, k=4, p=0.25, seed=8)
        assert grid == ne.GeneratorSpec("near_regular", rows=2, cols=3, diagonals=True)

    @pytest.mark.parametrize("name", ["a,b", "ring/1"])
    def test_name_that_breaks_output_files(self, tmp_path, name):
        p = tmp_path / "bad.ini"
        p.write_text(f"[experiment]\n[topology:{name}]\nfamily = mesh\nn = 4\n")
        with pytest.raises(ne.ParseError, match=f"topology:{name}"):
            load_config(p)

    @pytest.mark.parametrize("typo", ["atacks = random", "stop_fracton = 0.5"])
    def test_misspelt_experiment_key_rejected(self, tmp_path, typo):
        # a misspelt key used to load silently with the default in its place
        p = tmp_path / "c.ini"
        p.write_text(f"[experiment]\n{typo}\n[topology:a]\nfamily = mesh\nn = 4\n")
        key = typo.split(" = ")[0]
        with pytest.raises(ne.ParseError, match=f"unknown key '{key}' in \\[experiment\\]"):
            load_config(p)

    def test_random_tie_break_needs_tie_seed(self, tmp_path):
        # the seed used to default to 0 without a word
        p = tmp_path / "c.ini"
        p.write_text("[experiment]\ntie_break = random\n[topology:a]\nfamily = mesh\nn = 4\n")
        with pytest.raises(ne.ParameterError, match="random tie-break requires a seed"):
            load_config(p)

    def test_tie_seed_must_be_an_integer(self, tmp_path):
        # read under either tie-break, like every other key
        p = tmp_path / "c.ini"
        p.write_text("[experiment]\ntie_seed = abc\n[topology:a]\nfamily = mesh\nn = 4\n")
        with pytest.raises(ne.ParseError, match="key 'tie_seed' is not an integer"):
            load_config(p)

    @pytest.mark.parametrize("tie_break", ["random", "sequential"])
    def test_negative_tie_seed_rejected(self, tmp_path, tie_break):
        # it used to load, and every cell of a random tie-break run then failed
        p = tmp_path / "c.ini"
        p.write_text(f"[experiment]\ntie_break = {tie_break}\ntie_seed = -1\n[topology:a]\nfamily = mesh\nn = 4\n")
        with pytest.raises(ne.ParameterError, match="tie_seed must be >= 0, got -1"):
            load_config(p)

    def test_repeated_attack_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(
            "[experiment]\nattacks = highest_degree, highest_degree\n"
            "[topology:a]\nfamily = mesh\nn = 4\n"
        )
        with pytest.raises(ne.ParameterError, match="unique"):
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

    def test_negative_seed_yields_nan_row_and_run_continues(self, tmp_path):
        (tmp_path / "grid.ini").write_text(
            "[experiment]\noutput_dir = out\nattacks = highest_degree\n"
            "[topology:bad]\nfamily = gilbert\nn = 10\np = 0.3\nseed = -1\n"
            "[topology:ok]\nfamily = mesh\nn = 4\n"
        )
        report = run_experiment(load_config(tmp_path / "grid.ini"))
        assert "seed must be >= 0" in report.errors["bad"]
        assert ("ok", "highest_degree") in report.curves
        assert "bad,NaN,NaN,NaN,NaN,NaN,NaN" in (report.output_dir / "metrics.csv").read_text()
        assert "topology bad: ERROR" in (report.output_dir / "run.log").read_text()

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

    def test_random_tie_break_curves_match_elasticity(self, tmp_path):
        (tmp_path / "grid.ini").write_text(
            "[experiment]\noutput_dir = out\ntie_break = random\ntie_seed = 5\nbatch = 2\n"
            "attacks = highest_degree, highest_betweenness\n"
            "[topology:ws]\nfamily = watts_strogatz\nn = 30\nk = 4\np = 0.2\nseed = 8\n"
        )
        report = run_experiment(load_config(tmp_path / "grid.ini"))
        g = ne.gen_watts_strogatz(30, 4, 0.2, seed=8)
        model = ne.ThroughputModel(tie_break="random", seed=5)
        for kind in ("highest_degree", "highest_betweenness"):
            want = io.StringIO()
            ne.elasticity(g, ne.AttackStrategy(kind, batch=2), model).write_csv(want)
            assert (report.output_dir / f"curves/ws_{kind}.csv").read_text() == want.getvalue()

    def test_rejected_tradeoff_is_reported(self, tmp_path):
        _save_barbell(tmp_path / "barbell.edges")
        (tmp_path / "grid.ini").write_text(
            "[experiment]\noutput_dir = out\n[topology:barbell]\npath = barbell.edges\n"
        )
        report = run_experiment(load_config(tmp_path / "grid.ini"))
        assert math.isnan(report.rows[0].re_score)
        assert list(report.errors) == ["tradeoff/barbell"]
        assert "outside [0, 1]" in report.errors["tradeoff/barbell"]
        assert "tradeoff barbell: NaN" in (report.output_dir / "run.log").read_text()

    def test_nan_correlations_are_logged(self, tmp_path):
        # K5 and K6 share heterogeneity (0) and asp (1); K5 alone is one row
        k5, k6 = (f"[topology:k{n}]\nfamily = mesh\nn = {n}\n" for n in (5, 6))
        kinds = ne.robustness.ATTACK_KINDS
        for grid, metrics, why in (
            (k5 + k6, ("heterogeneity", "asp"), "zero variance in {}"),
            (k5, ("links", "heterogeneity", "asp"), "fewer than 2 rows with both values"),
        ):
            (tmp_path / "grid.ini").write_text(f"[experiment]\noutput_dir = out\n{grid}")
            report = run_experiment(load_config(tmp_path / "grid.ini"))
            lines = [f"correlation {m}/{k}: NaN ({why.format(m)})" for m in metrics for k in kinds]
            log = (report.output_dir / "run.log").read_text().splitlines()
            # after every cell and tradeoff line, before the closing one
            assert log[-len(lines) - 1 : -1] == lines
            assert sum(line.startswith("correlation ") for line in log) == len(lines)
            assert report.errors == {}
            assert sum(map(math.isnan, report.correlations.values())) == len(lines)

    def test_metrics_failure_yields_nan_row_and_run_continues(self, tmp_path):
        save_edge_list(ne.gen_mesh(4), tmp_path / "k4.edges")
        (tmp_path / "one.edges").write_text("# nodes 1\n")
        base = "[experiment]\noutput_dir = {out}\n{one}[topology:k4]\npath = k4.edges\n"
        (tmp_path / "both.ini").write_text(base.format(out="both", one="[topology:one]\npath = one.edges\n"))
        (tmp_path / "k4.ini").write_text(base.format(out="k4", one=""))
        report = run_experiment(load_config(tmp_path / "both.ini"))
        alone = run_experiment(load_config(tmp_path / "k4.ini"))
        assert list(report.errors) == ["one"]
        assert "ERROR" in (report.output_dir / "run.log").read_text()
        for name in ("metrics.csv", "ranking.csv", "tradeoff.csv", "correlations.csv"):
            assert (report.output_dir / name).exists()
        tradeoff = (report.output_dir / "tradeoff.csv").read_text().splitlines()
        assert "one,0,0,NaN,NaN,NaN,NaN" in tradeoff
        for name in ("metrics.csv", "tradeoff.csv"):
            k4_rows = [r for r in (alone.output_dir / name).read_text().splitlines() if r.startswith("k4,")]
            assert len(k4_rows) == 1
            assert k4_rows[0] in (report.output_dir / name).read_text().splitlines()
        for kind in ne.robustness.ATTACK_KINDS:
            curve = f"curves/k4_{kind}.csv"
            assert (report.output_dir / curve).read_text() == (alone.output_dir / curve).read_text()


class TestSharedIntactEvaluation:
    def test_intact_graph_evaluated_once_per_topology(self, config_dir, monkeypatch):
        intact, standalone = [], []
        real_evaluate, real_betweenness = robustness._evaluate, robustness.betweenness

        def evaluate(g, model, rank, profile=None):
            if g.number_of_nodes == g.id_space:
                intact.append(rank)
            return real_evaluate(g, model, rank, profile)

        def betweenness(g):
            standalone.append(g)
            return real_betweenness(g)

        # the spies count in this process, so the topologies must be evaluated here
        monkeypatch.setattr(robustness, "_pool_size", lambda work: 1)
        monkeypatch.setattr(robustness, "_evaluate", evaluate)
        monkeypatch.setattr(robustness, "betweenness", betweenness)
        report = run_experiment(load_config(config_dir / "grid.ini"))
        # 3 topologies x 3 attacks: one intact evaluation per topology, which
        # also ranks it for the betweenness attack, and no standalone ranking
        assert len(report.curves) == 9
        assert intact == [True, True, True]
        assert standalone == []

    def test_intact_graph_traversed_once_per_topology(self, config_dir, monkeypatch):
        blocks, measured = [], []
        real_bfs, real_metrics = _csr.bfs, experiment.metrics

        def bfs(indptr, indices, sources, n, reach=None):
            blocks.append((indptr, np.atleast_1d(sources).tolist()))
            return real_bfs(indptr, indices, sources, n, reach)

        def metrics(g, profile=None):
            measured.append(g)
            return real_metrics(g, profile)

        monkeypatch.setattr(robustness, "_pool_size", lambda work: 1)
        monkeypatch.setattr(_csr, "bfs", bfs)
        monkeypatch.setattr(experiment, "metrics", metrics)
        run_experiment(load_config(config_dir / "grid.ini"))
        # an intact graph shares its arrays only with the attack copies that
        # have not removed a node yet, which evaluate nothing; so every source
        # seen once is the intact evaluation, and metrics adds no pass of its own
        assert [g.number_of_nodes for g in measured] == [10, 10, 18]
        for g in measured:
            assert [s for indptr, block in blocks if indptr is g.csr()[0] for s in block] == g.nodes

    @pytest.mark.parametrize("kind", ["dijkstra_homogeneous", "dijkstra_heterogeneous", "lp_optimization"])
    def test_metrics_rows_under_every_engine(self, tmp_path, kind):
        # `split` has two largest components, {0, 5, 6} (a path) and {1, 2, 3};
        # the LP refuses `big` before it routes, so metrics traverses it alone
        (tmp_path / "split.edges").write_text("# nodes 7\n0 5\n5 6\n1 2\n2 3\n1 3\n")
        (tmp_path / "grid.ini").write_text(
            f"[experiment]\noutput_dir = out\nmodel = {kind}\nattacks = highest_degree\nstop_fraction = 0.1\n"
            "[topology:big]\nfamily = gilbert\nn = 40\np = 0.3\n"
            "[topology:split]\npath = split.edges\n"
            "[topology:ws]\nfamily = watts_strogatz\nn = 24\nk = 4\np = 0.2\n"
        )
        report = run_experiment(load_config(tmp_path / "grid.ini"))
        refused = {"big/highest_degree": "optimization model limited to 30 nodes, got 40"}
        assert report.errors == (refused if kind == "lp_optimization" else {})
        # written by the scipy all-pairs distance pass that metrics used to make
        assert (report.output_dir / "metrics.csv").read_text() == (
            "name,nodes,links,density,diameter,asp,heterogeneity\n"
            "big,40,242,0.3102564,3,1.697436,0.2137606\n"
            "split,7,5,0.2380952,2,1.333333,0.509902\n"
            "ws,24,48,0.173913,5,2.641304,0.1613743\n"
        )

    def test_failed_intact_evaluation_reported_for_every_cell(self, tmp_path):
        # an LP topology over its size limit, and an edgeless one (alpha = 0)
        (tmp_path / "flat.edges").write_text("# nodes 5\n")
        (tmp_path / "grid.ini").write_text(
            "[experiment]\noutput_dir = out\nmodel = lp_optimization\n"
            "[topology:big]\nfamily = gilbert\nn = 40\np = 0.3\n"
            "[topology:flat]\npath = flat.edges\n"
            "[topology:small]\nfamily = mesh\nn = 5\n"
        )
        report = run_experiment(load_config(tmp_path / "grid.ini"))
        texts = {
            "big": "optimization model limited to 30 nodes, got 40",
            "flat": "elasticity undefined: initial throughput is 0",
        }
        kinds = ("random", "highest_degree", "highest_betweenness")
        assert report.errors == {f"{name}/{kind}": text for name, text in texts.items() for kind in kinds}
        log = (report.output_dir / "run.log").read_text().splitlines()
        assert log[4:13] == [
            *(f"cell {name}/{kind}: ERROR {text}" for name, text in texts.items() for kind in kinds),
            *(f"cell small/{kind}: elasticity=0.3" for kind in kinds),
        ]


# one grid per engine, each with a refused or failing topology, a NaN row
# and a heterogeneous (preferential attachment) topology
POOL_ENGINES = {
    "homogeneous_random_tie": "model = dijkstra_homogeneous\ntie_break = random\ntie_seed = 5\nbatch = 2\n",
    "heterogeneous": "model = dijkstra_heterogeneous\nrecompute = false\nbatch = 3\nstop_fraction = 0.5\n",
    "lp": "model = lp_optimization\nbatch = 3\nstop_fraction = 0.3\n",
}
POOL_TOPOLOGIES = (
    "[topology:big]\nfamily = gilbert\nn = 40\np = 0.3\n"
    "[topology:ghost]\npath = nowhere.edges\n"
    "[topology:barbell]\npath = barbell.edges\n"
    "[topology:pa]\nfamily = preferential_attachment\nn = 24\nm = 2\n"
)


class TestWorkerPool:
    @pytest.mark.parametrize("engine", sorted(POOL_ENGINES))
    def test_outputs_identical_at_pool_sizes_1_and_2(self, tmp_path, monkeypatch, engine):
        _save_barbell(tmp_path / "barbell.edges")
        for size in (1, 2):
            text = f"[experiment]\noutput_dir = out{size}\nglobal_seed = 3\n{POOL_ENGINES[engine]}{POOL_TOPOLOGIES}"
            (tmp_path / f"pool{size}.ini").write_text(text)
        real_raw, calls = robustness.raw_throughput, []

        def raw_throughput(*args, **kwargs):
            calls.append(args[0])
            return real_raw(*args, **kwargs)

        monkeypatch.setattr(robustness, "raw_throughput", raw_throughput)
        reports, parent_calls = [], []
        for size in (1, 2):
            calls.clear()
            monkeypatch.setattr(robustness, "_pool_size", lambda work, size=size: size)
            with deadline(120):
                reports.append(run_experiment(load_config(tmp_path / f"pool{size}.ini")))
            parent_calls.append(len(calls))
        one, two = reports
        # every state of three topologies (each intact graph, then every
        # sample after it) is evaluated, here at size 1 and in the workers at
        # size 2; the LP refuses `big` before it evaluates any
        topologies = {name for name, _ in one.curves}
        evaluations = len(topologies) + sum(len(c.normalized) - 1 for c in one.curves.values())
        assert len(topologies) == (2 if engine == "lp" else 3)
        assert parent_calls == [evaluations, 0]
        assert "ghost" in one.errors
        assert ("big/random" in one.errors) == (engine == "lp")
        assert ("tradeoff/barbell" in one.errors) == (engine == "homogeneous_random_tie")
        assert list(one.errors.items()) == list(two.errors.items())

        def csv_bytes(report):
            out = report.output_dir
            return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*.csv"))}

        def log(report):
            lines = (report.output_dir / "run.log").read_text().splitlines()
            return [line for line in lines if not line.startswith("elapsed ")]

        assert csv_bytes(one) == csv_bytes(two)
        assert log(one) == log(two)
        assert list(one.curves) == list(two.curves)
        for key, curve in one.curves.items():
            other = two.curves[key]
            assert curve.fractions.tobytes() == other.fractions.tobytes()
            assert curve.normalized.tobytes() == other.normalized.tobytes()
            assert (curve.elasticity, curve.alpha) == (other.elasticity, other.alpha)
        assert repr(one.metrics) == repr(two.metrics)

    def test_no_worker_outlives_the_run(self, config_dir, monkeypatch):
        monkeypatch.setattr(robustness, "_pool_size", lambda work: 2)
        with deadline(120):
            report = run_experiment(load_config(config_dir / "grid.ini"))
        assert len(report.curves) == 9
        assert multiprocessing.active_children() == []

    def test_worker_error_propagates_without_orphans(self, config_dir, monkeypatch):
        # an error that is not a NetelastError ends the run, as it does in process
        def evaluate(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(robustness, "_pool_size", lambda work: 2)
        monkeypatch.setattr(robustness, "_evaluate", evaluate)
        with deadline(120), pytest.raises(RuntimeError, match="injected"):
            run_experiment(load_config(config_dir / "grid.ini"))
        assert multiprocessing.active_children() == []


class TestGoldenBundle:
    @pytest.mark.parametrize("ini", sorted(GOLDEN))
    def test_bundle_bytes(self, config_dir, ini):
        out = run_experiment(load_config(config_dir / ini)).output_dir
        got = {
            p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*.csv"))
        }
        assert got == GOLDEN[ini]
