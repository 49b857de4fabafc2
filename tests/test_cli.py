"""CLI surface: subcommands, formats, exit codes."""

import io

import pytest

import netelast as ne
from netelast import cli
from netelast.cli import main
from netelast.graph import fmt, save_edge_list

from conftest import star_graph


@pytest.fixture
def star_file(tmp_path):
    p = tmp_path / "star10.edges"
    save_edge_list(star_graph(10), p)
    return p


class TestGenerate:
    def test_writes_edge_list_to_stdout(self, capsys):
        assert main(["generate", "--family", "mesh", "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# nodes 4\n")
        assert ne.load_edge_list(io.StringIO(out)).number_of_edges == 6

    def test_seeded_output_is_stable(self, capsys):
        args = ["generate", "--family", "gilbert", "-n", "30", "-p", "0.2", "--seed", "5"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_out_file(self, tmp_path):
        target = tmp_path / "g.edges"
        assert main(["generate", "--family", "mesh", "-n", "5", "--out", str(target)]) == 0
        assert ne.load_edge_list(target).number_of_edges == 10


    @pytest.mark.parametrize(
        "args",
        [
            ["--family", "mesh", "-n", "4", "-k", "3"],
            ["--family", "mesh", "-n", "4", "--seed", "1"],
            ["--family", "near_regular", "-n", "6", "--rows", "2", "--cols", "3"],
            ["--family", "gilbert", "-n", "10", "-p", "0.3", "--diagonals"],
        ],
        ids=["mesh_k", "mesh_seed", "grid_n", "gilbert_diagonals"],
    )
    def test_flag_the_family_does_not_take_is_3(self, args, capsys):
        assert main(["generate", *args]) == 3
        err = capsys.readouterr().err
        assert err.startswith("netelast: parameter error: family ") and err.count("\n") == 1

    def test_negative_seed_is_3(self, capsys):
        assert main(["generate", "--family", "gilbert", "-n", "10", "-p", "0.3", "--seed", "-1"]) == 3
        assert capsys.readouterr().err == "netelast: parameter error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "args, missing",
        [
            (["--family", "gilbert", "-n", "5"], "family gilbert needs p"),
            (["--family", "watts_strogatz", "-n", "10", "-k", "4"], "family watts_strogatz needs p"),
            (["--family", "near_regular", "--rows", "3"], "family near_regular needs cols"),
        ],
        ids=["gilbert_p", "ws_p", "grid_cols"],
    )
    def test_missing_parameter_is_3(self, args, missing, capsys):
        # gilbert without -p used to write an edgeless graph and exit 0
        assert main(["generate", *args]) == 3
        assert capsys.readouterr().err == f"netelast: parameter error: {missing}\n"

    def test_omitted_seed_is_0_and_omitted_diagonals_false(self, capsys):
        assert main(["generate", "--family", "gilbert", "-n", "30", "-p", "0.2"]) == 0
        assert ne.load_edge_list(io.StringIO(capsys.readouterr().out)).edges() == ne.gen_gilbert(30, 0.2, 0).edges()
        assert main(["generate", "--family", "near_regular", "--rows", "3", "--cols", "4"]) == 0
        grid = ne.load_edge_list(io.StringIO(capsys.readouterr().out))
        assert grid.edges() == ne.gen_near_regular(3, 4, False).edges()

class TestMetrics:
    def test_prints_header_and_row(self, star_file, capsys):
        assert main(["metrics", "--input", str(star_file), "--name", "star"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "name,nodes,links,density,diameter,asp,heterogeneity"
        cells = lines[1].split(",")
        assert cells[0] == "star"
        assert cells[1] == "10"
        assert cells[2] == "9"
        assert float(cells[3]) == pytest.approx(0.2)


class TestAttack:
    def test_degree_attack_prints_center_first(self, star_file, capsys):
        assert main(["attack", "--input", str(star_file), "--attack", "highest_degree"]) == 0
        order = [int(x) for x in capsys.readouterr().out.split()]
        assert order[0] == 0
        assert sorted(order) == list(range(10))

    def test_random_needs_seed(self, star_file, capsys):
        assert main(["attack", "--input", str(star_file), "--attack", "random"]) == 3

    def test_negative_seed_is_3(self, star_file, capsys):
        assert main(["attack", "--input", str(star_file), "--attack", "random", "--seed", "-3"]) == 3
        assert capsys.readouterr().err == "netelast: parameter error: seed must be >= 0, got -3\n"


class TestElasticity:
    def test_curve_to_stdout(self, star_file, capsys):
        rc = main(["elasticity", "--input", str(star_file), "--attack", "highest_degree"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("fraction_removed,normalized_throughput\n0,1\n0.1,0\n")
        assert "# elasticity = 0.05" in out

    def test_curve_to_file(self, star_file, tmp_path):
        target = tmp_path / "curve.csv"
        rc = main(
            ["elasticity", "--input", str(star_file), "--attack", "random",
             "--seed", "3", "--stop-fraction", "0.5", "--out", str(target)]
        )
        assert rc == 0
        body = [l for l in target.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 1 + 6  # header + samples at k = 0..5

    def test_negative_tie_seed_is_3_before_any_evaluation(self, star_file, capsys, monkeypatch):
        # it used to be refused at the first evaluation, by the tie-break's generator
        calls, evaluate = [], ne.throughput.evaluate_throughput
        monkeypatch.setattr(ne.throughput, "evaluate_throughput", lambda *a, **k: calls.append(a) or evaluate(*a, **k))
        args = ["elasticity", "--input", str(star_file), "--attack", "highest_degree",
                "--tie-break", "random", "--tie-seed", "-1"]
        assert main(args) == 3
        assert capsys.readouterr().err == "netelast: parameter error: tie_seed must be >= 0, got -1\n"
        assert calls == []


class TestBound:
    def test_discrete_value(self, capsys):
        assert main(["bound", "--n", "10", "--mode", "discrete", "--zeta", "10"]) == 0
        assert capsys.readouterr().out.strip() == "0.3166667"

    def test_continuous_limit(self, capsys):
        assert main(["bound", "--n", "1e9", "--mode", "continuous"]) == 0
        assert capsys.readouterr().out.strip() == "0.3333333"

    def test_discrete_huge_n(self, capsys):
        assert main(["bound", "--n", "1e30", "--mode", "discrete"]) == 0
        assert capsys.readouterr().out.strip() == "0.3333333"

    def test_partial_zeta(self, capsys):
        assert main(["bound", "--n", "20", "--mode", "discrete", "--zeta", "5"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(
            ne.mesh_elasticity_discrete(20, 5), rel=1e-6
        )

    @pytest.mark.parametrize("n, mode, zeta, value", [
        ("1000", "continuous", "250.5", ne.mesh_elasticity_continuous(1000, 250.5)),
        ("1e3", "continuous", "1e3", ne.mesh_elasticity_continuous(1000, 1000)),
        ("20", "discrete", "5e0", ne.mesh_elasticity_discrete(20, 5)),
    ])
    def test_zeta_reads_what_the_library_takes(self, n, mode, zeta, value, capsys):
        assert main(["bound", "--n", n, "--mode", mode, "--zeta", zeta]) == 0
        assert capsys.readouterr().out == fmt(value) + "\n"

    @pytest.mark.parametrize("zeta, message", [
        ("2.5", "--zeta must be an integer, got '2.5'"),
        ("five", "--zeta must be a number, got 'five'"),
        ("inf", "--zeta must be a number, got 'inf'"),
    ])
    def test_discrete_zeta_must_be_an_integer(self, zeta, message, capsys):
        assert main(["bound", "--n", "10", "--mode", "discrete", "--zeta", zeta]) == 3
        assert capsys.readouterr().err == f"netelast: parameter error: {message}\n"


class TestTradeoff:
    def test_benchmark_row(self, capsys):
        rc = main(
            ["tradeoff", "--a", "0.1623", "--b", "0.0095", "--c", "0.0048",
             "--n", "1000", "--m", "1049"]
        )
        assert rc == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.1519, abs=5e-5)


class TestRun:
    def test_end_to_end(self, tmp_path, capsys):
        (tmp_path / "grid.ini").write_text(
            "[experiment]\noutput_dir = out\nglobal_seed = 1\n"
            "attacks = random, highest_degree, highest_betweenness\n"
            "[topology:m]\nfamily = mesh\nn = 8\n"
        )
        assert main(["run", "--config", str(tmp_path / "grid.ini")]) == 0
        assert (tmp_path / "out" / "ranking.csv").exists()

    def test_rejected_tradeoff_row_is_nan_and_exit_0(self, tmp_path, capsys):
        # the barbell of test_experiment: two K5 joined through node 10,
        # every elasticity above 1
        bridge = [(4, 10), (10, 5)]
        edges = [(u, v) for k in (0, 5) for u in range(k, k + 5) for v in range(u + 1, k + 5)]
        save_edge_list(ne.Graph.from_edges(11, edges + bridge), tmp_path / "barbell.edges")
        (tmp_path / "grid.ini").write_text(
            "[experiment]\noutput_dir = out\n[topology:barbell]\npath = barbell.edges\n"
        )
        assert main(["run", "--config", str(tmp_path / "grid.ini")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error tradeoff/barbell: ") and "outside [0, 1]" in err[0]
        log = (tmp_path / "out" / "run.log").read_text().splitlines()
        assert any(line.startswith("tradeoff barbell: NaN (") for line in log)
        row = (tmp_path / "out" / "tradeoff.csv").read_text().splitlines()[2].split(",")
        assert row[0] == "barbell" and row[-1] == "NaN" and "NaN" not in row[:-1]

    def test_repeated_attack_is_3(self, tmp_path, capsys):
        (tmp_path / "grid.ini").write_text(
            "[experiment]\nattacks = highest_degree, highest_degree\n"
            "[topology:m]\nfamily = mesh\nn = 8\n"
        )
        assert main(["run", "--config", str(tmp_path / "grid.ini")]) == 3

    def test_random_tie_break_without_tie_seed_is_3(self, tmp_path, capsys):
        # the seed used to default to 0 without a word
        (tmp_path / "grid.ini").write_text("[experiment]\ntie_break = random\n[topology:m]\nfamily = mesh\nn = 8\n")
        assert main(["run", "--config", str(tmp_path / "grid.ini")]) == 3
        assert "random tie-break requires a seed" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_negative_tie_seed_is_3(self, tmp_path, capsys):
        # as on `netelast elasticity`; it used to exit 0 with every cell an error
        (tmp_path / "grid.ini").write_text(
            "[experiment]\ntie_break = random\ntie_seed = -1\n[topology:m]\nfamily = mesh\nn = 8\n"
        )
        assert main(["run", "--config", str(tmp_path / "grid.ini")]) == 3
        assert "tie_seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_empty_attack_list_is_3(self, tmp_path, capsys):
        (tmp_path / "grid.ini").write_text("[experiment]\nattacks =\n[topology:m]\nfamily = mesh\nn = 8\n")
        assert main(["run", "--config", str(tmp_path / "grid.ini")]) == 3
        assert "at least one attack kind" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("name", ["a,b", "ring/1"])
    def test_bad_topology_name_is_2(self, tmp_path, name, capsys):
        (tmp_path / "grid.ini").write_text(f"[experiment]\n[topology:{name}]\nfamily = mesh\nn = 8\n")
        assert main(["run", "--config", str(tmp_path / "grid.ini")]) == 2
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "body, text",
        [
            ("family = mesh\nn = abc\n", "key 'n' is not an integer"),
            ("family = gilbert\nn = 10\np = x\n", "key 'p' is not a number"),
            ("family = near_regular\nrows = 3\ncols = 3\ndiagonals = maybe\n", "key 'diagonals' is not a boolean"),
        ],
        ids=["n", "p", "diagonals"],
    )
    def test_topology_value_of_the_wrong_type_is_2(self, tmp_path, body, text, capsys):
        # each used to read "bad numeric value in topology 'g'", naming neither key nor type
        (tmp_path / "grid.ini").write_text("[experiment]\n[topology:g]\n" + body)
        assert main(["run", "--config", str(tmp_path / "grid.ini")]) == 2
        assert capsys.readouterr().err == f"netelast: parse error: topology 'g': {text}\n"
        assert not (tmp_path / "results").exists()

    def test_unknown_topology_key_is_2(self, tmp_path, capsys):
        (tmp_path / "grid.ini").write_text(
            "[experiment]\n[topology:ws]\nfamily = watts_strogatz\nn = 40\nk = 4\nbeta = 0.3\n"
        )
        assert main(["run", "--config", str(tmp_path / "grid.ini")]) == 2
        assert "'ws'" in capsys.readouterr().err


    def test_misspelt_experiment_key_is_2(self, tmp_path, capsys):
        (tmp_path / "grid.ini").write_text("[experiment]\natacks = random\n[topology:m]\nfamily = mesh\nn = 8\n")
        assert main(["run", "--config", str(tmp_path / "grid.ini")]) == 2
        assert "'atacks'" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 0\n")
        assert main(["metrics", "--input", str(bad)]) == 2

    def test_parameter_error_is_3(self, capsys):
        assert main(["bound", "--n", "1", "--mode", "discrete"]) == 3

    @pytest.mark.parametrize("n", ["inf", "1e400"])
    def test_bound_infinite_n_is_3(self, n, capsys):
        assert main(["bound", "--n", n, "--mode", "continuous"]) == 3

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_bound_fractional_n_is_3(self, mode, capsys):
        # 10.5 used to answer for n = 10
        assert main(["bound", "--n", "10.5", "--mode", mode]) == 3
        assert "--n must be an integer, got '10.5'" in capsys.readouterr().err

    def test_compute_error_is_4(self, tmp_path, capsys):
        big = tmp_path / "big.edges"
        save_edge_list(ne.gen_gilbert(40, 0.3, seed=1), big)
        rc = main(
            ["elasticity", "--input", str(big), "--attack", "random", "--seed", "1",
             "--model", "lp_optimization"]
        )
        assert rc == 4

    def test_io_error_is_5(self, capsys):
        assert main(["metrics", "--input", "no-such-file.edges"]) == 5

    def test_unknown_flag_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--n", "10", "--mode", "sideways"])
        assert exc.value.code == 2


def test_the_command_keeps_its_freed_heap(monkeypatch, capsys):
    # the command's process is netelast's own; a library caller's is not
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_heap", lambda: calls.append(1))
    assert main(["bound", "--n", "10", "--mode", "discrete"]) == 0
    assert calls == [1]
