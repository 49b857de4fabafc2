"""Tests of the benchmark's reference computations and output checks.

The oracles must return hand-known values on small graphs, and each check
must reject an output perturbed by a small amount.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import netelast as ne  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def star_edges(n):
    return [(0, i) for i in range(1, n)]


def mesh_edges(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


# -- oracles on hand-known graphs -----------------------------------------------


@pytest.mark.parametrize(
    "n, edges, expected",
    [
        (5, mesh_edges(5), 20.0),  # every pair on its own arc: load 1
        (6, star_edges(6), 6.0),  # 30 pairs, each spoke arc carries 5
        (4, path_edges(4), 3.0),  # 12 pairs, middle arc carries 2 * 2
        (5, path_edges(5), 20 / 6),  # 20 pairs, middle arcs carry 2 * 3
        (4, [(0, 1), (2, 3)], 4.0),  # two disjoint edges: 4 pairs, one per arc
    ],
)
def test_homogeneous_throughput_hand_values(n, edges, expected):
    assert oracles.homogeneous_throughput(n, edges) == pytest.approx(expected, rel=1e-15)


def test_homogeneous_throughput_takes_the_smallest_id_parent():
    # 4-cycle 0-1-2-3-0: each source reaches its opposite node through the
    # smaller-id neighbour, so 0->1 carries (0,1), (0,2), (3,1) and 1->0
    # carries (1,0), (1,3), (2,0); no other arc carries more than 2
    assert oracles.homogeneous_throughput(4, [(0, 1), (1, 2), (2, 3), (3, 0)]) == 12 / 3


@pytest.mark.parametrize("seed", range(4))
def test_homogeneous_throughput_matches_the_library(seed):
    g = ne.gen_gilbert(40, 0.08, seed=seed)  # sparse enough to be disconnected at times
    ours = oracles.homogeneous_throughput(g.id_space, g.edges(), chunk=7)
    theirs = ne.throughput_dijkstra_homogeneous(g).raw_throughput
    assert ours == pytest.approx(theirs, rel=1e-12)


def test_structure_hand_values():
    p4 = oracles.structure(4, path_edges(4))
    assert (p4["diameter"], p4["asp"], p4["density"]) == (3.0, 20 / 12, 0.5)
    star = oracles.structure(6, star_edges(6))
    assert (star["diameter"], star["links"]) == (2.0, 5)
    k5 = oracles.structure(5, mesh_edges(5))
    assert (k5["diameter"], k5["asp"], k5["density"]) == (1.0, 1.0, 1.0)
    # the larger of two components decides diameter and asp
    split = oracles.structure(7, [(0, 1)] + [(i, i + 1) for i in range(2, 6)])
    assert split["diameter"] == 4.0


def test_small_closed_forms():
    assert [oracles.mesh_sample(5, k) for k in range(6)] == [1.0, 0.6, 0.3, 0.1, 0.0, 0.0]
    assert oracles.trapezoid([0.0, 0.5, 1.0], [1.0, 1.0, 0.0]) == 0.75
    assert oracles.removal_fractions(10, 3, 1.0) == [0.0, 0.3, 0.6, 0.9, 1.0]
    assert oracles.removal_fractions(992, 10, 0.01) == [0.0, 10 / 992]
    # the paper's scale-free tradeoff row
    assert oracles.tradeoff(0.1623, 0.0095, 0.0048, 1000, 1049) == pytest.approx(0.1519, abs=1e-4)
    assert oracles.tradeoff(0.2, 0.1, 0.1, 10, 8) == pytest.approx(0.4)  # below a tree: no penalty
    assert oracles.degree_attack_order(5, star_edges(5), 1) == [0, 1, 2, 3, 4]
    assert oracles.degree_attack_order(4, path_edges(4), 2) == [1, 2, 0, 3]


def test_random_attack_order_matches_the_library():
    g = ne.gen_mesh(12)
    assert oracles.random_attack_order(12, 99) == ne.attack_sequence(g, ne.AttackStrategy("random", seed=99))


# -- mesh_bound check ----------------------------------------------------------------


def test_mesh_check_accepts_the_library_and_rejects_one_changed_sample():
    curve = ne.elasticity(ne.gen_mesh(8), ne.AttackStrategy("random", seed=1))
    assert workloads.check_mesh_curve(curve, 8) == []
    curve.normalized[3] = np.nextafter(curve.normalized[3], 1.0)
    assert workloads.check_mesh_curve(curve, 8)


def test_mesh_check_rejects_a_shifted_elasticity():
    curve = ne.elasticity(ne.gen_mesh(8), ne.AttackStrategy("random", seed=1))
    curve.elasticity += 1e-8
    assert workloads.check_mesh_curve(curve, 8)


# -- paper_grid check ----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_grid(tmp_path_factory):
    """A paper_grid-shaped run on small graphs, adaptive ranking included."""
    tmp = tmp_path_factory.mktemp("grid")
    topologies = {
        "gilbert": {"family": "gilbert", "n": 40, "p": 0.15},
        "pa": {"family": "preferential_attachment", "n": 40, "m": 2},
        "grid": {"family": "near_regular", "rows": 5, "cols": 7},
    }
    path = tmp / "grid.ini"
    path.write_text(workloads.grid_config_text(5, topologies, batch=4, stop_fraction=0.3, recompute=True))
    report = ne.run_experiment(ne.load_config(path))
    return path, workloads.read_outputs(report.output_dir)


def _edited(files, key, old, new):
    assert old in files[key]
    out = dict(files)
    out[key] = files[key].replace(old, new, 1)
    return out


def test_grid_check_accepts_the_library(small_grid):
    path, files = small_grid
    assert workloads.check_grid_outputs(path, [files]) == []


def test_grid_check_rejects_alpha_scaled_by_one_part_in_a_million(small_grid):
    path, files = small_grid
    key = "curves/pa_random.csv"
    alpha = workloads.parse_curve_csv(files[key])["alpha"]
    scaled = oracles.fmt7(float(alpha) * (1 + 1e-6))
    assert scaled != alpha
    bad = _edited(files, key, f"# alpha = {alpha}", f"# alpha = {scaled}")
    assert any("alpha" in p for p in workloads.check_grid_outputs(path, [bad]))


def test_grid_check_rejects_one_changed_sample(small_grid):
    path, files = small_grid
    key = "curves/gilbert_highest_degree.csv"
    sample = workloads.parse_curve_csv(files[key])["values"][1]
    changed = oracles.fmt7(float(sample) + 1e-3)
    bad = _edited(files, key, f",{sample}\n", f",{changed}\n")
    assert any("trapezoid" in p for p in workloads.check_grid_outputs(path, [bad]))


def test_grid_check_rejects_a_changed_metric_and_tradeoff(small_grid):
    path, files = small_grid
    row = next(l for l in files["metrics.csv"].splitlines() if l.startswith("grid,"))
    cols = row.split(",")
    cols[5] = oracles.fmt7(float(cols[5]) * 1.001)
    bad = _edited(files, "metrics.csv", row, ",".join(cols))
    assert any("metrics.csv grid" in p for p in workloads.check_grid_outputs(path, [bad]))

    row = next(l for l in files["tradeoff.csv"].splitlines() if l.startswith("pa,"))
    cols = row.split(",")
    cols[6] = oracles.fmt7(float(cols[6]) + 1e-4)
    bad = _edited(files, "tradeoff.csv", row, ",".join(cols))
    assert any("re_score" in p for p in workloads.check_grid_outputs(path, [bad]))


def test_tradeoff_nan_needs_a_logged_out_of_range_elasticity():
    header = "# tolerances alpha=1 beta=1 delta=1 gamma=1\nname,nodes,links,elas_r,elas_d,elas_b,re_score\n"
    files = {"tradeoff.csv": header + "pa,1000,1997,0.4611823,0.6780126,1.77685,NaN\n"}
    elas = {("pa", "random"): "0.4611823", ("pa", "highest_degree"): "0.6780126",
            ("pa", "highest_betweenness"): "1.77685"}
    refs = {"pa": None}
    assert workloads._check_tradeoff(files, refs, elas)
    files["run.log"] = "tradeoff pa: NaN (elas_b=1.7768499914476705 outside [0, 1])\n"
    assert workloads._check_tradeoff(files, refs, elas) == []


# -- residual_engines checks -----------------------------------------------------------


@pytest.mark.parametrize("kind", ["dijkstra_heterogeneous", "lp_optimization"])
def test_engine_result_check(kind):
    g = ne.gen_watts_strogatz(12, 4, 0.3, seed=2)
    tol = workloads.LP_TOL if kind == "lp_optimization" else 1e-9
    res = ne.evaluate_throughput(g, ne.ThroughputModel(kind))
    assert workloads.check_engine_result(res, 12, g.edges(), tol) == []

    over = ne.ThroughputResult(res.raw_throughput * 1e3, {k: v * 1e3 for k, v in res.per_pair_delivered.items()})
    assert any("2m" in p for p in workloads.check_engine_result(over, 12, g.edges(), tol))
    hom = oracles.homogeneous_throughput(12, g.edges())
    scale = 0.999 * hom / res.raw_throughput
    under = ne.ThroughputResult(res.raw_throughput * scale, {k: v * scale for k, v in res.per_pair_delivered.items()})
    assert any("homogeneous" in p for p in workloads.check_engine_result(under, 12, g.edges(), tol))


def test_engine_curve_check_rejects_a_sample_below_the_homogeneous_floor():
    g = ne.gen_watts_strogatz(14, 4, 0.2, seed=3)
    strategy = ne.AttackStrategy("highest_degree", batch=3)
    curve = ne.elasticity(g, strategy, ne.ThroughputModel("dijkstra_heterogeneous"))
    refs = workloads._residual_curve_refs(g, strategy)
    assert workloads.check_engine_curve(curve, strategy, refs) == []
    hom, _ = refs[2]
    curve.normalized[2] = 0.99 * hom / curve.alpha
    problems = workloads.check_engine_curve(curve, strategy, refs)
    assert any("sample 2" in p for p in problems) and any("trapezoid" in p for p in problems)
