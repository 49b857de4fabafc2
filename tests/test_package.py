"""The package: its public names, and what importing it loads."""

import importlib
import pkgutil
from dataclasses import fields

import pytest

import netelast as ne

from conftest import run_python


def test_every_all_entry_resolves():
    # a stale __all__ entry breaks `from netelast.<module> import *`
    modules = [ne] + [
        importlib.import_module(f"netelast.{info.name}") for info in pkgutil.iter_modules(ne.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_names_are_the_modules_all():
    # each module's __all__ states its public names once; the package
    # re-exports them in import order, bound to the modules' own objects
    modules = [
        importlib.import_module(f"netelast.{name}")
        for name in ("errors", "generators", "graph", "throughput", "robustness", "experiment")
    ]
    assert ne.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(ne.__all__)) == len(ne.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(ne, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_import_loads_no_scipy_until_the_first_lp_solve():
    # scipy (HiGHS) is the LP's alone; every other path runs on numpy, and
    # the worker pool's modules load when a pool is first sized.  The LP
    # loads the binding without scipy.optimize, and a later scipy.optimize
    # gets the same binding module and still solves
    out = run_python(
        "import sys\n"
        "import netelast, netelast.cli\n"
        "from netelast import throughput\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'concurrent', 'multiprocessing'))))\n"
        "print(netelast.throughput_lp(netelast.gen_mesh(3)).raw_throughput)\n"
        "print('scipy.optimize' in sys.modules)\n"
        "import scipy.optimize\n"
        "from scipy.optimize._highspy import _core\n"
        "print(_core is throughput._highs()[0] is sys.modules['scipy.optimize._highspy._core'])\n"
        "print(scipy.optimize.linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1], method='highs').fun)\n"
    )
    assert out == ["[]", "6.0", "False", "True", "1.0"]


def test_lp_after_scipy_optimize_reuses_its_binding():
    out = run_python(
        "import scipy.optimize\n"
        "binding = scipy.optimize._highspy._core\n"
        "import netelast\n"
        "from netelast import throughput\n"
        "print(netelast.throughput_lp(netelast.gen_mesh(3)).raw_throughput)\n"
        "print(throughput._highs()[0] is binding is scipy.optimize._highspy._core)\n"
    )
    assert out == ["6.0", "True"]


def test_lp_without_the_binding_names_the_scipy_it_needs(tmp_path):
    # a scipy without scipy/optimize/_highspy (an empty stub package here)
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    out = run_python(
        "import netelast\n"
        "g = netelast.gen_mesh(3)\n"
        "try:\n"
        "    netelast.throughput_lp(g)\n"
        "except ImportError as e:\n"
        "    print(type(e).__name__, e)\n",
        tmp_path,
    )
    assert len(out) == 1 and out[0].startswith("ImportError ") and "scipy>=1.15" in out[0]


# Every public callable that takes a count, a seed or a real number, with
# that parameter: (label, call with the value under test, a value it
# accepts, the parameter's kind).  A new such parameter gets a row.
GUARDED = [
    ("Graph.n", ne.Graph, 3, "count"),
    ("Graph.from_edges.n", lambda v: ne.Graph.from_edges(v, [(0, 1)]), 3, "count"),
    ("gen_gilbert.n", lambda v: ne.gen_gilbert(v, 0.5, 1), 10, "count"),
    ("gen_gilbert.p", lambda v: ne.gen_gilbert(10, v, 1), 0.5, "real"),
    ("gen_gilbert.seed", lambda v: ne.gen_gilbert(10, 0.5, v), 1, "seed"),
    ("gen_watts_strogatz.n", lambda v: ne.gen_watts_strogatz(v, 4, 0.1, 1), 10, "count"),
    ("gen_watts_strogatz.k", lambda v: ne.gen_watts_strogatz(10, v, 0.1, 1), 4, "count"),
    ("gen_watts_strogatz.p", lambda v: ne.gen_watts_strogatz(10, 4, v, 1), 0.1, "real"),
    ("gen_watts_strogatz.seed", lambda v: ne.gen_watts_strogatz(10, 4, 0.1, v), 1, "seed"),
    ("gen_preferential_attachment.n", lambda v: ne.gen_preferential_attachment(v, 2, 1), 10, "count"),
    ("gen_preferential_attachment.m", lambda v: ne.gen_preferential_attachment(10, v, 1), 2, "count"),
    ("gen_preferential_attachment.seed", lambda v: ne.gen_preferential_attachment(10, 2, v), 1, "seed"),
    ("gen_near_regular.rows", lambda v: ne.gen_near_regular(v, 3), 3, "count"),
    ("gen_near_regular.cols", lambda v: ne.gen_near_regular(3, v), 3, "count"),
    ("gen_mesh.n", ne.gen_mesh, 4, "count"),
    ("ThroughputModel.seed", lambda v: ne.ThroughputModel(tie_break="random", seed=v), 1, "seed"),
    ("shortest_path_tree.seed", lambda v: ne.shortest_path_tree(ne.gen_mesh(4), 0, "random", v), 1, "seed"),
    ("compare_models.seed", lambda v: ne.compare_models(ne.gen_mesh(4), "random", v), 1, "seed"),
    ("AttackStrategy.batch", lambda v: ne.AttackStrategy("highest_degree", batch=v), 2, "count"),
    ("AttackStrategy.seed", lambda v: ne.AttackStrategy("random", seed=v), 1, "seed"),
    ("attack_sequence.seed", lambda v: ne.attack_sequence(ne.gen_mesh(4), ne.AttackStrategy("random", seed=v)), 1, "seed"),
    (
        "elasticity.stop_fraction",
        lambda v: ne.elasticity(ne.gen_mesh(4), ne.AttackStrategy("highest_degree"), stop_fraction=v),
        0.5,
        "real",
    ),
    ("mesh_elasticity_discrete.n", lambda v: ne.mesh_elasticity_discrete(v, 2), 5, "count"),
    ("mesh_elasticity_discrete.zeta", lambda v: ne.mesh_elasticity_discrete(5, v), 2, "count"),
    ("mesh_elasticity_continuous.n", lambda v: ne.mesh_elasticity_continuous(v, 2), 5, "count"),
    ("mesh_elasticity_continuous.zeta", lambda v: ne.mesh_elasticity_continuous(5, v), 2, "real"),
    *[
        (f"TradeoffParams.{f.name}", lambda v, name=f.name: ne.TradeoffParams(**{name: v}), 0.5, "real")
        for f in fields(ne.TradeoffParams)
    ],
    ("tradeoff_re.elas_r", lambda v: ne.tradeoff_re(v, 0.1, 0.1, 10, 20), 0.1, "real"),
    ("tradeoff_re.elas_d", lambda v: ne.tradeoff_re(0.1, v, 0.1, 10, 20), 0.1, "real"),
    ("tradeoff_re.elas_b", lambda v: ne.tradeoff_re(0.1, 0.1, v, 10, 20), 0.1, "real"),
    ("tradeoff_re.n", lambda v: ne.tradeoff_re(0.1, 0.1, 0.1, v, 20), 10, "count"),
    ("tradeoff_re.m", lambda v: ne.tradeoff_re(0.1, 0.1, 0.1, 10, v), 20, "count"),
    ("ExperimentConfig.batch", lambda v: ne.ExperimentConfig([], batch=v), 2, "count"),
    ("ExperimentConfig.stop_fraction", lambda v: ne.ExperimentConfig([], stop_fraction=v), 0.5, "real"),
    ("ExperimentConfig.global_seed", lambda v: ne.ExperimentConfig([], global_seed=v), 1, "seed"),
]


def _wrong_types(good, kind):
    """A float for a count or a seed, a bool, and the accepted value as text."""
    return ([float(good)] if kind != "real" else []) + [True, str(good)]


@pytest.mark.parametrize("call, good", [row[1:3] for row in GUARDED], ids=[row[0] for row in GUARDED])
def test_guarded_parameter_accepts_its_value(call, good):
    call(good)


@pytest.mark.parametrize(
    "call, bad",
    [(call, bad) for _, call, good, kind in GUARDED for bad in _wrong_types(good, kind)],
    ids=[f"{label}-{bad!r}" for label, _, good, kind in GUARDED for bad in _wrong_types(good, kind)],
)
def test_guarded_parameter_refuses_a_value_of_the_wrong_type(call, bad):
    # a ParameterError, never a TypeError from deeper down and never a value:
    # tradeoff_re(0.1, 0.1, 0.1, 10.5, 20) used to return -0.0935 and
    # mesh_elasticity_continuous(10, True) to read True as zeta = 1
    with pytest.raises(ne.ParameterError):
        call(bad)
