"""The package: its public names, and what importing it loads."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import netelast as ne


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


def run_python(script, *paths):
    """stdout lines of `script` in a fresh interpreter, with `paths` and then
    netelast's source directory first on PYTHONPATH."""
    src = Path(ne.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [*map(str, paths), str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout.splitlines()


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
