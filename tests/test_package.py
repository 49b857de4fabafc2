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


def test_import_loads_no_scipy_until_the_first_lp_solve():
    # scipy (HiGHS) is the LP's alone; every other path runs on numpy, and
    # the worker pool's modules load when a pool is first sized
    script = (
        "import sys\n"
        "import netelast, netelast.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'concurrent', 'multiprocessing'))))\n"
        "print(netelast.throughput_lp(netelast.gen_mesh(3)).raw_throughput)\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = Path(ne.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", "6.0", "True"]
