"""Every demo script runs to completion."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # run a copy, so that files a demo writes next to itself land in tmp_path
    script = shutil.copy(demo, tmp_path)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_paper_grid_config_loads():
    from netelast.experiment import load_config

    config = load_config(ROOT / "demos" / "paper_grid.ini")
    assert [t.name for t in config.topologies] == ["gilbert", "pa", "ws", "grid"]
    assert [t.spec.family for t in config.topologies] == [
        "gilbert", "preferential_attachment", "watts_strogatz", "near_regular"
    ]
    assert (config.global_seed, config.batch, config.recompute, config.stop_fraction) == (1, 10, True, 1.0)
    assert config.output_dir == ROOT / "demos" / "paper_grid_results"
