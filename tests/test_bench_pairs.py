"""The pair summary of tools/bench_pairs.py: bound check, gain rule, spread
and run health."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "evals_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _runs(parent, change, broken=None, step=0.01):
    """Ten pairs with the given (run_s, evals_per_s) per side, each pair
    `step` above the one before; `broken` marks one change run incorrect
    with one failed operation."""
    runs = []
    for i in range(10):
        for side, (run_s, evals) in (("parent", parent), ("change", change)):
            runs.append({
                "pair": i, "side": side, "correct": True, "failed": 0,
                "metrics": {"run_s": {"value": run_s + step * i}, "evals_per_s": {"value": evals + step * i}},
            })
    if broken is not None:
        runs[2 * broken + 1].update(correct=False, failed=1)
    return runs


def test_clear_gain_is_shown_and_not_regressed():
    summary = bench_pairs._summary(_runs((4.0, 5.0), (2.0, 10.0)), SPECS)
    assert [summary[m]["gain_shown"] for m in ("run_s", "evals_per_s")] == [True, True]
    assert not summary["run_s"]["regressed"] and not summary["evals_per_s"]["regressed"]


@pytest.mark.parametrize("change, regressed", [((4.9, 4.1), False), ((5.2, 3.6), True)])
def test_regressed_past_the_bound(change, regressed):
    summary = bench_pairs._summary(_runs((4.0, 5.0), change), SPECS)
    assert summary["run_s"]["regressed"] is regressed
    assert summary["evals_per_s"]["regressed"] is regressed


@pytest.mark.parametrize("parent, change, step, unresolved", [
    # interquartile range 2.25 on medians near 6: wider than the 25 % bound
    ((4.0, 5.0), (4.1, 4.9), 0.5, True),
    ((4.0, 5.0), (4.1, 4.9), 0.01, False),
    # as wide, but every change run beats every parent run
    ((10.0, 5.0), (2.0, 20.0), 0.5, False),
])
def test_a_wide_spread_is_unresolved_unless_the_change_dominates(parent, change, step, unresolved):
    summary = bench_pairs._summary(_runs(parent, change, step=step), SPECS)
    assert [summary[m]["unresolved"] for m in ("run_s", "evals_per_s")] == [unresolved, unresolved]


def test_an_incorrect_run_hides_the_gain():
    runs = _runs((4.0, 5.0), (2.0, 10.0), broken=3)
    summary = bench_pairs._summary(runs, SPECS)
    assert not summary["run_s"]["gain_shown"] and not summary["evals_per_s"]["gain_shown"]
    assert bench_pairs._health(runs) == {
        "parent": {"all_correct": True, "failed": 0},
        "change": {"all_correct": False, "failed": 1},
    }


# A benchmark stand-in whose child peaks 48 MB above the stand-in's own peak,
# and exits before the stand-in reports.  The own peak is relative because a
# process started by vfork and exec inherits its parent's peak (here pytest's).
_FAKE_RUN = """
import json, resource, subprocess, sys
own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
subprocess.run([sys.executable, "-c", f"x = b'x' * ({int(own) + 48} << 20)"], check=True)
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {"peak_rss_mb": {"value": own}}}))
"""


def test_tree_peak_counts_the_workers(tmp_path):
    (tmp_path / "netelast_bench").mkdir()
    (tmp_path / "netelast_bench" / "run.py").write_text(_FAKE_RUN)
    result = bench_pairs._run(tmp_path, "paper_grid", 1, 1.0)
    assert result["tree_peak_rss_mb"] > result["metrics"]["peak_rss_mb"]["value"] + 40


def test_src_lines_counts_the_library_modules(tmp_path):
    package = tmp_path / "src" / "netelast"
    package.mkdir(parents=True)
    (package / "a.py").write_text("import os\n\nx = 1\n")
    (package / "b.py").write_text("y = 2\nz = 3")
    (package / "notes.txt").write_text("not counted\n")
    (tmp_path / "tools.py").write_text("not counted\n")
    assert bench_pairs._src_lines(tmp_path) == 5


_MODULE = '''"""Module docstring,
over two lines."""

# a comment
x = (1,  # a trailing comment
     2)

def f():
    """Function docstring."""
    return """a string
that is not a docstring"""

class C:
    "Class docstring."
    y = 1
'''


def test_src_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    package = tmp_path / "src" / "netelast"
    package.mkdir(parents=True)
    (package / "a.py").write_text(_MODULE)
    (package / "b.py").write_text("z = 3")
    (tmp_path / "tools.py").write_text("not_counted = 1\n")
    # x over two lines, def, return over two lines, class, y and z
    assert bench_pairs._src_code_lines(tmp_path) == 8
    assert bench_pairs._src_lines(tmp_path) == 16
