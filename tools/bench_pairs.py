#!/usr/bin/env python3
"""Interleaved parent/change pairs of the netelast benchmark, run back to back.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --out BENCH.json

Extracts the `--parent` commit (default HEAD) with `git archive` into a
temporary directory and runs `netelast_bench/run.py` (`--trace 0`) there and
in this checkout's working tree, alternately, `--pairs` times per workload:
pair i uses seed `--seed` + i, and the parent runs first in even pairs, the
change in odd ones.  Every run is one fresh process, one after the other.  The output file
holds every run's metrics, wall time and `tree_peak_rss_mb` (the peak resident
set of the run's largest process, worker processes included, with each side's
median and quartiles); per workload and side, whether every run passed
its output checks (`all_correct`) and the total of failed operations; and
per end-to-end metric of BENCHMARK.json each side's median and quartiles,
the change's wins over its pairs, whether it regressed (its median is worse
than the parent's by more than the metric's bound), whether a gain is
shown: every run of both sides is correct with no failed operation, the
change wins at least nine pairs in ten, and the medians differ by more than
the parent's interquartile range; and whether it is unresolved: the wider
side's interquartile range, relative to the parent's median, exceeds the
bound, and not every change run is better than every parent run, so the
runs spread too widely to call the metric unchanged.  A run that fails its
checks is reported on stderr as it finishes.  The file also records the
host's core count, the python/numpy/scipy versions, both commits and each
side's `src_lines`, the
line count of `src/netelast/*.py` in its tree, and `src_code_lines`, the
same count without blank lines, comments and docstrings.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def _extract(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def _src_lines(tree: Path) -> int:
    """Lines of the library's modules, src/netelast/*.py, in `tree`."""
    return sum(len(path.read_text().splitlines()) for path in (tree / "src" / "netelast").glob("*.py"))


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def _src_code_lines(tree: Path) -> int:
    """Code lines of src/netelast/*.py in `tree`: the lines that hold a
    token other than a comment or a docstring, so blank lines, comments and
    docstrings do not count."""
    total = 0
    for path in (tree / "src" / "netelast").glob("*.py"):
        source = path.read_text()
        docstrings = {
            (node.body[0].lineno, node.body[0].col_offset)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)
        }
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type not in _NOT_CODE and not (tok.type == tokenize.STRING and tok.start in docstrings):
                lines.update(range(tok.start[0], tok.end[0] + 1))
        total += len(lines)
    return total


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process in `tree`: its closing JSON line, its wall time,
    and `tree_peak_rss_mb`, the largest peak resident set of the process and
    the descendants it waited for (the kernel reports their maximum, not
    their sum), which the process's own `peak_rss_mb` does not see."""
    started = time.perf_counter()
    # output goes to files: reading pipes would need `wait`, which reaps the
    # process before `wait4` can read its resource usage
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "netelast_bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, stdout=out, stderr=err, text=True,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
        out.seek(0)
        err.seek(0)
        if proc.returncode != 0:
            raise RuntimeError(f"{tree} {workload} seed {seed} exited {proc.returncode}:\n{err.read()}")
        result = json.loads(out.read().strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    result["tree_peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _sound(run: dict) -> bool:
    """The run's outputs passed their checks and no operation failed."""
    return run["correct"] and run["failed"] == 0


def _health(runs: list[dict]) -> dict:
    """Per side: whether every run was correct, and the failed operations of all runs."""
    out = {}
    for side in ("parent", "change"):
        mine = [r for r in runs if r["side"] == side]
        out[side] = {"all_correct": all(r["correct"] for r in mine), "failed": sum(r["failed"] for r in mine)}
    return out


def _summary(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' spread, the change's pair wins, the
    bound check, the gain rule and whether the spread leaves it unresolved."""
    pairs = sorted({r["pair"] for r in runs})
    value = {(r["pair"], r["side"]): r["metrics"] for r in runs}
    sound = all(_sound(r) for r in runs)
    out = {}
    for spec in metrics:
        name, sign = spec["name"], (1.0 if spec["better"] == "lower" else -1.0)
        side = {s: [value[p, s][name]["value"] for p in pairs] for s in ("parent", "change")}
        parent, change = _spread(side["parent"]), _spread(side["change"])
        diffs = [sign * (p - c) for p, c in zip(side["parent"], side["change"])]
        wins, ties = sum(d > 0 for d in diffs), sum(d == 0 for d in diffs)
        iqr = parent["q3"] - parent["q1"]
        widest = max(iqr, change["q3"] - change["q1"])
        dominates = max(sign * c for c in side["change"]) < min(sign * p for p in side["parent"])
        worse_pct = sign * 100.0 * (change["median"] - parent["median"]) / parent["median"]
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": parent,
            "change": change,
            "median_change_pct": 100.0 * (change["median"] - parent["median"]) / parent["median"],
            "bound_pct": 100.0 * spec["bound"],
            "change_wins": wins,
            "ties": ties,
            "pairs": len(pairs),
            "parent_iqr": iqr,
            "regressed": worse_pct > 100.0 * spec["bound"],
            "gain_shown": sound and wins >= 0.9 * len(pairs) and sign * (parent["median"] - change["median"]) > iqr,
            "unresolved": widest / abs(parent["median"]) > spec["bound"] and not dominates,
        }
    return out


def _versions() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", default="HEAD", help="git revision of the parent side (default HEAD)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None, help="run length (default: BENCHMARK.json's)")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--workload", action="append", help="repeatable (default: every workload of BENCHMARK.json)")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    parent_commit = _git("rev-parse", args.parent)
    report = {
        "parent": {"commit": parent_commit},
        # the change side is the working tree, which may hold uncommitted edits
        "change": {"commit": _git("rev-parse", "HEAD"), "uncommitted": bool(_git("status", "--porcelain")),
                   "src_lines": _src_lines(ROOT), "src_code_lines": _src_code_lines(ROOT)},
        "host": _versions(),
        "settings": {"pairs": args.pairs, "seconds": seconds, "seeds": [args.seed + i for i in range(args.pairs)]},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as tmp:
        _extract(parent_commit, Path(tmp))
        report["parent"]["src_lines"] = _src_lines(Path(tmp))
        report["parent"]["src_code_lines"] = _src_code_lines(Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                for order, side in enumerate(("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    result = _run(trees[side], workload, args.seed + i, seconds)
                    runs.append({"pair": i, "seed": args.seed + i, "side": side, "order": order, **result})
                    print(f"{workload} pair {i} {side}: run_s {result['metrics']['run_s']['value']:.4f}",
                          flush=True)
                    if not _sound(result):
                        print(f"{workload} pair {i} {side}: correct {result['correct']}, "
                              f"failed {result['failed']}", file=sys.stderr, flush=True)
            report["workloads"][workload] = {
                "health": _health(runs), "summary": _summary(runs, bench["end_to_end"]),
                "tree_peak_rss_mb": {side: _spread([r["tree_peak_rss_mb"] for r in runs if r["side"] == side])
                                     for side in ("parent", "change")},
                "runs": runs,
            }
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
