#!/usr/bin/env python3
"""netelast benchmark: one workload per process.

    python3 netelast_bench/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed (set-up), then runs whole rounds of
the workload's operations until --seconds have passed (at least one round),
checks every round's outputs against independent computations, and prints
one JSON object as the last line of standard output.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced rounds and reports the per-layer metrics plus the tracing overhead.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 2  # extra fresh-process set-ups; setup_s is the median of 1 + these

import workloads  # noqa: E402  (stdlib-only at import time)


def _setup(workload, seed: int):
    """Import netelast and build the inputs; returns (inputs, seconds)."""
    t0 = time.perf_counter()
    import netelast  # noqa: F401

    inputs = workload.setup(seed, OUT / workload.name)
    return inputs, time.perf_counter() - t0


def _probe_setup(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _timed_round(workload, inputs):
    gc.collect()
    t0 = time.perf_counter()
    rnd = workload.run(inputs)
    return rnd, time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "netelast" / "__init__.py").is_file():
        print(f"error: netelast sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        _, seconds = _setup(workload, args.seed)
        print(repr(seconds))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        inputs, _ = tracer.span("bench.setup", _setup, workload, args.seed)
        tracer.uninstall()
    else:
        inputs, first = _setup(workload, args.seed)
        setup_times = [first] + [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    rounds, traced_runs = [], []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.run_id = len(rounds) + 1
            traced_runs.append(tracer.run_id)
            tracer.install()
            try:
                rnd, dt = tracer.span("bench.round", _timed_round, workload, inputs)
            finally:
                tracer.uninstall()
        else:
            rnd, dt = _timed_round(workload, inputs)
        rounds.append((rnd, dt, traced, workload.snapshot(inputs, rnd)))
        elapsed = time.perf_counter() - started
        if elapsed >= args.seconds and (tracer is None or traced_runs):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = workload.check(inputs, [snap for _, _, _, snap in rounds])
    attempted = sum(r.attempted for r, _, _, _ in rounds)
    failed = sum(r.failed for r, _, _, _ in rounds)
    plain = [dt for _, dt, traced, _ in rounds if not traced]
    run_s = statistics.median(plain)
    evals = rounds[0][0].evaluations

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "evals_per_s": (evals / run_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced_s = statistics.median(dt for _, dt, traced, _ in rounds if traced)
        layer = tracer.per_layer(0, traced_runs)
        metrics = {k: (v, "s" if k.endswith("_s") else "count") for k, v in layer.items()}
        metrics["trace.untraced_round_s"] = (run_s, "s")
        metrics["trace.traced_round_s"] = (traced_s, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced_s - run_s) / run_s, "%")
        tracer.write(OUT / args.workload / "spans.tsv")

    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(
        f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s), "
        f"{evals} evaluations per round, attempted {attempted}, failed {failed}, "
        f"checks {'passed' if not problems else f'FAILED ({len(problems)})'}"
    )
    print("  round_s " + " ".join(f"{dt:.4f}{'*' if traced else ''}" for _, dt, traced, _ in rounds))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
