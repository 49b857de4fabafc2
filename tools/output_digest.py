#!/usr/bin/env python3
"""sha256 digests of netelast's curves and report bundles, to show that a
change keeps its outputs byte-identical.

    PYTHONPATH=<tree>/src python3 tools/output_digest.py [--pool-size N] > digest.json

Prints one JSON object of 222 records, each a sha256 hex digest:

- 120 curves, `curve/<engine>-<tie break>/<graph>/<attack>/batch<b>`: the
  five attack forms (random, static and adaptive degree, static and
  adaptive betweenness) at batch 1 and 3, one `robustness._curves` call per
  engine, tie-break, graph and batch, on `gen_watts_strogatz(13, 4, 0.3,
  seed=5)` and `gen_preferential_attachment(14, 2, 3)`.  A curve's digest
  covers the bytes of its fraction and throughput arrays and the repr of
  its elasticity, alpha, strategy, model and seed; an error's covers its
  type and message.
- 12 evaluations, `eval/<engine>-<tie break>/<graph>`: the repr of
  `(raw_throughput, list(per_pair_delivered.items()))` of one
  `evaluate_throughput` call on each of the two graphs above.
- 78 tables, `run/<engine>-<tie break>/<file>`: every CSV of one
  `run_experiment` bundle per engine and tie-break, 3 topologies under 3
  attacks (9 curves and 4 tables each).
- 12 kernel records on the two graphs above and the fragmented
  `gen_gilbert(30, 0.07, seed=4)` (components of 14, 9, 2, 2, 1, 1 and 1
  nodes): `betweenness/<graph>`, the bytes of `betweenness`;
  `spt/<tie break>/<graph>`, the bytes of the distances and predecessors of
  `shortest_path_tree` from the first, middle and last id; and
  `metrics/<graph>`, the repr of a standalone `metrics` report.

`--pool-size N` replaces `robustness._pool_size`, so that every call
splits each curve over N lanes and runs them in N worker processes (1: in
this process).  The library is imported from PYTHONPATH, so the script
digests any checkout; compare two trees' maps with `diff`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

import netelast as ne
from netelast import robustness
from netelast.experiment import load_config, run_experiment

ENGINES = ("dijkstra_homogeneous", "dijkstra_heterogeneous", "lp_optimization")
TIE_BREAKS = ("sequential", "random")
# (attack kind, recompute)
FORMS = [("random", True), ("highest_degree", False), ("highest_degree", True),
         ("highest_betweenness", False), ("highest_betweenness", True)]
BUNDLE = """[experiment]
output_dir = out
global_seed = 3
model = {engine}
tie_break = {tie_break}
{tie_seed}batch = 2
[topology:mesh]
family = mesh
n = 8
[topology:ws]
family = watts_strogatz
n = 12
k = 4
p = 0.3
[topology:pa]
family = preferential_attachment
n = 14
m = 2
"""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _curve_digest(cell) -> str:
    if isinstance(cell, ne.ElasticityCurve):
        fields = (cell.elasticity, cell.alpha, cell.strategy, cell.model, cell.seed)
        return _sha(cell.fractions.tobytes() + cell.normalized.tobytes() + repr(fields).encode())
    return _sha(f"{type(cell).__name__}: {cell}".encode())


def _records(engine: str, tie_break: str) -> dict[str, str]:
    """The curve, evaluation and bundle records of one engine and tie-break."""
    random_tie = tie_break == "random"
    model = ne.ThroughputModel(engine, tie_break, 4 if random_tie else None)
    graphs = {"ws": ne.gen_watts_strogatz(13, 4, 0.3, seed=5), "pa": ne.gen_preferential_attachment(14, 2, 3)}
    prefix, out = f"{engine}-{tie_break}", {}
    for name, g in graphs.items():
        for batch in (1, 3):
            strategies = [
                ne.AttackStrategy(kind, seed=7 if kind == "random" else None, recompute=recompute, batch=batch)
                for kind, recompute in FORMS
            ]
            cells = robustness._curves(g, strategies, model, 1.0)
            for (kind, recompute), cell in zip(FORMS, cells):
                form = kind if kind == "random" else f"{kind}-{'adaptive' if recompute else 'static'}"
                out[f"curve/{prefix}/{name}/{form}/batch{batch}"] = _curve_digest(cell)
        r = ne.evaluate_throughput(g, model)
        out[f"eval/{prefix}/{name}"] = _sha(repr((r.raw_throughput, list(r.per_pair_delivered.items()))).encode())
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "grid.ini"
        tie_seed = "tie_seed = 5\n" if random_tie else ""
        config.write_text(BUNDLE.format(engine=engine, tie_break=tie_break, tie_seed=tie_seed))
        bundle = run_experiment(load_config(config)).output_dir
        for path in sorted(bundle.rglob("*.csv")):
            out[f"run/{prefix}/{path.relative_to(bundle).as_posix()}"] = _sha(path.read_bytes())
    return out


def _kernel_records() -> dict[str, str]:
    """The betweenness, shortest-path tree and metrics records, which no
    engine or pool size enters."""
    graphs = {"ws": ne.gen_watts_strogatz(13, 4, 0.3, seed=5), "pa": ne.gen_preferential_attachment(14, 2, 3),
              "gilbert": ne.gen_gilbert(30, 0.07, seed=4)}
    out = {}
    for name, g in graphs.items():
        out[f"betweenness/{name}"] = _sha(ne.betweenness(g).tobytes())
        for tie_break in TIE_BREAKS:
            seed = 4 if tie_break == "random" else None
            trees = [ne.shortest_path_tree(g, s, tie_break, seed) for s in (0, g.id_space // 2, g.id_space - 1)]
            out[f"spt/{tie_break}/{name}"] = _sha(b"".join(a.tobytes() for tree in trees for a in tree))
        out[f"metrics/{name}"] = _sha(repr(ne.metrics(g)).encode())
    return out


def digests(pool_size: int, engines=ENGINES) -> dict[str, str]:
    """Every record of `engines` and the kernel records, with `pool_size`
    lanes and workers per call."""
    real = robustness._pool_size
    robustness._pool_size = lambda work: pool_size
    try:
        out = {key: value for e in engines for t in TIE_BREAKS for key, value in _records(e, t).items()}
        return {**out, **_kernel_records()}
    finally:
        robustness._pool_size = real


def main() -> None:
    parser = argparse.ArgumentParser(description="sha256 digests of netelast's curves and report bundles")
    parser.add_argument("--pool-size", type=int, default=1, help="lanes per curve and worker processes (default 1)")
    args = parser.parse_args()
    if args.pool_size < 1:
        parser.error("--pool-size must be >= 1")
    print(json.dumps(digests(args.pool_size), indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
