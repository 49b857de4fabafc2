"""The benchmark's span tracer still sees every engine.

netelast_bench/tracing.py wraps module attributes, so a span shows up only
while netelast keeps calling its engines, `raw_throughput` and `_csr.bfs`
through those module-level names.  This guard runs the tracer as the
benchmark does and edits nothing of it.
"""

import importlib.util
from pathlib import Path

import pytest

import netelast as ne
from netelast import AttackStrategy, ThroughputModel

_PATH = Path(__file__).resolve().parent.parent / "netelast_bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# the per-layer call count of each engine's span
ENGINE_CALLS = {
    "dijkstra_homogeneous": "throughput.homogeneous_calls",
    "dijkstra_heterogeneous": "throughput.heterogeneous_calls",
    "lp_optimization": "throughput.lp_calls",
}


@pytest.mark.parametrize("kind", sorted(ENGINE_CALLS))
def test_every_engine_records_its_spans(kind):
    g = ne.gen_preferential_attachment(20, 2, seed=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        curve = ne.elasticity(g, AttackStrategy("highest_betweenness", batch=2), ThroughputModel(kind))
    finally:
        tracer.uninstall()
    # netelast.experiment no longer imports elasticity; every other entry point resolves
    assert set(tracer.missing) <= {"netelast.experiment.elasticity"}
    layers = tracer.summary(tracer.run_id)
    assert layers[ENGINE_CALLS[kind]] > 0
    assert layers["csr.bfs_calls"] > 0
    assert layers["robustness.evaluations"] == len(curve.fractions)
    if kind == "lp_optimization":
        assert layers["throughput.linprog_calls"] > 0
    # the adaptive ranking reads the routing traversal, not a standalone pass
    assert layers["graph.betweenness_calls"] == 0
