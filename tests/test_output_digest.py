"""tools/output_digest.py: the same homogeneous records at pool sizes 1 and 2."""

import importlib.util
import multiprocessing
from pathlib import Path

from netelast import robustness

from conftest import deadline

_PATH = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _PATH)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def test_homogeneous_records_identical_at_pool_sizes_1_and_2(monkeypatch):
    real_raw, parent = robustness.raw_throughput, []
    monkeypatch.setattr(robustness, "raw_throughput", lambda *a, **k: parent.append(1) or real_raw(*a, **k))
    real_size, runs, calls = robustness._pool_size, [], []
    for size in (1, 2):
        parent.clear()
        with deadline(120):
            runs.append(output_digest.digests(size, engines=("dijkstra_homogeneous",)))
        calls.append(len(parent))
    one, two = runs
    # per tie-break, 2 graphs x 5 attack forms x 2 batches, 2 evaluations and
    # 13 CSVs of a bundle; then per graph of 3, its betweenness, its metrics
    # and a shortest-path tree record per tie-break
    assert len(one) == 2 * (20 + 2 + 13) + 3 * (2 + 2)
    assert one == two
    # evaluated here at size 1 and in the workers at size 2
    assert calls[0] > 0 and calls[1] == 0
    assert robustness._pool_size is real_size
    assert multiprocessing.active_children() == []
