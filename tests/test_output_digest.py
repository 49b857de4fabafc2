"""tools/output_digest.py: the byte-identity gate.

The whole map that the script prints has one pinned md5, at pool sizes 1
and 2, and its kernel records do not depend on how bfs splits its sources
into blocks.  Re-pin `PINNED_MD5` only for an intended output change, and
list every record that moved in CHANGES.md.
"""

import hashlib
import importlib.util
import multiprocessing
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from netelast import _csr, robustness

from conftest import deadline

_PATH = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _PATH)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)

# md5 of `tools/output_digest.py --pool-size N` for N = 1 and 2, with numpy
# 2.4.6, scipy 1.17.1 and Python 3.11.7
PINNED_MD5 = "f38c75a2704d728aa0dd877bd56c6aab"


@pytest.mark.parametrize("size", [1, 2])
def test_output_digest_map_is_pinned(monkeypatch, size):
    real_raw, here = robustness.raw_throughput, []
    monkeypatch.setattr(robustness, "raw_throughput", lambda *a, **k: here.append(1) or real_raw(*a, **k))
    real_size = robustness._pool_size
    with deadline(120):
        text = output_digest.render(output_digest.digests(size))
    md5 = hashlib.md5(text.encode()).hexdigest()
    assert md5 == PINNED_MD5, (
        f"the output-digest map at pool size {size} has md5 {md5}, not the pinned {PINNED_MD5} "
        f"(numpy {np.__version__}, scipy {scipy.__version__}, Python {sys.version.split()[0]}). "
        "See which records moved with: diff <(PYTHONPATH=<parent checkout>/src python3 "
        f"tools/output_digest.py --pool-size {size}) <(PYTHONPATH=src python3 tools/output_digest.py "
        f"--pool-size {size}). Re-pin PINNED_MD5 only for an intended output change, and list every "
        "moved record in CHANGES.md."
    )
    # evaluated here at size 1 and only in the workers at size 2
    assert bool(here) == (size == 1)
    assert robustness._pool_size is real_size
    assert multiprocessing.active_children() == []


def test_kernel_records_do_not_depend_on_the_block_split(monkeypatch):
    default = output_digest._kernel_records()
    monkeypatch.setattr(_csr, "_BLOCK_NODES", 1)
    assert output_digest._kernel_records() == default
