"""Span recorder that wraps netelast's entry points from outside the library.

Wrapping replaces module and class attributes, so the wrapper sits wherever
the library looks the name up at call time (a module global, or a name
imported into another module).  Aliases of one function share one wrapper.
Spans (name, start, end, parent span, run id) stay in flat arrays in memory
until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array
from pathlib import Path

# (module[:class], attribute, span name).  A span's layer is the part of its
# name before the first dot; linprog is scipy's HiGHS, not netelast code.
ENTRY_POINTS = [
    ("netelast.generators", "gen_gilbert", "generators.build"),
    ("netelast.generators", "gen_watts_strogatz", "generators.build"),
    ("netelast.generators", "gen_preferential_attachment", "generators.build"),
    ("netelast.generators", "gen_near_regular", "generators.build"),
    ("netelast.generators", "gen_mesh", "generators.build"),
    ("netelast.graph:Graph", "csr", "graph.csr"),
    ("netelast.graph:Graph", "remove_node", "graph.remove_node"),
    ("netelast.graph:Graph", "copy", "graph.copy"),
    ("netelast.graph", "betweenness", "graph.betweenness"),
    ("netelast.robustness", "betweenness", "graph.betweenness"),
    ("netelast.graph", "metrics", "graph.metrics"),
    ("netelast.experiment", "metrics", "graph.metrics"),
    ("netelast.graph", "connected_components", "graph.components"),
    ("netelast._csr", "bfs", "csr.bfs"),
    ("netelast._csr", "build_csr", "csr.build_csr"),
    ("netelast.robustness", "raw_throughput", "throughput.raw_throughput"),
    ("netelast.throughput", "evaluate_throughput", "throughput.evaluate"),
    ("netelast.throughput", "throughput_dijkstra_homogeneous", "throughput.homogeneous"),
    ("netelast.throughput", "_raw_homogeneous", "throughput.homogeneous"),
    ("netelast.throughput", "throughput_dijkstra_heterogeneous", "throughput.heterogeneous"),
    ("netelast.throughput", "throughput_lp", "throughput.lp"),
    ("netelast.throughput", "linprog", "scipy.linprog"),
    ("netelast.robustness", "attack_sequence", "robustness.attack_sequence"),
    ("netelast.robustness", "elasticity", "robustness.elasticity"),
    ("netelast.experiment", "elasticity", "robustness.elasticity"),
    ("netelast.experiment", "load_config", "experiment.load_config"),
    ("netelast.experiment", "run_experiment", "experiment.run_experiment"),
]

# per-layer metric -> (kind, key): "time"/"calls" of a span name, "self" time
# of a layer, or a "counter" fed by a result hook
LAYER_METRICS = {
    "generators.build_s": ("time", "generators.build"),
    "generators.build_calls": ("calls", "generators.build"),
    "graph.csr_s": ("time", "graph.csr"),
    "graph.csr_calls": ("calls", "graph.csr"),
    "graph.remove_node_s": ("time", "graph.remove_node"),
    "graph.remove_node_calls": ("calls", "graph.remove_node"),
    "graph.copy_s": ("time", "graph.copy"),
    "graph.copy_calls": ("calls", "graph.copy"),
    "graph.betweenness_s": ("time", "graph.betweenness"),
    "graph.betweenness_calls": ("calls", "graph.betweenness"),
    "graph.metrics_s": ("time", "graph.metrics"),
    "graph.metrics_calls": ("calls", "graph.metrics"),
    "graph.components_s": ("time", "graph.components"),
    "graph.components_calls": ("calls", "graph.components"),
    "csr.bfs_s": ("time", "csr.bfs"),
    "csr.bfs_calls": ("calls", "csr.bfs"),
    "csr.build_csr_s": ("time", "csr.build_csr"),
    "csr.build_csr_calls": ("calls", "csr.build_csr"),
    "throughput.homogeneous_s": ("time", "throughput.homogeneous"),
    "throughput.homogeneous_calls": ("calls", "throughput.homogeneous"),
    "throughput.heterogeneous_s": ("time", "throughput.heterogeneous"),
    "throughput.heterogeneous_calls": ("calls", "throughput.heterogeneous"),
    "throughput.lp_s": ("time", "throughput.lp"),
    "throughput.lp_calls": ("calls", "throughput.lp"),
    "throughput.linprog_s": ("time", "scipy.linprog"),
    "throughput.linprog_calls": ("calls", "scipy.linprog"),
    "throughput.highs_iterations": ("counter", "highs_iterations"),
    "throughput.linprog_not_optimal": ("counter", "linprog_not_optimal"),
    "throughput.self_s": ("self", "throughput"),
    "robustness.attack_sequence_s": ("time", "robustness.attack_sequence"),
    "robustness.attack_sequence_calls": ("calls", "robustness.attack_sequence"),
    "robustness.elasticity_s": ("time", "robustness.elasticity"),
    "robustness.evaluations": ("calls", "throughput.raw_throughput"),
    "robustness.self_s": ("self", "robustness"),
    "experiment.run_experiment_s": ("time", "experiment.run_experiment"),
    "experiment.self_s": ("self", "experiment"),
}


def _linprog_hook(tracer: "Tracer", res) -> None:
    tracer.count("highs_iterations", int(getattr(res, "nit", 0) or 0))
    tracer.count("linprog_not_optimal", int(res.status != 0))


_HOOKS = {"scipy.linprog": _linprog_hook}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span store; `install` patches the entry points, `uninstall`
    restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[tuple[int, str], int] = {}
        self.run_id = 0
        self.missing: list[str] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def count(self, key: str, value: int) -> None:
        k = (self.run_id, key)
        self.counters[k] = self.counters.get(k, 0) + value

    def _wrap(self, fn, span: str):
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        hook = _HOOKS.get(span)
        clock = time.perf_counter
        stack = self._stack
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of its own (the benchmark's round roots)."""
        return self._wrap(fn, name)(*args, **kwargs)

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for owner_name, attr, span in ENTRY_POINTS:
            owner = _resolve(owner_name)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{owner_name}.{attr}")
                continue
            wrapper = wrappers.get(id(fn))
            if wrapper is None:
                wrapper = wrappers[id(fn)] = self._wrap(fn, span)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def summary(self, run_id: int) -> dict[str, float]:
        """Per-layer metrics of one run id."""
        import numpy as np

        name = np.array(self.span_name, dtype=np.int32)
        parent = np.array(self.span_parent, dtype=np.int32)
        run = np.array(self.span_run, dtype=np.int32)
        dur = np.array(self.span_end) - np.array(self.span_start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        exclusive = dur - covered
        sel = run == run_id
        layers = [n.split(".", 1)[0] for n in self.names]
        out = {}
        for metric, (kind, key) in LAYER_METRICS.items():
            if kind == "counter":
                out[metric] = float(self.counters.get((run_id, key), 0))
                continue
            if kind == "self":
                ids = [i for i, layer in enumerate(layers) if layer == key]
            else:
                ids = [self._name_ids[key]] if key in self._name_ids else []
            mask = sel & np.isin(name, ids)
            if kind == "calls":
                out[metric] = float(mask.sum())
            elif kind == "time":
                out[metric] = float(dur[mask].sum())
            else:
                out[metric] = float(exclusive[mask].sum())
        out["trace.spans"] = float(sel.sum())
        return out

    def per_layer(self, setup_run: int, round_runs: list[int]) -> dict[str, float]:
        """Setup spans plus the median round, metric by metric."""
        setup = self.summary(setup_run)
        rounds = [self.summary(r) for r in round_runs]
        return {k: setup[k] + statistics.median(r[k] for r in rounds) for k in setup}

    def write(self, path: Path) -> None:
        """Spans as TSV, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as fh:
            fh.write("run\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.span_run[i]}\t{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}"
                    f"\t{self.span_start[i] - t0:.9f}\t{self.span_end[i] - t0:.9f}\n"
                )
        if self.missing:
            print(f"tracing: entry points not found: {', '.join(self.missing)}", file=sys.stderr)
