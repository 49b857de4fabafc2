"""The three routing/throughput engines.

Every engine answers the same question: with one unit of capacity per
directed arc (two arcs per undirected edge), how much total traffic can be
delivered across all ordered node pairs?

* homogeneous shortest path  -- one shortest path per pair, a single uniform
  rate limited by the most congested arc;
* heterogeneous shortest path -- repeated residual filling, so pairs that
  still have spare arcs keep topping up after the bottleneck saturates;
* concurrent-flow optimization -- an exact linear program maximizing the
  uniform per-pair rate, iterated on the residual capacities until nothing
  more can be shipped.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import _csr
from .errors import ComputeError, GraphSizeError, ParameterError
from .graph import Graph, check_seed, seeded_rng

__all__ = [
    "ThroughputModel",
    "ThroughputResult",
    "ModelComparison",
    "shortest_path_tree",
    "throughput_dijkstra_homogeneous",
    "throughput_dijkstra_heterogeneous",
    "throughput_lp",
    "evaluate_throughput",
    "compare_models",
    "LP_MAX_NODES",
]

MODEL_KINDS = ("dijkstra_homogeneous", "dijkstra_heterogeneous", "lp_optimization")
TIE_BREAKS = ("sequential", "random")

LP_MAX_NODES = 30

# numeric guards for the residual loops
_RESIDUAL_EPS = 1e-12
_RATE_EPS = 1e-7
_FEAS_TOL = 1e-9


@dataclass
class ThroughputModel:
    """Selects a routing engine and its tie-breaking behaviour.

    The random tie-break needs a seed; a seed, whenever given, must be a
    nonnegative integer, and errors name it `tie_seed`, as configs do.
    """

    kind: str = "dijkstra_homogeneous"
    tie_break: str = "sequential"
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ParameterError(f"unknown model kind {self.kind!r}")
        if self.tie_break not in TIE_BREAKS:
            raise ParameterError(f"unknown tie_break {self.tie_break!r}")
        if self.tie_break == "random" and self.seed is None:
            raise ParameterError("random tie-break requires a seed")
        if self.seed is not None:
            check_seed(self.seed, "tie_seed")


@dataclass
class ThroughputResult:
    """Raw throughput, and per_pair_delivered: {(s, t): delivered} over the
    ordered pairs that receive traffic, source-major, destinations ascending."""

    raw_throughput: float
    per_pair_delivered: dict[tuple[int, int], float]


class _Delivery(ThroughputResult):
    """An engine's result: per_pair_delivered is built from the dense delivery
    on first read.  The pair (sources[i], t) gets rate[i, t], or the one
    `rate` that every pair shares, wherever delivered[i, t] is nonzero."""

    def __init__(self, raw_throughput: float, sources: np.ndarray, delivered: np.ndarray, rate):
        self.raw_throughput, self._dense = raw_throughput, (sources, delivered, rate)

    @functools.cached_property
    def per_pair_delivered(self) -> dict[tuple[int, int], float]:
        sources, delivered, rate = self._dense
        rows, dests = np.nonzero(delivered)
        pairs = zip(sources[rows].tolist(), dests.tolist())
        if np.ndim(rate) == 0:
            return dict.fromkeys(pairs, rate)
        return dict(zip(pairs, rate[rows, dests].tolist()))


@dataclass
class ModelComparison:
    lp: float
    heterogeneous: float
    homogeneous: float


def _tie_rng(model: ThroughputModel | None) -> np.random.Generator | None:
    """The seeded generator for random tie-breaking, None for sequential."""
    return seeded_rng(model.seed) if model is not None and model.tie_break == "random" else None


# -- shortest-path trees -------------------------------------------------------


def shortest_path_tree(
    g: Graph, source: int, tie_break: str = "sequential", seed: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Hop-count distances and one predecessor per reached node.

    Sequential tie-breaking resolves equal-length alternatives to the
    smallest predecessor id; random tie-breaking picks uniformly with the
    seeded generator.  Unreached nodes get distance inf and predecessor -1.
    """
    source = g._check_node(source)
    rng = _tie_rng(ThroughputModel(tie_break=tie_break, seed=seed))
    t = _csr.bfs(*g.csr(), source, _csr.component_labels(*g.csr()))
    pred = np.full(t.dist.size, -1, dtype=np.int64)
    for win, up, fr, (tails, _, _) in zip(_csr.pick_predecessors(t, rng), t.frontiers, t.frontiers[1:], t.level_edges):
        pred[fr] = up[tails[win]]
    # one source's rows, indexed by node id
    (pred,), (dist,) = t.rows(pred), t.rows(t.dist)
    return np.where(dist < 0, np.inf, dist.astype(float)), pred


def _route_all(indptr, indices, sources, labels, rng, visit=None):
    """Single-path routing from every source over the CSR arcs: one batched
    bfs per block of sources (_csr.sweep, `labels` passed on), routed by _csr.route.

    Returns (loads, reached): per arc (aligned with `indices`) the number of
    source->dest paths crossing it; and a bool matrix whose row i marks the
    nodes that sources[i] routes to.  `visit`, when given, is called with
    every block's bfs result before it is routed, in the blocks and source
    order of graph.betweenness: the hook through which robustness._evaluate
    reads betweenness and hop distances from this traversal.
    """
    loads = np.zeros(indices.size)
    reached = np.zeros((len(sources), indptr.size - 1), dtype=bool)
    for part, traversal in _csr.sweep(indptr, indices, sources, labels):
        if visit is not None:
            visit(traversal)
        reached[part] = _csr.route(traversal, rng, loads)
    return loads, reached


# -- homogeneous model ---------------------------------------------------------


def throughput_dijkstra_homogeneous(g: Graph, model: ThroughputModel | None = None, *, visit=None) -> ThroughputResult:
    """One flow per ordered connected pair along its single shortest path;
    all pairs share the uniform rate 1 / (max arc utilization).  `visit`
    sees the routing traversal (see _route_all).
    """
    indptr, indices = g.csr()
    sources = np.flatnonzero(g._present)
    util, reached = _route_all(indptr, indices, sources, _csr.component_labels(indptr, indices), _tie_rng(model), visit)
    delta = 1.0 / util.max() if util.any() else 1.0
    return _Delivery(delta * np.count_nonzero(reached), sources, reached, delta)


# the homogeneous engine's earlier name, which netelast_bench/tracing.py wraps
_raw_homogeneous = throughput_dijkstra_homogeneous


# -- residual filling ------------------------------------------------------------


def _fill_residual(g: Graph, fill, rng, visit, rounds_per_arc: int, failure: str) -> ThroughputResult:
    """The residual loop shared by the heterogeneous and LP engines.

    Each arc of g.csr() starts with unit capacity.  Each round routes the
    present nodes (_route_all with `rng`) on the CSR of the arcs that still
    have capacity (`residual`), bounded by the components of g.csr(), which
    holds every residual arc; only the first round, on g.csr() itself,
    passes on `visit`.  `fill(indptr, indices, residual, present, loads,
    reached)` returns (rate, utilization over those arcs): every pair
    (present[i], t) with reached[i, t] receives `rate`.  The loop subtracts
    the utilization and stops when no arc is left, the rate is not positive
    or nothing is reached; it raises ComputeError(failure) after
    rounds_per_arc rounds per arc (plus 16).

    Reach only shrinks as arcs die, so the pairs of the first round are all
    the pairs.  Raw throughput is the left-to-right sum of the deliveries in
    pair order (source-major, destinations ascending), the order of the
    per-pair map, so it does not depend on the interpreter's sum().
    """
    indptr, indices = g.csr()
    labels = _csr.component_labels(indptr, indices)
    capacity = np.ones(indices.size)
    present = np.flatnonzero(g._present)
    demand = np.zeros((present.size, g.id_space))
    for _ in range(rounds_per_arc * capacity.size + 16):
        alive = capacity > _RESIDUAL_EPS
        if not alive.any():
            break
        arcs = _csr.keep_arcs(indptr, indices, alive)
        loads, reached = _route_all(*arcs, present, labels, rng, visit)
        visit = None
        rate, util = fill(*arcs, capacity[alive], present, loads, reached)
        if rate <= 0 or not reached.any():
            break
        demand[reached] += rate
        capacity[alive] -= util
    else:
        raise ComputeError(failure)
    delivered = demand[demand > 0]
    return _Delivery(float(np.cumsum(delivered)[-1]) if delivered.size else 0.0, present, demand, demand)


# -- heterogeneous model -------------------------------------------------------


def throughput_dijkstra_heterogeneous(
    g: Graph, model: ThroughputModel | None = None, *, visit=None
) -> ThroughputResult:
    """Residual filling.

    Each round recomputes single shortest paths on the arcs that still have
    residual capacity, pushes the largest uniform rate that violates no
    residual, and saturates at least one arc, so the loop ends after at most
    one round per arc.  `visit` sees the traversal of the first round, which
    routes g.csr() itself; a graph without edges routes no round.
    """
    rng = _tie_rng(model)

    def fill(indptr, indices, residual, present, loads, reached):
        # an alive arc's tail reaches its head, so some load is positive
        used = loads > 0
        eps = float((residual[used] / loads[used]).min())
        return eps, eps * loads

    return _fill_residual(g, fill, rng, visit, 2, "residual filling failed to converge")


# -- concurrent-flow optimization ----------------------------------------------


@dataclass
class LPResult:
    """One HiGHS solve: `status` is scipy.optimize.linprog's code (0 optimal,
    1 limit reached, 2 infeasible, 3 unbounded, 4 other), and `x` is None
    unless the solve is optimal."""

    x: np.ndarray | None
    status: int
    message: str
    nit: int


# HiGHS model status -> linprog's status code; every other status is 4
_LINPROG_STATUS = {"kOptimal": 0, "kTimeLimit": 1, "kIterationLimit": 1, "kInfeasible": 2, "kUnbounded": 3}


@functools.cache
def _highs():
    """scipy's HiGHS binding and the options that
    scipy.optimize.linprog(method="highs") sets, every other option at its
    HiGHS default.  Loaded on the first call: the LP is the only part of
    netelast that needs scipy, so `import netelast` loads numpy alone.

    The binding is loaded by itself, after `import scipy` (scipy's platform
    set-up), without running scipy.optimize's package initialisation, which
    would pull in scipy.sparse, scipy.linalg and some 300 other modules the
    LP never uses.  It is registered in sys.modules under its real name, and
    an entry already there is reused, so a process that also imports
    scipy.optimize, before or after, loads the extension once and holds one
    module object.  A scipy without the binding (before 1.15) raises
    ImportError."""
    name = "scipy.optimize._highspy._core"
    _core = sys.modules.get(name)
    if _core is None:
        import scipy

        dirs = [os.path.join(path, "optimize", "_highspy") for path in scipy.__path__]
        spec = importlib.machinery.PathFinder.find_spec(name, dirs)
        if spec is None:
            raise ImportError(f"the LP engine needs scipy>=1.15, which ships the HiGHS binding {name}")
        _core = importlib.util.module_from_spec(spec)
        sys.modules[name] = _core
        try:
            spec.loader.exec_module(_core)
        except BaseException:
            sys.modules.pop(name, None)
            raise

    options = _core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.primal_feasibility_tolerance = options.dual_feasibility_tolerance = _FEAS_TOL
    options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False
    return _core, options


def linprog(lp) -> LPResult:
    """One cold solve of the HighsLp `lp` (minimize col_cost_ @ x subject to
    row and column bounds), as scipy.optimize.linprog(method="highs") makes
    it: a fresh solver, so nothing carries over from an earlier solve."""
    core, options = _highs()
    highs = core._Highs()
    highs.passOptions(options)
    highs.passModel(lp)
    highs.run()
    model_status = highs.getModelStatus()
    status = _LINPROG_STATUS.get(model_status.name, 4)
    info = highs.getInfo()
    return LPResult(
        np.array(highs.getSolution().col_value) if status == 0 else None,
        status,
        f"HiGHS model status {int(model_status)}: {highs.modelStatusToString(model_status)}",
        info.simplex_iteration_count or info.ipm_iteration_count,
    )


def _solve_concurrent_lp(indptr, indices, residual, sources, reached):
    """One round of the optimization on the residual CSR (arc capacities
    `residual`): maximize the uniform rate to every pair (sources[i], t) with
    reached[i, t], then (at that optimum) minimize total flow so the round
    does not waste capacity on degenerate routings.  Both phases solve one
    model cold; phase 2 changes only the costs and the rate's bounds.

    Returns (rate, utilization per arc, per-commodity flows) where flows
    maps source -> (arc positions, flow values).
    """
    tails = _csr.arc_tails(indptr)
    na = indices.size

    # one commodity per source that reaches a node; its constraint rows are
    # the source, then its destinations ascending, and noderow[c, v] is node
    # v's row or -1
    has = reached.any(axis=1)
    dcomm, dests = np.nonzero(reached[has])
    k = int(has.sum())
    ndest = np.bincount(dcomm, minlength=k)
    src_rows = np.cumsum(ndest + 1) - (ndest + 1)
    nrows = int(ndest.sum()) + k
    noderow = np.full((k, reached.shape[1]), -1, dtype=np.int64)
    noderow[np.arange(k), sources[has]] = src_rows
    noderow[dcomm, dests] = np.arange(dcomm.size) + dcomm + 1

    # variable layout: x[0] = rate, then the flow on every arc whose tail is
    # in the commodity, commodity-major and arcs ascending
    comm, arc = np.nonzero(noderow[:, tails] >= 0)
    nvars = comm.size + 1
    tail_row = noderow[comm, tails[arc]]
    head_row = noderow[comm, indices[arc]]
    # the source row counts outflow at +1; a destination row counts outflow
    # at -1 and inflow at +1 (a commodity's rows past its source row are its
    # destinations); every row takes -rate once per destination it covers
    into = head_row > src_rows[comm]
    rate_vals = np.full(nrows, -1.0)
    rate_vals[src_rows] = -ndest
    tail_vals = np.where(tail_row == src_rows[comm], 1.0, -1.0)

    # the constraint matrix as (column, row, value) entries: the capacity rows
    # (an arc's position in the residual CSR) come first, then the
    # conservation rows.  Column 0 is the rate, with one entry per
    # conservation row; a flow column has its arc's capacity row, its tail's
    # row and, unless the head is the source, its head's row.  HiGHS takes
    # them in CSC: sorted by column, rows ascending within each column.
    flow = np.arange(1, nvars)
    cols = np.concatenate([np.zeros(nrows, dtype=np.int64), flow, flow, flow[into]])
    rows = np.concatenate([na + np.arange(nrows), arc, na + tail_row, na + head_row[into]])
    vals = np.concatenate([rate_vals, np.ones(arc.size), tail_vals, np.ones(int(into.sum()))])
    order = np.lexsort((rows, cols))
    core, _ = _highs()
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = nvars
    lp.num_row_ = lp.a_matrix_.num_row_ = na + nrows
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.searchsorted(cols[order], np.arange(nvars + 1)).astype(np.int32)
    lp.a_matrix_.index_ = rows[order].astype(np.int32)
    lp.a_matrix_.value_ = vals[order]
    lp.row_lower_ = np.concatenate([np.full(na, -np.inf), np.zeros(nrows)])
    lp.row_upper_ = np.concatenate([residual, np.zeros(nrows)])
    upper = np.full(nvars, np.inf)

    def solve(c, lower):
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, lower, upper
        res = linprog(lp)
        if res.status != 0:
            raise ComputeError(f"concurrent-flow optimization failed: {res.message}")
        return res.x

    c = np.zeros(nvars)
    c[0] = -1.0
    x = solve(c, np.zeros(nvars))
    if x[0] > 0:
        # second phase: same rate, least total flow (phase 1's solution stays
        # feasible, so pinning the rate exactly should not fail)
        c = np.ones(nvars)
        c[0] = 0.0
        lower = np.zeros(nvars)
        lower[0] = upper[0] = x[0]
        x = solve(c, lower)
    rate = float(x[0])

    util = np.bincount(arc, weights=x[1:], minlength=na)
    cuts = np.cumsum(np.bincount(comm, minlength=k))[:-1]
    flows = dict(zip(sources[has].tolist(), zip(np.split(arc, cuts), np.split(x[1:], cuts))))
    return rate, util, flows


def throughput_lp(g: Graph, model: ThroughputModel | None = None, *, visit=None) -> ThroughputResult:
    """Concurrent-flow optimization per residual round, over the pairs its
    routing reaches; `visit` as in throughput_dijkstra_heterogeneous.  A
    graph over LP_MAX_NODES is refused before any routing."""
    check_size(g, "lp_optimization")

    def fill(indptr, indices, residual, present, loads, reached):
        if residual.sum() < _RATE_EPS:
            return 0.0, None
        rate, util, _ = _solve_concurrent_lp(indptr, indices, residual, present, reached)
        return (rate if rate > _RATE_EPS else 0.0), util

    return _fill_residual(g, fill, None, visit, 4, "optimization loop failed to converge")


# -- dispatch -------------------------------------------------------------------


def check_size(g: Graph, kind: str) -> None:
    """Raise GraphSizeError if engine `kind` refuses `g`: the LP takes at
    most LP_MAX_NODES present nodes."""
    if kind == "lp_optimization" and g.number_of_nodes > LP_MAX_NODES:
        raise GraphSizeError(f"optimization model limited to {LP_MAX_NODES} nodes, got {g.number_of_nodes}")


def evaluate_throughput(g: Graph, model: ThroughputModel, *, visit=None) -> ThroughputResult:
    """The result of `model`'s engine on `g`.  `visit`, if given, sees every
    block of the engine's routing traversal of `g` itself (see _route_all),
    which the LP's size refusal and an edgeless graph under a residual
    engine never reach."""
    if model.kind == "dijkstra_homogeneous":
        return throughput_dijkstra_homogeneous(g, model, visit=visit)
    if model.kind == "dijkstra_heterogeneous":
        return throughput_dijkstra_heterogeneous(g, model, visit=visit)
    return throughput_lp(g, model, visit=visit)


def raw_throughput(g: Graph, model: ThroughputModel, visit=None) -> float:
    """evaluate_throughput's raw throughput; no per-pair map is built."""
    return evaluate_throughput(g, model, visit=visit).raw_throughput


def compare_models(g: Graph, tie_break: str = "sequential", seed: int | None = None) -> ModelComparison:
    """raw_throughput under all three engines (LP size limits apply)."""
    # ModelComparison's fields are MODEL_KINDS reversed: the LP runs first, so
    # an oversized graph is refused before the other engines run
    models = (ThroughputModel(kind, tie_break, seed) for kind in MODEL_KINDS[::-1])
    return ModelComparison(*(evaluate_throughput(g, model).raw_throughput for model in models))
