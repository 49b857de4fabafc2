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
from dataclasses import dataclass

import numpy as np

from . import _csr
from .errors import ComputeError, GraphSizeError, ParameterError
from .graph import Graph, seeded_rng

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
    """Selects a routing engine and its tie-breaking behaviour."""

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


@dataclass
class ThroughputResult:
    raw_throughput: float
    per_pair_delivered: dict[tuple[int, int], float]


@dataclass
class ModelComparison:
    lp: float
    heterogeneous: float
    homogeneous: float


def _tie_rng(model: ThroughputModel) -> np.random.Generator | None:
    """The seeded generator for random tie-breaking, None for sequential."""
    return seeded_rng(model.seed) if model.tie_break == "random" else None


# -- shortest-path trees -------------------------------------------------------


def shortest_path_tree(
    g: Graph, source: int, tie_break: str = "sequential", seed: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Hop-count distances and one predecessor per reached node.

    Sequential tie-breaking resolves equal-length alternatives to the
    smallest predecessor id; random tie-breaking picks uniformly with the
    seeded generator.  Unreached nodes get distance inf and predecessor -1.
    """
    g._check_node(source)
    rng = _tie_rng(ThroughputModel(tie_break=tie_break, seed=seed))
    indptr, indices = g.csr()
    n = g.id_space
    dist_i, _, level_edges = _csr.bfs(indptr, indices, source, n)
    pred, _ = _csr.pick_predecessors(level_edges, n, n, rng)
    dist = np.where(dist_i < 0, np.inf, dist_i.astype(float))
    return dist, pred


def _route_all(indptr, indices, sources, n, rng, reach=None, visit=None):
    """Single-path routing from every source over the CSR arcs: one batched
    bfs per block of sources (_csr.sweep, `reach` passed on), routed by _csr.route.

    Returns (loads, reached): per arc (aligned with `indices`) the number of
    source->dest paths crossing it; and a bool matrix whose row i marks the
    nodes that sources[i] routes to.  `visit`, when given, is called with
    every block's bfs result before it is routed, in the blocks and source
    order of graph.betweenness: the hook through which robustness._evaluate
    reads betweenness and hop distances from this traversal.
    """
    loads = np.zeros(indices.size)
    reached = np.zeros((len(sources), n), dtype=bool)
    for part, traversal in _csr.sweep(indptr, indices, sources, n, reach):
        if visit is not None:
            visit(traversal)
        reached[part] = _csr.route(traversal, n, rng, loads)
    return loads, reached


# -- homogeneous model ---------------------------------------------------------


def throughput_dijkstra_homogeneous(g: Graph, model: ThroughputModel | None = None) -> ThroughputResult:
    """One flow per ordered connected pair along its single shortest path;
    all pairs share the uniform rate 1 / (max arc utilization).
    """
    raw, delta, reached = _raw_homogeneous(g, model or ThroughputModel())
    return ThroughputResult(raw, _per_pair(np.flatnonzero(g._present), reached, delta))


def _per_pair(sources: np.ndarray, reached: np.ndarray, rate) -> dict[tuple[int, int], float]:
    """{(sources[i], t): rate} over the nonzero entries reached[i, t], source-major
    and destinations ascending.  `rate` is one value that every pair shares,
    or an array shaped like `reached` whose entries go to their pairs as floats."""
    rows, dests = np.nonzero(reached)
    pairs = zip(sources[rows].tolist(), dests.tolist())
    if np.ndim(rate) == 0:
        return dict.fromkeys(pairs, rate)
    return dict(zip(pairs, rate[rows, dests].tolist()))


def _raw_homogeneous(g: Graph, model: ThroughputModel, visit=None) -> tuple[float, float, np.ndarray]:
    """(raw_throughput, uniform per-pair rate, reached matrix over the present
    sources) of the homogeneous model; the per-pair map is left to the caller
    that needs it.  `visit` sees the routing traversal (see _route_all)."""
    indptr, indices = g.csr()
    sources = np.flatnonzero(g._present)
    reach = _csr.component_reach(indptr, indices, g.id_space, sources)
    util, reached = _route_all(indptr, indices, sources, g.id_space, _tie_rng(model), reach, visit)
    max_util = util.max() if util.size else 0.0
    delta = 1.0 / max_util if max_util > 0 else 1.0
    return delta * np.count_nonzero(reached), delta, reached


# -- residual filling ------------------------------------------------------------


def _fill_residual(g: Graph, fill, rng, visit, rounds_per_arc: int, failure: str) -> ThroughputResult:
    """The residual loop shared by the heterogeneous and LP engines.

    Each arc of g.csr() starts with unit capacity.  Each round routes the
    present nodes (_route_all with `rng`) on the CSR of the arcs that still
    have capacity (`residual`); only the first round, on g.csr() itself,
    passes on `visit`.  `fill(indptr, indices, residual, present, loads,
    reached)` returns (rate, utilization over those arcs): every pair
    (present[i], t) with reached[i, t] receives `rate`.  The loop subtracts
    the utilization and stops when no arc is left, the rate is not positive
    or nothing is reached; it raises ComputeError(failure) after
    rounds_per_arc rounds per arc (plus 16).

    Reach only shrinks as arcs die, so the pairs of the first round are all
    the pairs, and the per-pair map keeps their order: source-major,
    destinations ascending.
    """
    indptr, indices = g.csr()
    capacity = np.ones(indices.size)
    present = np.flatnonzero(g._present)
    demand = np.zeros((present.size, g.id_space))
    for _ in range(rounds_per_arc * capacity.size + 16):
        alive = capacity > _RESIDUAL_EPS
        if not alive.any():
            break
        arcs = _csr.keep_arcs(indptr, indices, alive)
        loads, reached = _route_all(*arcs, present, g.id_space, rng, visit=visit)
        visit = None
        rate, util = fill(*arcs, capacity[alive], present, loads, reached)
        if rate <= 0 or not reached.any():
            break
        demand[reached] += rate
        capacity[alive] -= util
        np.clip(capacity, 0.0, None, out=capacity)
        capacity[capacity <= _RESIDUAL_EPS] = 0.0
    else:
        raise ComputeError(failure)
    per_pair = _per_pair(present, demand, demand)
    # the builtin sum, in pair order, is the engines' definition of raw
    return ThroughputResult(float(sum(per_pair.values())), per_pair)


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
    rng = _tie_rng(model or ThroughputModel(kind="dijkstra_heterogeneous"))

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
    HiGHS default.  Imported on the first call: the LP is the only part of
    netelast that needs scipy, so `import netelast` loads numpy alone."""
    from scipy.optimize._highspy import _core

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
    heads = indices
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
    head_row = noderow[comm, heads[arc]]
    # the source row counts outflow at +1; a destination row counts outflow
    # at -1 and inflow at +1 (a commodity's rows past its source row are its
    # destinations); every row takes -rate once per destination it covers
    into = head_row > src_rows[comm]
    rate_vals = np.full(nrows, -1.0)
    rate_vals[src_rows] = -ndest
    tail_vals = np.where(tail_row == src_rows[comm], 1.0, -1.0)

    # the constraint matrix in CSC, rows ascending within each column: the
    # capacity rows (an arc's position in the residual CSR) come first, then
    # the conservation rows.  Column 0 is the rate, with one entry per
    # conservation row; a flow column has its arc's capacity row, then its
    # tail's and (unless the head is the source) its head's rows in order.
    swap = into & (head_row < tail_row)
    rows = np.stack([arc, na + np.where(swap, head_row, tail_row), na + np.where(swap, tail_row, head_row)], axis=1)
    vals = np.stack([np.ones(arc.size), np.where(swap, 1.0, tail_vals), np.where(swap, tail_vals, 1.0)], axis=1)
    entries = np.ones(rows.shape, dtype=bool)
    entries[:, 2] = into
    core, _ = _highs()
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = nvars
    lp.num_row_ = lp.a_matrix_.num_row_ = na + nrows
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate([[0, nrows], nrows + np.cumsum(2 + into)]).astype(np.int32)
    lp.a_matrix_.index_ = np.concatenate([na + np.arange(nrows), rows[entries]]).astype(np.int32)
    lp.a_matrix_.value_ = np.concatenate([rate_vals, vals[entries]])
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
        rate = float(x[0])
        c = np.ones(nvars)
        c[0] = 0.0
        lower = np.zeros(nvars)
        lower[0] = upper[0] = rate
        x = solve(c, lower)
    rate = float(x[0])

    util = np.zeros(na)
    np.add.at(util, arc, x[1:])
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
    n_present = g.number_of_nodes
    if kind == "lp_optimization" and n_present > LP_MAX_NODES:
        raise GraphSizeError(f"optimization model limited to {LP_MAX_NODES} nodes, got {n_present}")


def evaluate_throughput(g: Graph, model: ThroughputModel) -> ThroughputResult:
    if model.kind == "dijkstra_homogeneous":
        return throughput_dijkstra_homogeneous(g, model)
    if model.kind == "dijkstra_heterogeneous":
        return throughput_dijkstra_heterogeneous(g, model)
    return throughput_lp(g, model)


def raw_throughput(g: Graph, model: ThroughputModel, visit=None) -> float:
    """raw_throughput only (no homogeneous per-pair map); `visit`, if given,
    sees every block of the engine's routing traversal of `g` itself (see
    _route_all), which the LP's size refusal and an edgeless graph under a
    residual engine never reach."""
    if model.kind == "dijkstra_homogeneous":
        return _raw_homogeneous(g, model, visit)[0]
    engine = throughput_lp if model.kind == "lp_optimization" else throughput_dijkstra_heterogeneous
    return engine(g, model, visit=visit).raw_throughput


def compare_models(g: Graph, tie_break: str = "sequential", seed: int | None = None) -> ModelComparison:
    """raw_throughput under all three engines (LP size limits apply)."""
    # ModelComparison's fields are MODEL_KINDS reversed: the LP runs first, so
    # an oversized graph is refused before the other engines run
    models = (ThroughputModel(kind, tie_break, seed) for kind in MODEL_KINDS[::-1])
    return ModelComparison(*(evaluate_throughput(g, model).raw_throughput for model in models))
