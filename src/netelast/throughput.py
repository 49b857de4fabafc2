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

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from . import _csr
from .errors import ComputeError, GraphSizeError, ParameterError
from .graph import Graph

__all__ = [
    "ThroughputModel",
    "CapacityState",
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


@dataclass
class CapacityState:
    """Directed arc table with residual capacity, the utilization applied in
    the latest routing round, and the cumulative per-pair demand.
    """

    tails: np.ndarray
    heads: np.ndarray
    capacity: np.ndarray
    utilization: np.ndarray
    demand: dict[tuple[int, int], float] = field(default_factory=dict)

    @classmethod
    def from_graph(cls, g: Graph) -> "CapacityState":
        # CSR rows are sorted by (tail, head), the arc order every engine uses
        indptr, heads = g.csr()
        m = heads.size
        return cls(_csr.arc_tails(indptr), heads.copy(), np.ones(m), np.zeros(m))

    def add_demand(self, s: int, dests: np.ndarray, rate: float) -> None:
        for t in dests:
            key = (s, int(t))
            self.demand[key] = self.demand.get(key, 0.0) + rate


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
    if tie_break not in TIE_BREAKS:
        raise ParameterError(f"unknown tie_break {tie_break!r}")
    rng = None
    if tie_break == "random":
        if seed is None:
            raise ParameterError("random tie-break requires a seed")
        rng = np.random.default_rng(seed)
    indptr, indices = g.csr()
    n = g.id_space
    dist_i, _, level_edges = _csr.bfs(indptr, indices, source, n)
    pred, _ = _csr.pick_predecessors(level_edges, n, n, rng)
    dist = np.where(dist_i < 0, np.inf, dist_i.astype(float))
    return dist, pred


def _route_all(indptr, indices, sources, n, rng, reach=None):
    """Single-path routing from every source over the CSR arcs, one batched
    bfs per block of sources.

    Returns (loads, reached): per arc (aligned with `indices`) the number of
    source->dest paths crossing it, i.e. the size of the destination subtree
    below the arc; and a bool matrix whose row i marks the nodes that
    sources[i] routes to.  `reach` is passed on to bfs.
    """
    loads = np.zeros(indices.size)
    reached = np.zeros((len(sources), n), dtype=bool)
    for part in _csr.source_blocks(len(sources), n, indices.size):
        block = sources[part]
        _, frontiers, level_edges = _csr.bfs(
            indptr, indices, block, n, None if reach is None else reach[part]
        )
        size = block.size * n
        pred, via = _csr.pick_predecessors(level_edges, size, n, rng)
        dests = np.flatnonzero(pred >= 0)
        cnt = np.zeros(size)
        cnt[dests] = 1.0
        for fr in reversed(frontiers[1:]):
            cnt += np.bincount(pred[fr], weights=cnt[fr], minlength=size)
        np.add.at(loads, via[dests], cnt[dests])
        reached[part] = (pred >= 0).reshape(block.size, n)
    return loads, reached


# -- homogeneous model ---------------------------------------------------------


def throughput_dijkstra_homogeneous(g: Graph, model: ThroughputModel | None = None) -> ThroughputResult:
    """One flow per ordered connected pair along its single shortest path;
    all pairs share the uniform rate 1 / (max arc utilization).
    """
    raw, delta, reached = _raw_homogeneous(g, model or ThroughputModel())
    sources = np.flatnonzero(g._present)
    rows, dests = np.nonzero(reached)
    per_pair = {(int(sources[i]), int(t)): delta for i, t in zip(rows, dests)}
    return ThroughputResult(raw_throughput=raw, per_pair_delivered=per_pair)


def _raw_homogeneous(g: Graph, model: ThroughputModel) -> tuple[float, float, np.ndarray]:
    """(raw_throughput, uniform per-pair rate, reached matrix over the present
    sources) of the homogeneous model; the per-pair map is left to the caller
    that needs it."""
    rng = np.random.default_rng(model.seed) if model.tie_break == "random" else None
    indptr, indices = g.csr()
    sources = np.flatnonzero(g._present)
    reach = _csr.component_reach(indptr, indices, g.id_space, sources)
    util, reached = _route_all(indptr, indices, sources, g.id_space, rng, reach)
    max_util = util.max() if util.size else 0.0
    delta = 1.0 / max_util if max_util > 0 else 1.0
    return delta * np.count_nonzero(reached), delta, reached


# -- heterogeneous model -------------------------------------------------------


def throughput_dijkstra_heterogeneous(g: Graph, model: ThroughputModel | None = None) -> ThroughputResult:
    model = model or ThroughputModel(kind="dijkstra_heterogeneous")
    result, _ = _run_heterogeneous(g, model)
    return result


def _run_heterogeneous(g: Graph, model: ThroughputModel) -> tuple[ThroughputResult, CapacityState]:
    """Residual filling loop.

    Each round recomputes single shortest paths on the arcs that still have
    residual capacity, pushes the largest uniform rate that violates no
    residual, and saturates at least one arc, so the loop ends after at most
    one round per arc.
    """
    rng = np.random.default_rng(model.seed) if model.tie_break == "random" else None
    state = CapacityState.from_graph(g)
    n = g.id_space
    present = np.flatnonzero(g._present)
    max_rounds = 2 * state.tails.size + 16
    for _ in range(max_rounds):
        alive = state.capacity > _RESIDUAL_EPS
        if not alive.any():
            break
        alive_idx = np.flatnonzero(alive)
        indptr, indices = _csr.build_csr(state.tails[alive], state.heads[alive], n)
        loads, reached = _route_all(indptr, indices, present, n, rng)
        if not reached.any():
            break
        used = loads > 0
        eps = float((state.capacity[alive_idx][used] / loads[used]).min())
        for s, row in zip(present, reached):
            state.add_demand(int(s), np.flatnonzero(row), eps)
        state.utilization = np.zeros(state.capacity.size)
        state.utilization[alive_idx] = eps * loads
        state.capacity[alive_idx] -= eps * loads
        np.clip(state.capacity, 0.0, None, out=state.capacity)
        state.capacity[state.capacity <= _RESIDUAL_EPS] = 0.0
    else:
        raise ComputeError("residual filling failed to converge")
    raw = float(sum(state.demand.values()))
    return ThroughputResult(raw, dict(state.demand)), state


# -- concurrent-flow optimization ----------------------------------------------


def _residual_reachability(state: CapacityState, present: np.ndarray, n: int):
    alive = state.capacity > _RESIDUAL_EPS
    indptr, indices = _csr.build_csr(state.tails[alive], state.heads[alive], n)
    reach: dict[int, np.ndarray] = {}
    for block, dist in _csr.hop_distances(indptr, indices, n, present):
        for s, row in zip(block, dist):
            dests = np.flatnonzero(np.isfinite(row) & (row > 0))
            if dests.size:
                reach[int(s)] = dests
    return np.flatnonzero(alive), reach


def _solve_concurrent_lp(state: CapacityState, alive_idx: np.ndarray, reach: dict[int, np.ndarray]):
    """One round of the optimization: maximize the uniform per-pair rate on
    the residual arcs, then (at that optimum) minimize total flow so the
    round does not waste capacity on degenerate routings.

    Returns (rate, utilization over alive arcs, per-commodity flows) where
    flows maps source -> (arc subset positions, flow values).
    """
    tails = state.tails[alive_idx]
    heads = state.heads[alive_idx]
    residual = state.capacity[alive_idx]
    na = alive_idx.size
    n_ids = int(max(tails.max(), heads.max())) + 1 if na else 0

    # variable layout: x[0] = rate, then one block of arc flows per commodity
    offsets: dict[int, tuple[int, np.ndarray]] = {}
    nvars = 1
    for s, dests in reach.items():
        member = np.zeros(n_ids, dtype=bool)
        member[s] = True
        member[dests] = True
        sub = np.flatnonzero(member[tails])
        offsets[s] = (nvars, sub)
        nvars += sub.size

    eq_rows: list[np.ndarray] = []
    eq_cols: list[np.ndarray] = []
    eq_vals: list[np.ndarray] = []
    row = 0
    for s, dests in reach.items():
        off, sub = offsets[s]
        st, sh = tails[sub], heads[sub]
        # source sends rate to every reachable destination
        srcmask = np.flatnonzero(st == s)
        eq_rows.append(np.full(srcmask.size + 1, row))
        eq_cols.append(np.concatenate([[0], off + srcmask]))
        eq_vals.append(np.concatenate([[-float(dests.size)], np.ones(srcmask.size)]))
        row += 1
        # every destination absorbs exactly rate units net
        for j in dests:
            inflow = np.flatnonzero(sh == j)
            outflow = np.flatnonzero(st == j)
            k = inflow.size + outflow.size + 1
            eq_rows.append(np.full(k, row))
            eq_cols.append(np.concatenate([[0], off + inflow, off + outflow]))
            eq_vals.append(np.concatenate([[-1.0], np.ones(inflow.size), -np.ones(outflow.size)]))
            row += 1
    a_eq = sparse.coo_matrix(
        (np.concatenate(eq_vals), (np.concatenate(eq_rows), np.concatenate(eq_cols))),
        shape=(row, nvars),
    ).tocsr()
    b_eq = np.zeros(row)

    ub_rows = []
    ub_cols = []
    for s in reach:
        off, sub = offsets[s]
        ub_rows.append(sub)  # arc position within the alive set is the row
        ub_cols.append(off + np.arange(sub.size))
    ub_rows = np.concatenate(ub_rows)
    ub_cols = np.concatenate(ub_cols)
    a_ub = sparse.coo_matrix(
        (np.ones(ub_rows.size), (ub_rows, ub_cols)), shape=(na, nvars)
    ).tocsr()

    options = {
        "primal_feasibility_tolerance": _FEAS_TOL,
        "dual_feasibility_tolerance": _FEAS_TOL,
    }
    bounds = [(0.0, None)] * nvars

    c1 = np.zeros(nvars)
    c1[0] = -1.0
    res = linprog(
        c1, A_ub=a_ub, b_ub=residual, A_eq=a_eq, b_eq=b_eq,
        bounds=bounds, method="highs", options=options,
    )
    if res.status != 0:
        raise ComputeError(f"concurrent-flow optimization failed: {res.message}")
    rate = float(res.x[0])
    x = res.x

    if rate > 0:
        # second phase: same rate, least total flow (phase 1's solution stays
        # feasible, so pinning the rate exactly cannot fail)
        c2 = np.ones(nvars)
        c2[0] = 0.0
        bounds2 = list(bounds)
        bounds2[0] = (rate, rate)
        res2 = linprog(
            c2, A_ub=a_ub, b_ub=residual, A_eq=a_eq, b_eq=b_eq,
            bounds=bounds2, method="highs", options=options,
        )
        if res2.status == 0:
            rate = float(res2.x[0])
            x = res2.x

    util = np.zeros(na)
    flows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for s in reach:
        off, sub = offsets[s]
        f = x[off : off + sub.size]
        np.add.at(util, sub, f)
        flows[s] = (sub, f)
    return rate, util, flows


def throughput_lp(g: Graph, model: ThroughputModel | None = None) -> ThroughputResult:
    model = model or ThroughputModel(kind="lp_optimization")
    result, _ = _run_lp(g, model)
    return result


def _run_lp(g: Graph, model: ThroughputModel) -> tuple[ThroughputResult, CapacityState]:
    n_present = g.number_of_nodes
    if n_present > LP_MAX_NODES:
        raise GraphSizeError(
            f"optimization model limited to {LP_MAX_NODES} nodes, got {n_present}"
        )
    state = CapacityState.from_graph(g)
    n = g.id_space
    present = np.flatnonzero(g._present)
    max_rounds = 4 * state.tails.size + 16
    for _ in range(max_rounds):
        if state.capacity.sum() < _RATE_EPS:
            break
        alive_idx, reach = _residual_reachability(state, present, n)
        if not reach:
            break
        rate, util, _ = _solve_concurrent_lp(state, alive_idx, reach)
        if rate <= _RATE_EPS:
            break
        for s, dests in reach.items():
            state.add_demand(s, dests, rate)
        state.utilization = np.zeros(state.capacity.size)
        state.utilization[alive_idx] = util
        state.capacity[alive_idx] -= util
        np.clip(state.capacity, 0.0, None, out=state.capacity)
        state.capacity[state.capacity <= _RESIDUAL_EPS] = 0.0
    else:
        raise ComputeError("optimization loop failed to converge")
    raw = float(sum(state.demand.values()))
    return ThroughputResult(raw, dict(state.demand)), state


# -- dispatch -------------------------------------------------------------------


def evaluate_throughput(g: Graph, model: ThroughputModel) -> ThroughputResult:
    if model.kind == "dijkstra_homogeneous":
        return throughput_dijkstra_homogeneous(g, model)
    if model.kind == "dijkstra_heterogeneous":
        return throughput_dijkstra_heterogeneous(g, model)
    return throughput_lp(g, model)


def raw_throughput(g: Graph, model: ThroughputModel) -> float:
    """raw_throughput only; skips the per-pair map for the homogeneous model."""
    if model.kind == "dijkstra_homogeneous":
        return _raw_homogeneous(g, model)[0]
    return evaluate_throughput(g, model).raw_throughput


def compare_models(g: Graph, tie_break: str = "sequential", seed: int | None = None) -> ModelComparison:
    """raw_throughput under all three engines (LP size limits apply)."""
    kw = dict(tie_break=tie_break, seed=seed)
    return ModelComparison(
        lp=throughput_lp(g, ThroughputModel(kind="lp_optimization", **kw)).raw_throughput,
        heterogeneous=throughput_dijkstra_heterogeneous(
            g, ThroughputModel(kind="dijkstra_heterogeneous", **kw)
        ).raw_throughput,
        homogeneous=throughput_dijkstra_homogeneous(
            g, ThroughputModel(kind="dijkstra_homogeneous", **kw)
        ).raw_throughput,
    )
