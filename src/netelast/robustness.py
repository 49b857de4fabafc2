"""Attack strategies, the elasticity score, its analytic mesh bounds, and the
cost-aware tradeoff function.

Elasticity is the area under the curve of normalized throughput versus the
fraction of nodes removed, integrated with the trapezoid rule from the intact
graph down to a configurable stopping fraction.  The closed forms below give
the complete graph's value exactly; it tends to 1/3 as the graph grows and is
the natural reference point for every other topology.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import _csr
from .errors import ComputeError, NetelastError, ParameterError
from .graph import Graph, _is_id, betweenness, fmt, seeded_rng, write_lines
from .throughput import ThroughputModel, check_size, raw_throughput

__all__ = [
    "AttackStrategy",
    "ElasticityCurve",
    "TradeoffParams",
    "attack_sequence",
    "elasticity",
    "mesh_elasticity_discrete",
    "mesh_elasticity_continuous",
    "tradeoff_re",
    "ATTACK_KINDS",
]

ATTACK_KINDS = ("random", "highest_degree", "highest_betweenness")


@dataclass
class AttackStrategy:
    """Node-removal rule.

    recompute=True re-ranks degree/betweenness on the shrinking graph before
    every batch; recompute=False ranks once on the intact graph.  `batch` is
    the number of nodes removed per throughput re-evaluation, an integer
    (Python or numpy, not a bool) of at least 1.
    """

    kind: str
    seed: int | None = None
    recompute: bool = True
    batch: int = 1

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ParameterError(f"unknown attack kind {self.kind!r}")
        if not _is_id(self.batch) or self.batch < 1:
            raise ParameterError(f"batch must be an integer >= 1, got {self.batch!r}")
        if self.kind == "random" and self.seed is None:
            raise ParameterError("random attack requires a seed")
        if self.kind != "random" and self.seed is not None:
            raise ParameterError(f"{self.kind} attack takes no seed")


def _rank(g: Graph, kind: str, scores: np.ndarray | None) -> list[int]:
    """Present nodes ordered by descending score, ties to the smaller id; a
    betweenness ranking reads `scores`, the betweenness of `g`."""
    nodes = np.flatnonzero(g._present)
    scores = g.degrees() if kind == "highest_degree" else scores[nodes]
    return nodes[np.lexsort((nodes, -scores))].tolist()


def _evaluate(g: Graph, model: ThroughputModel | None, rank: bool, profile=None):
    """(raw throughput of `g` under `model`, None without a model; the
    betweenness of `g` when `rank` is set, else None).  With a model, both
    come from the engine's one routing traversal of `g`, which also writes
    the hop-distance profile of `g` (_csr.hop_profile) into `profile` when
    one is given: this is the only code that knows what its `visit` does."""
    if model is None:
        return None, betweenness(g) if rank else None
    accum = np.zeros(g.id_space)

    def visit(traversal):
        if rank:
            _csr.brandes(traversal, accum)
        if profile is not None:
            _csr.hop_profile(traversal, profile)

    raw = raw_throughput(g, model, visit if rank or profile is not None else None)
    return raw, accum / 2.0 if rank else None


def _order(g: Graph, strategy: AttackStrategy, scores) -> list[int] | None:
    """The removal order of a random or static attack, fixed on the intact
    graph `g` (a betweenness ranking reads `scores`); None when the attack
    re-ranks before every batch."""
    if strategy.kind == "random":
        return [int(v) for v in seeded_rng(strategy.seed).permutation(g.nodes)]
    return None if strategy.recompute else _rank(g, strategy.kind, scores)


def _attack(g: Graph, strategy: AttackStrategy, limit: int, model: ThroughputModel | None, scores, lane=0, lanes=1):
    """Remove the first `limit` nodes of the attack from a working copy of `g`,
    one batch of `strategy.batch` at a time, yielding (batch, raw throughput
    of the copy under `model`, or None) after each state i of this lane,
    those with i % lanes == lane.

    Random and static orders are fixed on the intact graph, and the copy
    catches up on their removals only before a state it evaluates, so
    without a model it removes none.  Adaptive rankings are recomputed on
    the copy before every batch, so every batch is removed.  A betweenness
    ranking reads `scores` on the intact graph and, after a batch, the
    betweenness that the copy's evaluation returned.
    """
    order = _order(g, strategy, scores)
    rerank = order is None and strategy.kind == "highest_betweenness"
    work, done = g.copy(), 0
    for i, removed in enumerate(range(0, limit, strategy.batch)):
        end = min(removed + strategy.batch, limit)
        own = i % lanes == lane
        evaluate = own and model is not None
        batch = _rank(work, strategy.kind, scores)[: end - removed] if order is None else order[removed:end]
        if order is None or evaluate:
            work.remove_nodes(batch if order is None else order[done:end])
            done = end
        raw, rank = None, rerank and end < limit
        if evaluate or rank:
            raw, scores = _evaluate(work, model, rank)
        if own:
            yield batch, raw


def attack_sequence(g: Graph, strategy: AttackStrategy) -> list[int]:
    """The full removal order for `g` under `strategy`.

    The input graph is not modified.  For adaptive strategies the ranking is
    refreshed once per batch of `strategy.batch` removals.
    """
    scores = _evaluate(g, None, strategy.kind == "highest_betweenness")[1]
    return [v for batch, _ in _attack(g, strategy, g.number_of_nodes, None, scores) for v in batch]


@dataclass
class ElasticityCurve:
    """Sampled degradation trajectory plus its trapezoidal integral.

    fractions[i] is the share of the original nodes removed before the i-th
    throughput evaluation; normalized[i] the matching throughput relative to
    the intact graph (alpha).
    """

    fractions: np.ndarray
    normalized: np.ndarray
    elasticity: float
    alpha: float
    strategy: str = ""
    model: str = ""
    seed: int | None = None

    @property
    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.fractions.tolist(), self.normalized.tolist()))

    def write_csv(self, target) -> None:
        write_lines(
            target,
            [
                "fraction_removed,normalized_throughput",
                *(f"{fmt(f)},{fmt(t)}" for f, t in self.samples),
                f"# elasticity = {fmt(self.elasticity)}",
                f"# alpha = {fmt(self.alpha)}",
                f"# strategy = {self.strategy}",
                f"# model = {self.model}",
                f"# seed = {'' if self.seed is None else self.seed}",
            ],
        )


def check_stop_fraction(stop_fraction: float) -> None:
    """ParameterError unless 0 < stop_fraction <= 1, the share of nodes an
    attack curve removes."""
    if not 0.0 < stop_fraction <= 1.0:
        raise ParameterError(f"stop_fraction must be in (0, 1], got {stop_fraction}")


def _trapezoid(x: np.ndarray, y: np.ndarray) -> float:
    return float(0.5 * np.sum((x[1:] - x[:-1]) * (y[1:] + y[:-1])))


def elasticity(
    g: Graph,
    strategy: AttackStrategy,
    model: ThroughputModel | None = None,
    stop_fraction: float = 1.0,
) -> ElasticityCurve:
    """Degradation curve and elasticity of `g` under one attack strategy.

    Throughput is evaluated on the intact graph (alpha) and after every
    batch of removals until ceil(stop_fraction * N) nodes are gone; batches
    wider than one node are linearly interpolated by the trapezoid rule.
    The states of a random or degree attack are evaluated in parallel
    worker processes when the curve is large enough to pay for them (see
    _Plan and _pool_size).
    """
    (curve,) = _curves(g, [strategy], model or ThroughputModel(), stop_fraction)
    if isinstance(curve, NetelastError):
        raise curve
    return curve


def _curves(
    g: Graph, strategies: list[AttackStrategy], model: ThroughputModel, stop_fraction: float
) -> list[ElasticityCurve | NetelastError]:
    """elasticity() of `g` under each of `strategies`, or the error that ended
    that curve: one _Plan, run by _run_plans."""
    ((cells, _),), _ = _run_plans([_Plan(g, strategies, model, stop_fraction)])
    return cells


# rough seconds of one evaluation, fitted to 25 curves of the three engines
# on a 2-core x86 host: routing every source costs _ROUTE_BASE + _ROUTE_UNIT
# * (present nodes) * (id space), since a bfs block scans a row of the id
# space per source and level; the heterogeneous engine routes at most one
# residual round per arc; the LP's HiGHS solves grow as _LP_UNIT * (present
# nodes)^2 * arcs
_ROUTE_BASE = 5e-5
_ROUTE_UNIT = 1.5e-7
_LP_UNIT = 3e-6
# estimated seconds below which the evaluations run in this process: a pool
# costs 10-20 ms to fork, feed and join, and in the same fit it saved
# nothing below this
_POOL_BREAK_EVEN = 0.05


class _Plan:
    """The attack curves of one graph as independent tasks plus a pure
    assembler.

    The head task evaluates the intact graph once for every curve: alpha,
    the betweenness ranking if a curve needs it, and the hop-distance profile
    of its metrics row.  It then runs the betweenness curves, whose states
    depend on an evaluation.  The states of every other curve (random, or
    static or adaptive degree) need none, so tasks(width) fixes for each
    such curve w = min(width, states) strided lanes: lane j walks the attack
    on its own copy and evaluates states j, j + w, j + 2w, ... (see _attack).
    Each state is evaluated by the same code on the same arrays however they
    are split, so the curves are byte-identical at every width.
    """

    def __init__(self, g: Graph, strategies: list[AttackStrategy], model: ThroughputModel, stop_fraction: float):
        self.g, self.strategies, self.model = g, strategies, model
        n = g.number_of_nodes
        # `refused` ends every curve before any task
        self.refused = None
        try:
            check_stop_fraction(stop_fraction)
            if n == 0:
                raise ComputeError("cannot attack an empty graph")
            check_size(g, model.kind)
        except NetelastError as exc:
            self.refused = exc
            return
        self.limit = math.ceil(stop_fraction * n)
        # the nodes that each batch of each curve removes
        self.steps = [[min(s.batch, self.limit - r) for r in range(0, self.limit, s.batch)] for s in strategies]

    def work(self) -> float:
        """Estimated seconds of every evaluation of the plan in one process,
        from sizes known before any: per state, the nodes k left in it, the
        intact graph's arcs (thinned as removals do at random) and the
        engine."""
        if self.refused:
            return 0.0
        n, intact, kind, total = self.g.number_of_nodes, self.g.csr()[1].size, self.model.kind, 0.0
        for k in [n] + [n - removed for steps in self.steps for removed in itertools.accumulate(steps)]:
            arcs = intact * (k / n) ** 2
            route = _ROUTE_BASE + _ROUTE_UNIT * k * self.g.id_space
            route = route if kind == "dijkstra_homogeneous" else route * (arcs + 1)
            total += _LP_UNIT * k * k * arcs if kind == "lp_optimization" else route
        return total

    def tasks(self, width: int) -> tuple[list[tuple], list[tuple]]:
        """([the head task], the lane tasks), each as (function, *arguments),
        at most `width` lanes per curve; none if the graph is refused.  Sets
        `lanes`: per curve its lane count, 0 for one that runs in the head."""
        if self.refused:
            return [], []
        g, model, limit, strategies = self.g, self.model, self.limit, self.strategies
        curves = zip(strategies, self.steps)
        self.lanes = [0 if s.kind == "highest_betweenness" else min(width, len(steps)) for s, steps in curves]
        ranked = [s for s, w in zip(strategies, self.lanes) if not w]
        lanes = [(_lane, g, model, s, limit, None, j, w) for s, w in zip(strategies, self.lanes) for j in range(w)]
        return [(_head, g, model, ranked, limit)], lanes

    def assemble(self, heads: list, lanes: list) -> tuple[list[ElasticityCurve | NetelastError], np.ndarray | None]:
        """(per strategy its curve or the error that ended it, the intact
        graph's hop profile or None) from the results of tasks(), in their
        order.  An error of the intact evaluation ends every curve."""
        if self.refused:
            return [self.refused] * len(self.strategies), None
        ((alpha, ranked, profile),) = heads
        if isinstance(alpha, NetelastError):
            return [alpha] * len(self.strategies), profile
        ranked, lanes = iter(ranked), iter(lanes)
        n, cells = self.g.number_of_nodes, []
        for strategy, steps, w in zip(self.strategies, self.steps, self.lanes):
            curve = [next(lanes) for _ in range(w)] if w else [next(ranked)]
            # state i is the (i // w)-th of lane i % w; a lane ends at its
            # first error, so the first error in state order ends the curve
            raws = [raw for row in itertools.zip_longest(*curve) for raw in row if raw is not None]
            error = next((raw for raw in raws if isinstance(raw, NetelastError)), None)
            if error is not None:
                cells.append(error)
                continue
            fr = np.cumsum([0] + steps) / n
            tp = np.array([1.0] + [raw / alpha for raw in raws])
            cells.append(
                ElasticityCurve(fr, tp, _trapezoid(fr, tp), alpha, strategy.kind, self.model.kind, strategy.seed)
            )
        return cells, profile


def _head(g: Graph, model: ThroughputModel, strategies: list[AttackStrategy], limit: int):
    """The head task of a _Plan: (alpha, or the error that ended the intact
    evaluation; per strategy of `strategies`, which rank by betweenness,
    its _lane; the hop profile that the intact evaluation wrote)."""
    hops = np.full((2, g.id_space), -1)
    try:
        alpha, scores = _evaluate(g, model, bool(strategies), hops)
        if alpha <= 0.0:
            raise ComputeError("elasticity undefined: initial throughput is 0")
    except NetelastError as exc:
        return exc, [], hops
    return alpha, [_lane(g, model, strategy, limit, scores) for strategy in strategies], hops


def _lane(g: Graph, model: ThroughputModel, strategy: AttackStrategy, limit: int, scores, lane=0, lanes=1) -> list:
    """A lane of an attack curve: the raw throughput of the states lane,
    lane + lanes, ... of _attack, walked on one copy.  The list ends at the
    first error, which it holds."""
    raws = []
    try:
        for _, raw in _attack(g, strategy, limit, model, scores, lane, lanes):
            raws.append(raw)
    except NetelastError as exc:
        raws.append(exc)
    return raws


def _pool_size(work: float) -> int:
    """Lanes per curve, and the most worker processes, for tasks that take
    about `work` seconds in one process: one per CPU this process may run
    on.  It is 1, so that the tasks run in this process, when `work` is
    below _POOL_BREAK_EVEN; in a daemonic process, which may not start any;
    and where `os.sched_getaffinity` is missing (macOS and Windows, where
    fork is unsafe or absent)."""
    if work < _POOL_BREAK_EVEN:
        return 1
    import multiprocessing

    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or multiprocessing.current_process().daemon:
        return 1
    return len(affinity(0))


def _run_plans(plans: list[_Plan]) -> tuple[list[tuple], int]:
    """(every plan's assemble(), the number of worker processes or 1): every
    plan's heads, then every plan's lanes, go through one _map at _pool_size
    lanes per curve and at most one worker per task."""
    width = _pool_size(sum(p.work() for p in plans))
    split = [p.tasks(width) for p in plans]
    groups = [heads for heads, _ in split] + [lanes for _, lanes in split]
    tasks = [task for group in groups for task in group]
    workers = min(width, len(tasks)) or 1
    done = iter(_map(tasks, workers))
    got = [list(itertools.islice(done, len(group))) for group in groups]
    return [plan.assemble(heads, lanes) for plan, heads, lanes in zip(plans, got, got[len(plans) :])], workers


def _call(task: tuple):
    fn, *args = task
    return fn(*args)


def _map(tasks: list[tuple], workers: int) -> list:
    """`fn(*args)` for every task (fn, *args), in task order: in a pool of
    `workers` forked processes fed one task at a time, or in this process
    when `workers` is 1.  No worker outlives the call: on an error,
    including an interrupt, the tasks still running are stopped, as an
    error in this process would stop them."""
    if workers <= 1:
        return [_call(task) for task in tasks]
    # imported here, so that `import netelast` does not pay for it
    import multiprocessing

    # fork: a worker starts from this process's memory, netelast imported;
    # spawn would import it again in every worker.  imap, not map, raises
    # at the first failing task without waiting for the rest, and leaving
    # the block terminates the workers
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return list(pool.imap(_call, tasks))


# -- analytic mesh bounds -------------------------------------------------------


def mesh_elasticity_discrete(n: int, zeta: int) -> float:
    """Trapezoidal elasticity of the complete graph on n nodes after zeta
    removals, evaluated exactly from the per-step throughput.

    After k removals the mesh keeps (n-k)(n-k-1) of its n(n-1) pairs, so the
    trapezoid sum is one ratio of integers; it is computed in Python integers
    and divided once, which rounds correctly at any n.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if not 1 <= zeta <= n:
        raise ParameterError(f"zeta must be in [1, {n}], got {zeta}")

    def t(b):  # sum of j(j-1) for j = 1..b
        return (b + 1) * b * (b - 1) // 3

    inner = t(n - 1) - t(n - zeta)  # the samples after 1..zeta-1 removals
    last = (n - zeta) * (n - zeta - 1)
    return (n * (n - 1) + 2 * inner + last) / (2 * n * n * (n - 1))


def mesh_elasticity_continuous(n: int, zeta: int | str | None = "all") -> float:
    """Continuous-integration counterpart of the mesh elasticity.

    zeta="all" (or None, or n) gives the full-removal value
    1/3 - 1/(6n) - 1/(6n^2), which tends to the 1/3 upper bound.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    nf = float(n)
    if zeta in ("all", None) or zeta == n:
        return 1.0 / 3.0 - 1.0 / (6.0 * nf) - 1.0 / (6.0 * nf * nf)
    z = float(zeta)
    if not 0 <= z <= n:
        raise ParameterError(f"zeta must be in [0, {n}], got {zeta}")
    # antiderivative of (N-k)(N-k-1)/(N(N-1)) over k in [0, zeta], /N
    numerator = nf * (nf - 1.0) * z + 0.5 * (1.0 - 2.0 * nf) * z**2 + z**3 / 3.0
    return float(numerator / (nf * nf * (nf - 1.0)))


# -- elasticity/cost tradeoff ---------------------------------------------------


@dataclass
class TradeoffParams:
    """Tolerance weights for random, degree, and betweenness attacks, plus
    the excess-link penalty weight."""

    alpha_tol: float = 1.0
    beta_tol: float = 1.0
    delta_tol: float = 1.0
    gamma_tol: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"{f.name} must be in [0, 1], got {v}")


def tradeoff_re(
    elas_r: float,
    elas_d: float,
    elas_b: float,
    n: int,
    m: int,
    params: TradeoffParams | None = None,
) -> float:
    """Tolerance-weighted elasticity score minus the excess-link penalty.

    density' = 1 - exp(-(m - (n-1)) / (2n)), clamped to 0 for graphs with
    fewer links than a spanning tree.
    """
    params = params or TradeoffParams()
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if m < 0:
        raise ParameterError(f"need m >= 0, got {m}")
    # self-normalized elasticity of small graphs can exceed the 1/3 mesh
    # asymptote, so the domain check is the loose [0, 1]
    for label, value in (("elas_r", elas_r), ("elas_d", elas_d), ("elas_b", elas_b)):
        if not 0.0 <= value <= 1.0:
            raise ParameterError(f"{label}={value} outside [0, 1]")
    excess = m - (n - 1)
    density_penalty = 1.0 - math.exp(-0.5 * excess / n) if excess > 0 else 0.0
    return (
        params.alpha_tol * elas_r
        + params.beta_tol * elas_d
        + params.delta_tol * elas_b
        - params.gamma_tol * density_penalty
    )
