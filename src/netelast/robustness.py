"""Attack strategies, the elasticity score, its analytic mesh bounds, and the
cost-aware tradeoff function.

Elasticity is the area under the curve of normalized throughput versus the
fraction of nodes removed, integrated with the trapezoid rule from the intact
graph down to a configurable stopping fraction.  The closed forms below give
the complete graph's value exactly; it tends to 1/3 as the graph grows and is
the natural reference point for every other topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import _csr
from .errors import ComputeError, NetelastError, ParameterError
from .graph import Graph, betweenness, fmt, seeded_rng, write_lines
from .throughput import ThroughputModel, raw_throughput

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
    the number of nodes removed per throughput re-evaluation.
    """

    kind: str
    seed: int | None = None
    recompute: bool = True
    batch: int = 1

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ParameterError(f"unknown attack kind {self.kind!r}")
        if self.batch < 1:
            raise ParameterError(f"batch must be >= 1, got {self.batch}")
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
            _csr.brandes(traversal, g.id_space, accum)
        if profile is not None:
            _csr.hop_profile(traversal, g.id_space, profile)

    raw = raw_throughput(g, model, visit if rank or profile is not None else None)
    return raw, accum / 2.0 if rank else None


def _attack(g: Graph, strategy: AttackStrategy, limit: int, model: ThroughputModel | None, scores):
    """Remove the first `limit` nodes of the attack from a working copy of `g`,
    one batch of `strategy.batch` at a time, yielding (batch, raw throughput
    of the copy under `model`) after each.

    Random and static orders are fixed on the intact graph; adaptive
    rankings are recomputed on the copy before every batch.  A betweenness
    ranking reads `scores` on the intact graph and, after a batch, the
    betweenness that the copy's evaluation returned.
    """
    if strategy.kind == "random":
        order = [int(v) for v in seeded_rng(strategy.seed).permutation(g.nodes)]
    elif not strategy.recompute:
        order = _rank(g, strategy.kind, scores)
    else:
        order = None
    rerank = order is None and strategy.kind == "highest_betweenness"
    work = g.copy()
    removed = 0
    while removed < limit:
        step = min(strategy.batch, limit - removed)
        batch = _rank(work, strategy.kind, scores)[:step] if order is None else order[removed : removed + step]
        work.remove_nodes(batch)
        removed += step
        raw, scores = _evaluate(work, model, rerank and removed < limit)
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
    """
    (curve,) = _curves(g, [strategy], model or ThroughputModel(), stop_fraction)
    if isinstance(curve, NetelastError):
        raise curve
    return curve


def _curves(
    g: Graph, strategies: list[AttackStrategy], model: ThroughputModel, stop_fraction: float, profile=None
) -> list[ElasticityCurve | NetelastError]:
    """elasticity() of `g` under each of `strategies`, or the error that ended
    that curve.  The intact graph is evaluated once for all of them, ranked
    by betweenness only if some strategy needs it, and writing its
    hop-distance profile into `profile` if one is given; if that evaluation
    fails, every entry is its error."""
    n = g.number_of_nodes
    try:
        if not 0.0 < stop_fraction <= 1.0:
            raise ParameterError(f"stop_fraction must be in (0, 1], got {stop_fraction}")
        if n == 0:
            raise ComputeError("cannot attack an empty graph")
        alpha, scores = _evaluate(g, model, any(s.kind == "highest_betweenness" for s in strategies), profile)
        if alpha <= 0.0:
            raise ComputeError("elasticity undefined: initial throughput is 0")
    except NetelastError as exc:
        return [exc] * len(strategies)
    curves, limit = [], math.ceil(stop_fraction * n)
    for strategy in strategies:
        try:
            steps = [(len(batch), raw) for batch, raw in _attack(g, strategy, limit, model, scores)]
        except NetelastError as exc:
            curves.append(exc)
            continue
        fr = np.cumsum([0] + [size for size, _ in steps]) / n
        tp = np.array([1.0] + [raw / alpha for _, raw in steps])
        curves.append(ElasticityCurve(fr, tp, _trapezoid(fr, tp), alpha, strategy.kind, model.kind, strategy.seed))
    return curves


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
