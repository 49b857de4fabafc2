"""Seeded constructors for the synthetic topology families.

All generators are pure functions of their parameters: one 64-bit seed fully
determines the edge set, so experiment grids are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graph import Graph

__all__ = [
    "GeneratorSpec",
    "gen_gilbert",
    "gen_watts_strogatz",
    "gen_preferential_attachment",
    "gen_near_regular",
    "gen_mesh",
    "FAMILIES",
]

FAMILIES = ("gilbert", "watts_strogatz", "preferential_attachment", "near_regular", "mesh")


def gen_gilbert(n: int, p: float, seed: int) -> Graph:
    """Random graph G(n, p): every unordered pair is an edge with probability p."""
    if n < 2:
        raise ParameterError(f"gilbert needs n >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    pairs = np.column_stack(np.triu_indices(n, k=1))
    mask = rng.random(pairs.shape[0]) < p
    return Graph.from_edges(n, pairs[mask])


def gen_watts_strogatz(n: int, k: int, p: float, seed: int) -> Graph:
    """Ring lattice with k nearest neighbours, each lattice edge rewired
    with probability p.

    Rewiring replaces the far endpoint with a uniformly random node,
    retrying up to n times on self-loops/duplicates and leaving the edge in
    place when no slot is found, so the edge count is always n*k/2.
    """
    if k % 2 != 0 or k < 2:
        raise ParameterError(f"neighbour count k must be even and >= 2, got {k}")
    if k >= n:
        raise ParameterError(f"need n > k, got n={n}, k={k}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"rewiring probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    pair = lambda a, b: (a, b) if a < b else (b, a)
    edges = {pair(i, (i + d) % n) for d in range(1, k // 2 + 1) for i in range(n)}
    for d in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + d) % n
            if rng.random() >= p:
                continue
            if pair(i, j) not in edges:
                continue  # already rewired away by an earlier pass
            edges.remove(pair(i, j))
            target = None
            for _ in range(n):
                cand = int(rng.integers(0, n))
                if cand != i and pair(i, cand) not in edges:
                    target = cand
                    break
            edges.add(pair(i, target if target is not None else j))
    return Graph.from_edges(n, edges)


def gen_preferential_attachment(n: int, m: int, seed: int) -> Graph:
    """Degree-proportional growth: a clique on m+1 seed nodes, then each
    arriving node attaches m edges to distinct existing nodes chosen with
    probability proportional to current degree.
    """
    if m < 1:
        raise ParameterError(f"attachment count m must be >= 1, got {m}")
    if n <= m:
        raise ParameterError(f"need n > m, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    pairs: list[tuple[int, int]] = []
    repeated: list[int] = []  # one entry per degree unit
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            pairs.append((u, v))
            repeated.append(u)
            repeated.append(v)
    for i in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(0, len(repeated)))])
        for t in sorted(targets):
            pairs.append((i, t))
            repeated.append(i)
            repeated.append(t)
    return Graph.from_edges(n, pairs)


def gen_near_regular(rows: int, cols: int, diagonals: bool, seed: int = 0) -> Graph:
    """Planar grid with unit edges; with diagonals, nodes at distance
    sqrt(2) are connected as well.  Deterministic (the seed is unused).
    """
    if rows < 2 or cols < 2:
        raise ParameterError(f"grid needs rows, cols >= 2, got {rows}x{cols}")
    ids = np.arange(rows * cols).reshape(rows, cols)
    # right, down, and with diagonals down-right and down-left neighbours
    links = [(ids[:, :-1], ids[:, 1:]), (ids[:-1, :], ids[1:, :])]
    if diagonals:
        links += [(ids[:-1, :-1], ids[1:, 1:]), (ids[:-1, 1:], ids[1:, :-1])]
    pairs = [np.column_stack((a.ravel(), b.ravel())) for a, b in links]
    return Graph.from_edges(rows * cols, np.concatenate(pairs))


def gen_mesh(n: int) -> Graph:
    """Complete graph on n nodes."""
    if n < 2:
        raise ParameterError(f"mesh needs n >= 2, got {n}")
    return Graph.from_edges(n, np.column_stack(np.triu_indices(n, k=1)))


@dataclass
class GeneratorSpec:
    """Declarative description of one generator call, as used by experiment
    configs.  Fields that a family does not use may stay at their defaults.
    """

    family: str
    n: int = 0
    p: float = 0.0
    k: int = 0
    m: int = 0
    rows: int = 0
    cols: int = 0
    diagonals: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(
                f"unknown family {self.family!r}; expected one of {', '.join(FAMILIES)}"
            )

    def build(self) -> Graph:
        if self.family == "gilbert":
            return gen_gilbert(self.n, self.p, self.seed)
        if self.family == "watts_strogatz":
            return gen_watts_strogatz(self.n, self.k, self.p, self.seed)
        if self.family == "preferential_attachment":
            return gen_preferential_attachment(self.n, self.m, self.seed)
        if self.family == "near_regular":
            if self.rows * self.cols != self.n and self.n:
                raise ParameterError(
                    f"near_regular rows*cols must equal n, got {self.rows}x{self.cols} != {self.n}"
                )
            return gen_near_regular(self.rows, self.cols, self.diagonals, self.seed)
        return gen_mesh(self.n)
