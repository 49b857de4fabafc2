"""Seeded constructors for the synthetic topology families.

All generators are pure functions of their parameters: one 64-bit seed fully
determines the edge set, so experiment grids are reproducible.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .errors import ParameterError
from .graph import Graph, _is_id, _is_real, seeded_rng

__all__ = [
    "GeneratorSpec",
    "gen_gilbert",
    "gen_watts_strogatz",
    "gen_preferential_attachment",
    "gen_near_regular",
    "gen_mesh",
    "FAMILIES",
    "check_params",
]


def gen_gilbert(n: int, p: float, seed: int) -> Graph:
    """Random graph G(n, p): every unordered pair is an edge with probability p."""
    if not _is_id(n) or n < 2:
        raise ParameterError(f"gilbert needs an integer n >= 2, got {n!r}")
    if not _is_real(p) or not 0.0 <= p <= 1.0:
        raise ParameterError(f"edge probability must be in [0, 1], got {p!r}")
    rng = seeded_rng(seed)
    # row i draws the uniforms of the pairs (i, i+1..n-1): the same stream in
    # the order of np.triu_indices(n, k=1), in O(n + m) memory, not O(n^2)
    hits = [i + 1 + np.flatnonzero(rng.random(n - 1 - i) < p) for i in range(n - 1)]
    heads = np.repeat(np.arange(n - 1), [len(h) for h in hits])
    return Graph.from_edges(n, np.column_stack((heads, np.concatenate(hits))))


def gen_watts_strogatz(n: int, k: int, p: float, seed: int) -> Graph:
    """Ring lattice with k nearest neighbours, each lattice edge rewired
    with probability p.

    Rewiring replaces the far endpoint with a uniformly random node,
    retrying up to n times on self-loops/duplicates and leaving the edge in
    place when no slot is found, so the edge count is always n*k/2.
    """
    if not _is_id(k) or k % 2 != 0 or k < 2:
        raise ParameterError(f"neighbour count k must be an even integer >= 2, got {k!r}")
    if not _is_id(n) or k >= n:
        raise ParameterError(f"need an integer n > k, got n={n!r}, k={k}")
    if not _is_real(p) or not 0.0 <= p <= 1.0:
        raise ParameterError(f"rewiring probability must be in [0, 1], got {p!r}")
    rng = seeded_rng(seed)
    pair = lambda a, b: (a, b) if a < b else (b, a)
    edges = {pair(i, (i + d) % n) for d in range(1, k // 2 + 1) for i in range(n)}
    for d in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + d) % n
            if rng.random() >= p:
                continue
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
    if not _is_id(m) or m < 1:
        raise ParameterError(f"attachment count m must be an integer >= 1, got {m!r}")
    if not _is_id(n) or n <= m:
        raise ParameterError(f"need an integer n > m, got n={n!r}, m={m}")
    rng = seeded_rng(seed)
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


def gen_near_regular(rows: int, cols: int, diagonals: bool = False) -> Graph:
    """Planar grid with unit edges; with diagonals, nodes at distance
    sqrt(2) are connected as well; `diagonals` is a bool (Python or
    numpy).  Deterministic.
    """
    if not (_is_id(rows) and _is_id(cols) and rows >= 2 and cols >= 2):
        raise ParameterError(f"grid needs integer rows, cols >= 2, got {rows!r}x{cols!r}")
    if not isinstance(diagonals, (bool, np.bool_)):
        raise ParameterError(f"diagonals must be a bool, got {diagonals!r}")
    ids = np.arange(rows * cols).reshape(rows, cols)
    # right, down, and with diagonals down-right and down-left neighbours
    links = [(ids[:, :-1], ids[:, 1:]), (ids[:-1, :], ids[1:, :])]
    if diagonals:
        links += [(ids[:-1, :-1], ids[1:, 1:]), (ids[:-1, 1:], ids[1:, :-1])]
    pairs = [np.column_stack((a.ravel(), b.ravel())) for a, b in links]
    return Graph.from_edges(rows * cols, np.concatenate(pairs))


def gen_mesh(n: int) -> Graph:
    """Complete graph on n nodes."""
    if not _is_id(n) or n < 2:
        raise ParameterError(f"mesh needs an integer n >= 2, got {n!r}")
    return Graph.from_edges(n, np.column_stack(np.triu_indices(n, k=1)))


# family -> its generator, whose signature states the parameters the family
# takes: their names, types, and which may be omitted (those with a default)
FAMILIES = {
    "gilbert": gen_gilbert,
    "watts_strogatz": gen_watts_strogatz,
    "preferential_attachment": gen_preferential_attachment,
    "near_regular": gen_near_regular,
    "mesh": gen_mesh,
}


def check_params(family: str, given) -> None:
    """Reject an unknown family, a parameter in `given` that it does not
    take, or one it takes without a default that `given` leaves out."""
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
    takes = inspect.signature(FAMILIES[family]).parameters
    for key in [*given, *takes]:  # an unknown key is named before a missing one
        if key not in takes:
            raise ParameterError(f"family {family} takes {', '.join(takes)}; got {key!r}")
        if key not in given and takes[key].default is inspect.Parameter.empty:
            raise ParameterError(f"family {family} needs {key}")


def _param_types(*families: str) -> dict[str, type]:
    """Each parameter that one of `families` takes -> the type its generator
    annotates.  No name means every family; an unknown family takes none."""
    gens = [FAMILIES[f] for f in families if f in FAMILIES] if families else FAMILIES.values()
    return {key: kind for gen in gens for key, kind in get_type_hints(gen).items() if key != "return"}


@dataclass(init=False)
class GeneratorSpec:
    """Declarative description of one generator call: a family and the
    keyword arguments of its generator (see FAMILIES)."""

    family: str
    params: dict

    def __init__(self, /, family: str, **params):
        check_params(family, params)
        self.family = family
        self.params = params

    def build(self) -> Graph:
        # called through the module attribute, so a wrapper put there sees the call
        return globals()[FAMILIES[self.family].__name__](**self.params)
