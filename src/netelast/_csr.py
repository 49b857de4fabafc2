"""Vectorized CSR kernels for breadth-first traversal.

Everything here works on a plain (indptr, indices) pair so the same code
serves the undirected structural graph and the directed residual graphs of
the routing engines.  The level-edge kernels are level-synchronous: each BFS
level is expanded with a handful of numpy calls, which keeps per-node Python
overhead out of the n = 1000 attack simulations.  Jobs that need only
distances or components go to scipy's compiled traversals.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csgraph, csr_matrix

_EMPTY = np.empty(0, dtype=np.int64)

# source rows per shortest_path call: bounds the dense distance block at
# _DIST_BLOCK x n floats instead of a full n x n matrix
_DIST_BLOCK = 128


def build_csr(
    tails: np.ndarray, heads: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) for the directed arc list, one row per tail,
    entries within a row sorted by head id.

    Row-sorted entries make the concatenated arcs ascending under the key
    tail * n + head, which arc_position() relies on.
    """
    order = np.lexsort((heads, tails))
    tails = tails[order]
    heads = heads[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, tails + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, heads.astype(np.int64, copy=False)


def arc_tails(indptr: np.ndarray) -> np.ndarray:
    """Tail of every arc; positions match `indices`."""
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))


def arc_keys(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Sorted key tail * n + head for every arc; positions match `indices`."""
    return arc_tails(indptr) * n + indices


def adjacency(indptr: np.ndarray, indices: np.ndarray, n: int) -> csr_matrix:
    """The arcs as a unit-weight scipy matrix, row = tail, column = head."""
    return csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))


def hop_distances(indptr: np.ndarray, indices: np.ndarray, n: int, sources: np.ndarray):
    """Yield (block, dist) over consecutive blocks of `sources`.

    dist[i, t] is the hop count from block[i] to t along the arcs, inf when
    t is unreachable.
    """
    adj = adjacency(indptr, indices, n)
    for start in range(0, sources.size, _DIST_BLOCK):
        block = sources[start : start + _DIST_BLOCK]
        yield block, csgraph.shortest_path(adj, unweighted=True, indices=block)


def arc_position(keys: np.ndarray, tails: np.ndarray, heads: np.ndarray, n: int) -> np.ndarray:
    """Index of each (tail, head) arc inside the CSR arrays."""
    return np.searchsorted(keys, tails.astype(np.int64) * n + heads)


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR entries of `rows`.

    Returns (tails, heads): the row id repeated per entry and the entries
    themselves.  Fully vectorized ragged gather.
    """
    if rows.size == 1:
        r = int(rows[0])
        heads = indices[indptr[r] : indptr[r + 1]]
        if heads.size == 0:
            return _EMPTY, _EMPTY
        return np.full(heads.size, r, dtype=np.int64), heads
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    tails = np.repeat(rows, counts)
    # within-row offsets: arange minus each row's cumulative start
    offsets = np.cumsum(counts) - counts
    pos = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)
    return tails, indices[pos]


def bfs(indptr: np.ndarray, indices: np.ndarray, source: int, n: int):
    """Level-synchronous BFS from `source`.

    Returns (dist, frontiers, level_edges):
      dist        int array, -1 for unreached nodes;
      frontiers   list of node arrays, one per BFS level (level 0 = source);
      level_edges list of (tails, heads) arrays holding every arc that
                  crosses from level d to level d+1.  Multi-parent arcs are
                  all retained, which is what the shortest-path counting
                  needs.
    """
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    frontiers = [frontier]
    level_edges: list[tuple[np.ndarray, np.ndarray]] = []
    d = 0
    while frontier.size:
        tails, heads = gather_rows(indptr, indices, frontier)
        if tails.size == 0:
            break
        unseen = dist[heads] == -1
        newly = heads[unseen]
        if newly.size == 0:
            break
        dist[newly] = d + 1
        cross = dist[heads] == d + 1
        level_edges.append((tails[cross], heads[cross]))
        frontier = np.unique(newly)
        frontiers.append(frontier)
        d += 1
    return dist, frontiers, level_edges


def brandes_source(
    indptr: np.ndarray,
    indices: np.ndarray,
    source: int,
    n: int,
    accum: np.ndarray,
) -> None:
    """Add the dependency contribution of one source into `accum`.

    Standard shortest-path counting with even splitting over equal-length
    paths, done level-by-level with bincount scatter-adds.
    """
    dist, _, level_edges = bfs(indptr, indices, source, n)
    sigma = np.zeros(n)
    sigma[source] = 1.0
    for tails, heads in level_edges:
        sigma += np.bincount(heads, weights=sigma[tails], minlength=n)
    delta = np.zeros(n)
    for tails, heads in reversed(level_edges):
        ratio = (1.0 + delta[heads]) / sigma[heads]
        delta += sigma * np.bincount(tails, weights=ratio, minlength=n)
    delta[source] = 0.0
    accum += delta


def pick_predecessors(level_edges, n: int, rng: np.random.Generator | None) -> np.ndarray:
    """Predecessor of every reached node, -1 elsewhere: the smallest-id
    parent, or with `rng` a uniformly random one (a random priority per
    candidate arc, drawn level by level, and an argmin per head).
    """
    pred = np.full(n, -1, dtype=np.int64)
    for tails, heads in level_edges:
        key = tails if rng is None else rng.random(heads.size)
        order = np.lexsort((key, heads))
        heads_s = heads[order]
        first = np.unique(heads_s, return_index=True)[1]
        pred[heads_s[first]] = tails[order][first]
    return pred
