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

# source rows per shortest_path call: bounds the dense distance block at
# _DIST_BLOCK x n floats instead of a full n x n matrix
_DIST_BLOCK = 128

# one batched bfs holds at most _BLOCK_NODES flat ids (sources x id space)
# and gathers at most _BLOCK_ARCS arcs per level
_BLOCK_NODES = 1 << 16
_BLOCK_ARCS = 1 << 17


def build_csr(
    tails: np.ndarray, heads: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) for the directed arc list, one row per tail,
    entries within a row sorted by head id.

    Row-sorted entries make the concatenated arcs ascending under the key
    tail * n + head (arc_keys), so a repeated arc sits next to its twin.
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


def component_reach(indptr: np.ndarray, indices: np.ndarray, n: int, sources: np.ndarray) -> np.ndarray:
    """Size of each source's connected component on a symmetric CSR: the
    number of nodes a BFS from it reaches, itself included."""
    _, labels = csgraph.connected_components(adjacency(indptr, indices, n), directed=False)
    return np.bincount(labels)[labels[sources]]


def source_blocks(count: int, n: int, arcs: int) -> list[slice]:
    """Consecutive slices of `count` sources, each small enough for one
    batched bfs: at most _BLOCK_NODES flat ids, and at most _BLOCK_ARCS arcs
    gathered in one level (a source gathers each of the `arcs` arcs at most
    once)."""
    size = max(1, min(_BLOCK_NODES // max(n, 1), _BLOCK_ARCS // max(arcs, 1)))
    return [slice(start, start + size) for start in range(0, count, size)]


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate the CSR entries of the flat ids `rows` (i * n + v).

    Returns (tails, heads, arcs): the row repeated per entry and the entries
    themselves, as flat ids of the row's copy, and each entry's position in
    `indices`.  Fully vectorized ragged gather.
    """
    local = rows % n
    starts = indptr[local]
    counts = indptr[local + 1] - starts
    tails = np.repeat(rows, counts)
    # within-row offsets: arange minus each row's cumulative start
    offsets = np.cumsum(counts) - counts
    arcs = np.arange(tails.size, dtype=np.int64) + np.repeat(starts - offsets, counts)
    return tails, indices[arcs] + np.repeat(rows - local, counts), arcs


def bfs(indptr: np.ndarray, indices: np.ndarray, sources, n: int, reach=None):
    """Level-synchronous BFS from every node of `sources` at once.

    Node v as seen from sources[i] has the flat id i * n + v: the traversals
    are one BFS over disjoint copies of the graph, and every array below is
    indexed by flat id (for a single source, flat ids are node ids).
    `reach`, when given, is the number of nodes each source reaches, itself
    included; a traversal that has found them all stops expanding, which
    skips the last level's gather (every arc of a dense graph).

    Returns (dist, frontiers, level_edges):
      dist        int array, -1 for unreached nodes;
      frontiers   list of ascending node arrays, one per BFS level (level 0
                  = sources);
      level_edges list of (tails, heads, arcs) arrays holding every arc that
                  crosses from level d to level d+1, ordered by tail then
                  head, with its position in `indices`.  Multi-parent arcs
                  are all retained, which is what the shortest-path
                  counting needs.
    """
    frontier = np.arange(np.size(sources), dtype=np.int64) * n + sources
    dist = np.full(frontier.size * n, -1, dtype=np.int64)
    dist[frontier] = 0
    left = None if reach is None else np.asarray(reach, dtype=np.int64) - 1
    frontiers = [frontier]
    level_edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    d = 0
    while frontier.size:
        if left is not None:
            frontier = frontier[left[frontier // n] > 0]
        tails, heads, arcs = gather_rows(indptr, indices, frontier, n)
        # an arc to a node unseen before this level crosses into level d + 1
        cross = dist[heads] == -1
        if not cross.any():
            break
        level_edges.append((tails[cross], heads[cross], arcs[cross]))
        dist[level_edges[-1][1]] = d + 1
        frontier = np.flatnonzero(dist == d + 1)
        if left is not None:
            left -= np.bincount(frontier // n, minlength=left.size)
        frontiers.append(frontier)
        d += 1
    return dist, frontiers, level_edges


def brandes(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    n: int,
    reach: np.ndarray,
    accum: np.ndarray,
) -> None:
    """Add the dependency contribution of each of `sources`, in order, into
    `accum`.

    Standard shortest-path counting with even splitting over equal-length
    paths, done level-by-level with bincount scatter-adds over flat ids.
    """
    dist, frontiers, level_edges = bfs(indptr, indices, sources, n, reach)
    sigma = np.zeros(dist.size)
    sigma[frontiers[0]] = 1.0
    for tails, heads, _ in level_edges:
        sigma += np.bincount(heads, weights=sigma[tails], minlength=dist.size)
    delta = np.zeros(dist.size)
    for tails, heads, _ in reversed(level_edges):
        ratio = (1.0 + delta[heads]) / sigma[heads]
        delta += sigma * np.bincount(tails, weights=ratio, minlength=dist.size)
    delta[frontiers[0]] = 0.0
    for row in delta.reshape(-1, n):
        accum += row


def pick_predecessors(
    level_edges, size: int, n: int, rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray]:
    """Predecessor of every reached flat id and the position of the arc
    from it, both -1 elsewhere: the smallest-id parent, or with `rng` a
    uniformly random one (a random priority per candidate arc, the first
    arc of least priority per head).

    The priorities are drawn source by source and, within a source, level
    by level in arc order, so a batch draws what one bfs per source would.
    """
    pred = np.full(size, -1, dtype=np.int64)
    via = np.full(size, -1, dtype=np.int64)
    keys = [None] * len(level_edges)
    if rng is not None and level_edges:
        rows = [heads // n for _, heads, _ in level_edges]
        counts = np.array([np.bincount(r, minlength=size // n) for r in rows])
        # start of each (level, source) run in the source-major draw order
        starts = np.cumsum(counts.T).reshape(counts.T.shape).T - counts
        draws = rng.random(int(counts.sum()))
        for d, r in enumerate(rows):
            first = np.cumsum(counts[d]) - counts[d]
            keys[d] = draws[starts[d][r] + np.arange(r.size) - first[r]]
    for key, (tails, heads, arcs) in zip(keys, level_edges):
        # arcs are in tail order, so without priorities the first one wins
        win = np.arange(heads.size)
        if key is not None:
            least = np.full(size, np.inf)
            np.minimum.at(least, heads, key)
            win = win[key == least[heads]]
        pick = np.full(size, heads.size)
        np.minimum.at(pick, heads[win], win)
        pick = pick[heads]
        pred[heads] = tails[pick]
        via[heads] = arcs[pick]
    return pred, via
