"""Vectorized CSR kernels for breadth-first traversal.

Everything here works on a plain (indptr, indices) pair so the same code
serves the undirected structural graph and the directed residual graphs of
the routing engines (keep_arcs masks the arcs that still have capacity).
The level-edge kernels are level-synchronous: each BFS level is expanded
with a handful of numpy calls, which keeps per-node Python overhead out of
the n = 1000 attack simulations.  Every traversal from many sources runs
through sweep, the one loop over blocks of sources; routing (route, with
the residual engines' reachability), betweenness (brandes) and the
hop-distance sums of `metrics` (hop_profile) all read its bfs results,
Traversal records that carry their sources and id space, so these kernels
take nothing else.  The id space is always indptr.size - 1.
Connected components come from hook-and-shortcut rounds over the same
arrays (component_labels).  Every bfs takes them: the labels of a
symmetric CSR that holds every arc it traverses (the graph's own CSR, for
the residual CSRs kept from it), which bound what each source can reach.
The module needs numpy only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# one batched bfs holds at most _BLOCK_NODES flat ids (sources x id space)
# and gathers at most _BLOCK_ARCS arcs per level
_BLOCK_NODES = 1 << 16
_BLOCK_ARCS = 1 << 18


def build_csr(
    tails: np.ndarray, heads: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) for the directed arc list, one row per tail,
    entries within a row sorted by head id."""
    order = np.lexsort((heads, tails))
    tails = tails[order]
    heads = heads[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, tails + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, heads.astype(np.int64, copy=False)


def keep_arcs(
    indptr: np.ndarray, indices: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the arcs where the bool mask `keep` is set, in their order:
    the rows stay sorted, so no re-sort is needed."""
    kept = np.concatenate(([0], np.cumsum(keep)))
    return kept[indptr], indices[keep]


def arc_tails(indptr: np.ndarray) -> np.ndarray:
    """Tail of every arc; positions match `indices`."""
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))


def component_labels(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """For every node id of a symmetric CSR, the smallest id in its
    connected component (a node without arcs is its own label).

    FastSV hook-and-shortcut rounds (Shiloach & Vishkin 1982; Zhang, Azad &
    Hu 2020) over a parent forest whose parents only ever decrease: each
    node finds the smallest grandparent among its neighbours, hooks its
    parent and itself onto it, and jumps to its own grandparent.  The rounds
    stop when no grandparent changes; then, since a parent never exceeds its
    node, every tree is a star, every arc lies within one star, and each
    star's root is its component's smallest id.
    """
    parent = np.arange(indptr.size - 1, dtype=np.int64)
    # rows without arcs would break reduceat's segments; they keep their id
    rows = np.flatnonzero(indptr[1:] > indptr[:-1])
    if not rows.size:
        return parent
    starts = indptr[rows]
    grand = parent.copy()
    while True:
        # each row's smallest neighbouring grandparent hooks the row's parent
        # (one scatter per node, not per arc) and the row itself; then every
        # node jumps to its grandparent
        least = np.minimum.reduceat(grand[indices], starts)
        hooked = parent.copy()
        np.minimum.at(hooked, parent[rows], least)
        hooked[rows] = np.minimum(hooked[rows], least)
        np.minimum(hooked, grand, out=hooked)
        parent = hooked
        jumped = parent[parent]
        if np.array_equal(jumped, grand):
            return parent
        grand = jumped


def source_blocks(count: int, n: int, arcs: int) -> list[slice]:
    """Consecutive slices of `count` sources, each small enough for one
    batched bfs: at most _BLOCK_NODES flat ids, and at most _BLOCK_ARCS arcs
    gathered in one level (a source gathers each of the `arcs` arcs at most
    once)."""
    size = max(1, min(_BLOCK_NODES // max(n, 1), _BLOCK_ARCS // max(arcs, 1)))
    return [slice(start, start + size) for start in range(0, count, size)]


def sweep(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray, labels: np.ndarray):
    """Batched bfs over `sources` in consecutive blocks (source_blocks),
    yielding (part, traversal) per block: the slice of `sources` it covers
    and its bfs result (`labels` as in bfs).  This is the only loop over
    source blocks."""
    for part in source_blocks(len(sources), indptr.size - 1, indices.size):
        yield part, bfs(indptr, indices, sources[part], labels)


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


class Traversal(NamedTuple):
    """The result of one batched bfs from `sources` over an id space of `n`
    nodes.  Node v as seen from sources[i] has the flat id i * n + v: the
    traversals are one BFS over disjoint copies of the graph, and `dist`,
    `frontiers` and `level_edges` are indexed by flat id.  bfs and
    gather_rows build that layout; every other reader goes through rows and
    source_of, so the layout is stated in this module alone.

      dist        int array, -1 for unreached flat ids;
      frontiers   list of ascending flat id arrays, one per BFS level
                  (level 0 = sources);
      level_edges list of (tails, heads, arcs) arrays holding every arc that
                  crosses from level d to level d+1, ordered by tail then
                  head, with its position in `indices`.  Multi-parent arcs
                  are all retained, which is what the shortest-path
                  counting needs.
    """

    sources: np.ndarray
    n: int
    dist: np.ndarray
    frontiers: list[np.ndarray]
    level_edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]]

    def rows(self, flat: np.ndarray) -> np.ndarray:
        """An array over the flat ids as one row per source, indexed by node id."""
        return flat.reshape(-1, self.n)

    def source_of(self, flat: np.ndarray) -> np.ndarray:
        """The index into `sources` of each of the flat ids `flat`."""
        return flat // self.n


def bfs(indptr: np.ndarray, indices: np.ndarray, sources, labels: np.ndarray) -> Traversal:
    """Level-synchronous BFS from every node of `sources` at once, over the
    id space of `indptr` (see Traversal).

    `labels` are the component labels (component_labels) of a symmetric CSR
    that holds every arc of this one: the CSR itself, or the graph whose
    arcs a residual CSR keeps.  A source reaches at most the rest of its
    component there, so a traversal that has found all of it stops
    expanding, which skips the last level's gather (every arc of a dense
    graph); the arcs left to it lead to nodes already seen, so the result
    is the same.  Labels that put every id in one component (np.zeros)
    bound each source by the whole id space.
    """
    n = indptr.size - 1
    frontier = np.arange(np.size(sources), dtype=np.int64) * n + sources
    dist = np.full(frontier.size * n, -1, dtype=np.int64)
    dist[frontier] = 0
    t = Traversal(np.atleast_1d(sources), n, dist, [frontier], [])
    # how many nodes each source has yet to find
    left = np.bincount(labels)[labels[t.sources]] - 1
    while frontier.size:
        frontier = frontier[left[t.source_of(frontier)] > 0]
        tails, heads, arcs = gather_rows(indptr, indices, frontier, n)
        # an arc to a node unseen before this level crosses into the next
        # level, at distance d = len(frontiers); three gathers by position
        # are several times faster than by this (typically mixed) bool mask
        cross = np.flatnonzero(dist[heads] == -1)
        if not cross.size:
            break
        d = len(t.frontiers)
        t.level_edges.append((tails[cross], heads[cross], arcs[cross]))
        dist[t.level_edges[-1][1]] = d
        frontier = np.flatnonzero(dist == d)
        left -= np.bincount(t.source_of(frontier), minlength=left.size)
        t.frontiers.append(frontier)
    return t


def brandes(t: Traversal, accum: np.ndarray) -> None:
    """Add the dependency contribution of the sources of the bfs result `t`,
    in source order, into `accum`.

    Standard shortest-path counting with even splitting over equal-length
    paths, done level-by-level with bincount scatter-adds over flat ids.
    """
    sigma = np.zeros(t.dist.size)
    sigma[t.frontiers[0]] = 1.0
    for tails, heads, _ in t.level_edges:
        sigma += np.bincount(heads, weights=sigma[tails], minlength=sigma.size)
    delta = np.zeros(sigma.size)
    for tails, heads, _ in reversed(t.level_edges):
        ratio = (1.0 + delta[heads]) / sigma[heads]
        delta += sigma * np.bincount(tails, weights=ratio, minlength=sigma.size)
    delta[t.frontiers[0]] = 0.0
    for row in t.rows(delta):
        accum += row


def hop_profile(t: Traversal, out: np.ndarray) -> None:
    """Write the distance profile of the sources of the bfs result `t` into
    the (2, n) int array `out`: column s of a source s gets the sum of its
    hop distances to the nodes it reaches (row 0) and the largest of them,
    its eccentricity within its component (row 1).  Unreached nodes (dist
    -1) count for neither.
    """
    rows = t.rows(t.dist)
    out[:, t.sources] = np.maximum(rows, 0).sum(axis=1), rows.max(axis=1)


def route(t: Traversal, rng: np.random.Generator | None, loads: np.ndarray) -> np.ndarray:
    """Route the bfs result `t` on pick_predecessors' trees (`rng` as there):
    add to `loads` the paths over each arc of `indices`, the size of the
    subtree below it, and return each source's row of reached nodes.
    Subtree sizes are summed level by level into arrays of one level's size."""
    pred, via, pos = pick_predecessors(t, rng)
    below = np.ones(t.frontiers[-1].size)
    for fr, up in zip(reversed(t.frontiers[1:]), reversed(t.frontiers[:-1])):
        np.add.at(loads, via[fr], below)
        below = 1.0 + np.bincount(pos[pred[fr]], weights=below, minlength=up.size)
    return t.rows(pred >= 0)


def pick_predecessors(
    t: Traversal, rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predecessor of every flat id reached by the bfs result `t` and the
    position of the arc from it, both -1 elsewhere: the smallest-id parent,
    or with `rng` a uniformly random one (a random priority per candidate
    arc, the first arc of least priority per head).  Also returns each
    reached flat id's position within its level (its index in its frontier;
    unset elsewhere), through which each level is decided in arrays of its
    own size.

    The priorities are drawn source by source and, within a source, level
    by level in arc order, so a batch draws what one bfs per source would.
    """
    pred, via = np.full((2, t.dist.size), -1, dtype=np.int64)
    pos = np.empty(t.dist.size, dtype=np.int64)
    for fr in t.frontiers:
        pos[fr] = np.arange(fr.size)
    keys = [None] * len(t.level_edges)
    if rng is not None and t.level_edges:
        heads = np.concatenate([h for _, h, _ in t.level_edges])
        # levels list their arcs by ascending source: sorting stably by source is the draw order
        draws = np.empty(heads.size)
        draws[np.argsort(t.source_of(heads), kind="stable")] = rng.random(heads.size)
        keys = np.split(draws, np.cumsum([h.size for _, h, _ in t.level_edges])[:-1])
    for key, fr, (tails, heads, arcs) in zip(keys, t.frontiers[1:], t.level_edges):
        # arcs are in tail order, so without priorities the first one wins;
        # every node of the level fr is the head of at least one arc
        at = pos[heads]
        win = np.arange(heads.size)
        if key is not None:
            least = np.full(fr.size, np.inf)
            np.minimum.at(least, at, key)
            win = win[key == least[at]]
        pick = np.full(fr.size, heads.size)
        np.minimum.at(pick, at[win], win)
        pred[fr] = tails[pick]
        via[fr] = arcs[pick]
    return pred, via, pos
