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
take nothing else.  A record names each level's arcs by their positions in
the two frontiers they join, so pick_predecessors, route and brandes work
in arrays of one level's size.  The id space is always indptr.size - 1.
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
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray, n: int, live: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate the CSR entries of the flat ids `rows` (i * n + v) where
    the bool mask `live` is set; any other row contributes no entries.

    Returns (tails, heads, arcs): each entry's row as its position in
    `rows`, the entry itself as a flat id of the row's copy, and its
    position in `indices`.  Fully vectorized ragged gather.
    """
    local = rows % n
    starts = indptr[local]
    counts = np.where(live, indptr[local + 1] - starts, 0)
    tails = np.repeat(np.arange(rows.size), counts)
    # within-row offsets: arange minus each row's cumulative start
    offsets = np.cumsum(counts) - counts
    arcs = np.arange(tails.size) + (starts - offsets)[tails]
    return tails, indices[arcs] + (rows - local)[tails], arcs


class Traversal(NamedTuple):
    """The result of one batched bfs from `sources` over an id space of `n`
    nodes.  Node v as seen from sources[i] has the flat id i * n + v: the
    traversals are one BFS over disjoint copies of the graph, and `dist`
    and `frontiers` are indexed by flat id.  bfs and gather_rows build that
    layout; every other reader goes through rows and source_of, so the
    layout is stated in this module alone.

      dist        int array, -1 for unreached flat ids;
      frontiers   list of ascending flat id arrays, one per BFS level
                  (level 0 = sources);
      level_edges list of (tails, heads, arcs) arrays holding every arc that
                  crosses from level d to level d+1, ordered by tail then
                  head: its tail's position in frontiers[d], its head's
                  position in frontiers[d+1], and its position in
                  `indices`.  Multi-parent arcs are all retained, which is
                  what the shortest-path counting needs.  Being positions,
                  they let pick_predecessors, route and brandes work in
                  arrays of one level's size.
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
    # each flat id's position in its frontier, set as the frontier is found
    slot = np.empty(dist.size, dtype=np.int64)
    t = Traversal(np.atleast_1d(sources), n, dist, [frontier], [])
    # how many nodes each source has yet to find
    left = np.bincount(labels)[labels[t.sources]] - 1
    while True:
        tails, heads, arcs = gather_rows(indptr, indices, frontier, n, left[t.source_of(frontier)] > 0)
        # an arc to a node unseen before this level crosses into the next
        # level, at distance d = len(frontiers); three gathers by position
        # are several times faster than by this (typically mixed) bool mask
        cross = np.flatnonzero(dist[heads] == -1)
        if not cross.size:
            return t
        d = len(t.frontiers)
        heads = heads[cross]
        dist[heads] = d
        frontier = np.flatnonzero(dist == d)
        slot[frontier] = np.arange(frontier.size)
        t.level_edges.append((tails[cross], slot[heads], arcs[cross]))
        left -= np.bincount(t.source_of(frontier), minlength=left.size)
        t.frontiers.append(frontier)


def brandes(t: Traversal, accum: np.ndarray) -> None:
    """Add the dependency contribution of the sources of the bfs result `t`,
    in source order, into `accum`.

    Standard shortest-path counting with even splitting over equal-length
    paths, done level-by-level with bincount scatter-adds over each level's
    positions; only the per-source row adds need a block-sized array.
    """
    sigma = [np.ones(t.frontiers[0].size)]
    for fr, (tails, heads, _) in zip(t.frontiers[1:], t.level_edges):
        sigma.append(np.bincount(heads, weights=sigma[-1][tails], minlength=fr.size))
    delta = np.zeros(t.dist.size)
    below = np.zeros(t.frontiers[-1].size)
    levels = zip(reversed(t.frontiers[1:]), reversed(t.level_edges), reversed(sigma[:-1]), reversed(sigma[1:]))
    for fr, (tails, heads, _), up, down in levels:
        # `below` is the dependency of the level fr; the sources keep 0
        delta[fr] = below
        ratio = (1.0 + below[heads]) / down[heads]
        below = up * np.bincount(tails, weights=ratio, minlength=up.size)
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
    below = np.ones(t.frontiers[-1].size)
    for win, up, (tails, _, arcs) in zip(
        reversed(pick_predecessors(t, rng)), reversed(t.frontiers[:-1]), reversed(t.level_edges)
    ):
        np.add.at(loads, arcs[win], below)
        below = 1.0 + np.bincount(tails[win], weights=below, minlength=up.size)
    return t.rows(t.dist > 0)


def pick_predecessors(t: Traversal, rng: np.random.Generator | None) -> list[np.ndarray]:
    """For every level d >= 1 of the bfs result `t`, the index into
    level_edges[d - 1] of the arc that each node of frontiers[d] takes from
    its predecessor: the smallest-id parent's, or with `rng` a uniformly
    random one's (a random priority per candidate arc, the first arc of
    least priority per head).

    The priorities are drawn source by source and, within a source, level
    by level in arc order, so a batch draws what one bfs per source would.
    """
    keys = [None] * len(t.level_edges)
    if rng is not None and t.level_edges:
        owner = np.concatenate([t.source_of(fr[tails]) for fr, (tails, _, _) in zip(t.frontiers, t.level_edges)])
        # levels list their arcs by ascending source: sorting stably by source is the draw order
        draws = np.empty(owner.size)
        draws[np.argsort(owner, kind="stable")] = rng.random(owner.size)
        keys = np.split(draws, np.cumsum([h.size for _, h, _ in t.level_edges])[:-1])
    wins = []
    for key, fr, (_, heads, _) in zip(keys, t.frontiers[1:], t.level_edges):
        # arcs are in tail order, so without priorities the first one wins;
        # every node of the level fr is the head of at least one arc
        win = np.arange(heads.size)
        if key is not None:
            least = np.full(fr.size, np.inf)
            np.minimum.at(least, heads, key)
            win = win[key == least[heads]]
        pick = np.full(fr.size, heads.size)
        np.minimum.at(pick, heads[win], win)
        wins.append(pick)
    return wins
