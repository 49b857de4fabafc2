"""Reference computations that the benchmark checks netelast's outputs against.

Everything here is plain Python, numpy and scipy.sparse.csgraph.  Nothing
imports netelast, so a fault in the library's traversal or routing code
cannot hide inside its own check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph


def fmt7(x: float) -> str:
    """The CSV number format: 7 significant digits, literal NaN."""
    if isinstance(x, float) and math.isnan(x):
        return "NaN"
    return f"{x:.7g}"


def edge_array(edges) -> np.ndarray:
    """(m, 2) int64 array of undirected edges."""
    return np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)


def distances(n: int, edges) -> np.ndarray:
    """All-pairs hop distances as an (n, n) float array, inf when unreachable."""
    e = edge_array(edges)
    adj = sparse.csr_matrix(
        (np.ones(e.shape[0]), (e[:, 0], e[:, 1])), shape=(n, n)
    )
    return csgraph.shortest_path(adj, directed=False, unweighted=True)


def homogeneous_throughput(n: int, edges, dist: np.ndarray | None = None, chunk: int = 64) -> float:
    """Raw throughput of single-path shortest-path routing at one uniform rate.

    Every ordered connected pair (s, t) sends along the path that picks, at
    each node at distance d from s, the smallest-id neighbour at distance
    d - 1.  An arc's load is the number of pairs routed over it, which is the
    size of the subtree below it in s's tree, summed over sources.  The
    uniform rate is 1 / (max load), so the throughput is pairs / max load.
    """
    e = edge_array(edges)
    if e.shape[0] == 0:
        return 0.0
    if dist is None:
        dist = distances(n, e)
    tails = np.concatenate([e[:, 0], e[:, 1]])
    heads = np.concatenate([e[:, 1], e[:, 0]])
    order = np.lexsort((tails, heads))  # grouped by head, tails ascending
    tails, heads = tails[order], heads[order]
    arcs = tails.size
    targets, starts = np.unique(heads, return_index=True)
    load = np.zeros(n * n)
    pairs = 0
    for lo in range(0, n, chunk):
        d = dist[lo : lo + chunk]
        rows = d.shape[0]
        dh = d[:, heads]
        cand = np.isfinite(dh) & (d[:, tails] + 1.0 == dh)
        first = np.minimum.reduceat(
            np.where(cand, np.arange(arcs), arcs), starts, axis=1
        )
        pred = np.full((rows, n), -1, dtype=np.int64)
        pred[:, targets] = np.where(first < arcs, tails[np.minimum(first, arcs - 1)], -1)
        reached = pred >= 0
        pairs += int(reached.sum())
        # subtree sizes, deepest level first
        cnt = reached.astype(float).ravel()
        finite = np.where(np.isfinite(d), d, -1.0)
        for level in range(int(finite.max()), 1, -1):
            r, c = np.nonzero(finite == level)
            flat = r * n + c
            cnt += np.bincount(r * n + pred[r, c], weights=cnt[flat], minlength=rows * n)
        r, c = np.nonzero(reached)
        load += np.bincount(pred[r, c] * n + c, weights=cnt[r * n + c], minlength=n * n)
    top = load.max()
    return pairs / top if top > 0 else 0.0


def largest_component(n: int, edges) -> np.ndarray:
    """Members of the largest component; ties go to the component holding
    the smallest id."""
    e = edge_array(edges)
    adj = sparse.csr_matrix((np.ones(e.shape[0]), (e[:, 0], e[:, 1])), shape=(n, n))
    _, labels = csgraph.connected_components(adj, directed=False)
    best = None
    for lab in dict.fromkeys(labels.tolist()):  # first-seen order = smallest member
        members = np.flatnonzero(labels == lab)
        if best is None or members.size > best.size:
            best = members
    return best


def structure(n: int, edges, dist: np.ndarray | None = None) -> dict:
    """nodes, links, density, and diameter / average shortest path measured
    in hops on the largest component (NaN when it is a single node)."""
    e = edge_array(edges)
    m = e.shape[0]
    if dist is None:
        dist = distances(n, e)
    comp = largest_component(n, e)
    if comp.size < 2:
        diameter = asp = math.nan
    else:
        sub = dist[np.ix_(comp, comp)]
        diameter = float(sub.max())
        asp = float(sub.sum()) / (comp.size * (comp.size - 1))
    return {
        "nodes": n,
        "links": m,
        "density": 2.0 * m / (n * (n - 1)),
        "diameter": diameter,
        "asp": asp,
    }


def trapezoid(xs, ys) -> float:
    """Trapezoid-rule area, summed left to right."""
    total = 0.0
    for i in range(1, len(xs)):
        total += 0.5 * (xs[i] - xs[i - 1]) * (ys[i] + ys[i - 1])
    return total


def mesh_sample(n: int, k: int) -> float:
    """Normalized throughput of K_n after k removals: (n-k)(n-k-1)/(n(n-1))."""
    return (n - k) * (n - k - 1) / (n * (n - 1))


def tradeoff(er: float, ed: float, eb: float, n: int, m: int, tol=(1.0, 1.0, 1.0, 1.0)) -> float:
    """Tolerance-weighted elasticities minus the excess-link penalty
    1 - exp(-(m - (n - 1)) / (2n)), which is 0 below a spanning tree."""
    excess = m - (n - 1)
    penalty = 1.0 - math.exp(-0.5 * excess / n) if excess > 0 else 0.0
    return tol[0] * er + tol[1] * ed + tol[2] * eb - tol[3] * penalty


def removal_fractions(n: int, batch: int, stop_fraction: float) -> list[float]:
    """Share of nodes removed before each sample of an elasticity curve."""
    zeta = math.ceil(stop_fraction * n)
    out = [0.0]
    removed = 0
    while removed < zeta:
        removed += min(batch, zeta - removed)
        out.append(removed / n)
    return out


def random_attack_order(n: int, seed: int) -> list[int]:
    """The seeded uniform permutation a random attack removes nodes in."""
    return [int(v) for v in np.random.default_rng(seed).permutation(list(range(n)))]


def degree_attack_order(n: int, edges, batch: int) -> list[int]:
    """Adaptive highest-degree order: re-rank the remaining graph before
    every batch, highest degree first, ties to the smaller id."""
    adj = [set() for _ in range(n)]
    for u, v in edge_array(edges).tolist():
        adj[u].add(v)
        adj[v].add(u)
    alive = set(range(n))
    order: list[int] = []
    while alive:
        ranked = sorted(alive, key=lambda v: (-len(adj[v]), v))
        for v in ranked[:batch]:
            for u in adj[v]:
                adj[u].discard(v)
            adj[v] = set()
            alive.discard(v)
            order.append(v)
    return order


def surviving_edges(edges, removed) -> np.ndarray:
    """Edges with neither end in `removed`."""
    e = edge_array(edges)
    gone = np.isin(e, np.asarray(removed, dtype=np.int64))
    return e[~gone.any(axis=1)]
