"""Shared fixtures: small graph builders and independent brute-force oracles.

The oracles deliberately avoid the library's vectorized kernels: plain dict
BFS and explicit path enumeration, so they can argue with the real
implementations.
"""

import os
import signal
import subprocess
import sys
from collections import deque
from contextlib import contextmanager
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

import netelast as ne


def run_python(script, *paths):
    """stdout lines of `script` in a fresh interpreter, with `paths` and then
    netelast's source directory first on PYTHONPATH."""
    src = Path(ne.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [*map(str, paths), str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout.splitlines()


# -- builders -----------------------------------------------------------------


def path_graph(n):
    g = ne.Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def cycle_graph(n):
    g = ne.Graph(n)
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def star_graph(n):
    """Hub 0 plus n-1 leaves."""
    g = ne.Graph(n)
    for i in range(1, n):
        g.add_edge(0, i)
    return g


def wheel_graph(n):
    """Hub 0 plus an (n-1)-cycle rim."""
    g = star_graph(n)
    for i in range(1, n):
        g.add_edge(i, i % (n - 1) + 1)
    return g


def graph_from_edges(n, edges):
    return ne.Graph.from_edges(n, edges)


def random_connected_graph(rng, n, p=0.5):
    """Uniform G(n, p) conditioned on connectivity."""
    while True:
        g = ne.Graph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    g.add_edge(u, v)
        if len(ne.connected_components(g)) == 1:
            return g


# the three fixed evaluation networks: nested robustness, wide separations
def fixed_test_networks():
    return {
        "clique": ne.gen_mesh(7),
        "wheel": wheel_graph(7),
        "star": star_graph(7),
    }


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in this process if the block runs past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def raises_exactly(exc, text):
    """pytest.raises(exc), with `text` as the error's whole message."""
    with pytest.raises(exc) as info:
        yield
    assert str(info.value) == text


# -- oracles ------------------------------------------------------------------


def bfs_distances(adj, source):
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def structure_oracle(g):
    """(components, diameter, asp) by dict BFS from every present node;
    diameter and asp on the largest component, NaN when it is one node."""
    adj = {v: g.neighbors(v) for v in g.nodes}
    dists = {s: bfs_distances(adj, s) for s in adj}
    comps = [list(c) for c in sorted({tuple(sorted(d)) for d in dists.values()})]
    comp = max(comps, key=len)
    k = len(comp)
    if k < 2:
        return comps, float("nan"), float("nan")
    hops = [dists[s][t] for s in comp for t in comp]
    return comps, float(max(hops)), sum(hops) / (k * (k - 1))


def all_shortest_paths(adj, s, t):
    """Every shortest s-t path, by backward walk over BFS distances."""
    dist = bfs_distances(adj, s)
    if t not in dist:
        return []
    paths = []

    def walk(v, tail):
        if v == s:
            paths.append([s] + tail)
            return
        for u in adj[v]:
            if u in dist and dist[u] == dist[v] - 1:
                walk(u, [v] + tail)

    walk(t, [])
    return paths


def betweenness_oracle(g):
    """Exhaustive shortest-path enumeration over unordered pairs."""
    nodes = g.nodes
    adj = {v: g.neighbors(v) for v in nodes}
    bc = {v: 0.0 for v in nodes}
    for s, t in combinations(nodes, 2):
        paths = all_shortest_paths(adj, s, t)
        if not paths:
            continue
        for v in nodes:
            if v not in (s, t):
                bc[v] += sum(v in p for p in paths) / len(paths)
    return bc


def homogeneous_oracle(g):
    """Dict-based reimplementation of the homogeneous engine for tiny graphs:
    smallest-id predecessors, per-arc path counts, uniform rate."""
    nodes = g.nodes
    adj = {v: g.neighbors(v) for v in nodes}
    util = {}
    pairs = 0
    for s in nodes:
        dist = bfs_distances(adj, s)
        pred = {}
        for v in sorted(dist):
            if v == s:
                continue
            pred[v] = min(u for u in adj[v] if u in dist and dist[u] == dist[v] - 1)
        for v in pred:
            pairs += 1
            w = v
            while w != s:
                arc = (pred[w], w)
                util[arc] = util.get(arc, 0) + 1
                w = pred[w]
    if not util:
        return 0.0
    return pairs / max(util.values())


def heterogeneous_oracle(g):
    """Dict-based reimplementation of the heterogeneous engine for tiny
    graphs (n <= 10): each round routes every present source along
    smallest-id predecessors over the directed arcs whose residual capacity
    is above ne.throughput._RESIDUAL_EPS, pushes the largest rate that no
    residual violates to every routed pair, and subtracts it.  Returns the
    sum of the per-pair totals."""
    nodes = g.nodes
    assert len(nodes) <= 10, "dict oracle only for tiny graphs"
    capacity = {(u, v): 1.0 for u in nodes for v in g.neighbors(u)}
    delivered = {}
    while True:
        alive = sorted(arc for arc, c in capacity.items() if c > ne.throughput._RESIDUAL_EPS)
        if not alive:
            break
        out = {v: [w for u, w in alive if u == v] for v in nodes}
        into = {v: [u for u, w in alive if w == v] for v in nodes}
        loads, paths = {}, []
        for s in nodes:
            dist = bfs_distances(out, s)
            for t in sorted(dist):
                if t == s:
                    continue
                path, w = [], t
                while w != s:
                    u = min(u for u in into[w] if dist.get(u) == dist[w] - 1)
                    path.append((u, w))
                    w = u
                paths.append((s, t))
                for arc in path:
                    loads[arc] = loads.get(arc, 0) + 1
        rate = min(capacity[arc] / load for arc, load in loads.items())
        if rate <= 0:
            break
        for pair in paths:
            delivered[pair] = delivered.get(pair, 0.0) + rate
        for arc, load in loads.items():
            capacity[arc] -= rate * load
    return sum(delivered[pair] for pair in sorted(delivered))


def canonical_relabel(g):
    """Brute-force canonical form for tiny graphs: the labeling that
    minimizes the sorted edge list over all permutations."""
    nodes = g.nodes
    n = len(nodes)
    assert n <= 7, "factorial canonicalization only for tiny graphs"
    best = None
    for perm in permutations(range(n)):
        mapping = dict(zip(nodes, perm))
        edges = sorted(
            tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges()
        )
        if best is None or edges < best:
            best = edges
    out = ne.Graph(n)
    for u, v in best:
        out.add_edge(u, v)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
