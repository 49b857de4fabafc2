#!/usr/bin/env python3
"""The three routing engines side by side on small graphs.

The optimization engine solves an exact concurrent-flow linear program per
residual round, so it only accepts small graphs; the two shortest-path
engines scale to the 1000-node grids.
"""

import io

import netelast as ne

def cycle(n):
    g = ne.Graph(n)
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g

def wheel(n):
    g = ne.Graph(n)
    for i in range(1, n):
        g.add_edge(0, i)
        g.add_edge(i, i % (n - 1) + 1)
    return g

GRAPHS = {
    "path-3": ne.load_edge_list(io.StringIO("0 1\n1 2")),
    "clique-5": ne.gen_mesh(5),
    "cycle-6": cycle(6),
    "wheel-7": wheel(7),
    "gilbert-9": ne.gen_gilbert(9, 0.5, seed=4),
}

print(f"{'graph':12s} {'optimization':>13s} {'heterogeneous':>14s} {'homogeneous':>12s}")
for name, g in GRAPHS.items():
    c = ne.compare_models(g)
    print(f"{name:12s} {c.lp:13.4f} {c.heterogeneous:14.4f} {c.homogeneous:12.4f}")

print()
print("The heterogeneous filler always delivers at least the homogeneous")
print("total (its first round IS the homogeneous allocation).  The")
print("optimization engine maximizes the worst pair's rate each round,")
print("which costs total throughput on sparse graphs with long detours -")
print("see the per-pair view below for how the filler spreads deliveries.")

print()
r = ne.throughput_dijkstra_heterogeneous(ne.load_edge_list(io.StringIO("0 1\n1 2\n2 3")))
print("per-pair deliveries on the 4-path (heterogeneous filler):")
for (s, t), v in sorted(r.per_pair_delivered.items()):
    print(f"  {s} -> {t}: {v:.3f}")
