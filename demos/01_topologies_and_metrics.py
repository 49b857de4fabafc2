#!/usr/bin/env python3
"""Build one instance of each topology family and print its metric suite.

The table mirrors the metrics.csv layout the experiment runner emits:
density, diameter, average shortest path (both on the largest component),
and heterogeneity (degree std / degree mean).
"""

import netelast as ne

TOPOLOGIES = {
    "gilbert-dense": ne.gen_gilbert(1000, 0.0091, seed=1),
    "gilbert-sparse": ne.gen_gilbert(1000, 0.004094, seed=1),
    "watts-strogatz": ne.gen_watts_strogatz(1000, 6, 0.3, seed=1),
    "pref-attach": ne.gen_preferential_attachment(1000, 2, seed=1),
    "grid-31x32": ne.gen_near_regular(31, 32, False),
    "grid-diagonal": ne.gen_near_regular(31, 32, True),
    "mesh-100": ne.gen_mesh(100),
}

print(f"{'name':15s} {'nodes':>6s} {'links':>7s} {'density':>9s} "
      f"{'diam':>5s} {'asp':>7s} {'het':>6s}")
for name, g in TOPOLOGIES.items():
    rep = ne.metrics(g)
    print(f"{name:15s} {rep.nodes:6d} {rep.links:7d} {rep.density:9.5f} "
          f"{rep.diameter:5.0f} {rep.asp:7.3f} {rep.heterogeneity:6.3f}")

print()
print("Degree histogram of the preferential-attachment instance (degree: count):")
hist = ne.metrics(TOPOLOGIES["pref-attach"]).degree_histogram
for deg in sorted(hist)[:10]:
    print(f"  {deg:3d}: {hist[deg]}")
print(f"  ... up to degree {max(hist)}")
