"""Undirected simple graph with stable node ids, plus the structural metrics.

Nodes are integers 0..n-1.  Removing a node leaves its id in place as an
inert slot, so attack sequences and reports can keep referring to original
labels while the live graph shrinks around them.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csgraph

from . import _csr
from .errors import ComputeError, ParameterError, ParseError

__all__ = [
    "Graph",
    "MetricsReport",
    "load_edge_list",
    "save_edge_list",
    "metrics",
    "betweenness",
    "connected_components",
    "METRICS_CSV_HEADER",
]

METRICS_CSV_HEADER = "name,nodes,links,density,diameter,asp,heterogeneity"

_NODES_HEADER = re.compile(r"^#\s*nodes\s+(\d+)\s*$")


class Graph:
    """Undirected simple graph: no self-loops, no parallel edges.

    Mutation is limited to add_edge (construction time) and remove_node
    (attack simulation); every query is pure.
    """

    __slots__ = ("_adj", "_present", "_m", "_csr_cache")

    def __init__(self, n: int):
        if n < 0:
            raise ParameterError(f"node count must be nonnegative, got {n}")
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self._present = np.ones(n, dtype=bool)
        self._m = 0
        self._csr_cache = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def add_edge(self, u: int, v: int) -> None:
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ParameterError(f"self-loop {u}-{v} not allowed")
        if v in self._adj[u]:
            raise ParameterError(f"edge {u}-{v} already present")
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._m += 1
        self._csr_cache = None

    def _remove_edge(self, u: int, v: int) -> None:
        """Drop one edge (generator internals only; keeps M and cache sane)."""
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._m -= 1
        self._csr_cache = None

    def remove_node(self, v: int) -> None:
        """Delete v and its incident edges; the id stays allocated but inert."""
        self._check_node(v)
        for u in self._adj[v]:
            self._adj[u].discard(v)
        self._m -= len(self._adj[v])
        self._adj[v] = set()
        self._present[v] = False
        self._csr_cache = None

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g._adj = [set(s) for s in self._adj]
        g._present = self._present.copy()
        g._m = self._m
        g._csr_cache = self._csr_cache
        return g

    # -- queries -----------------------------------------------------------

    @property
    def id_space(self) -> int:
        """Size of the id range, including removed slots."""
        return len(self._adj)

    @property
    def number_of_nodes(self) -> int:
        return int(self._present.sum())

    @property
    def number_of_edges(self) -> int:
        return self._m

    @property
    def nodes(self) -> list[int]:
        return [int(v) for v in np.flatnonzero(self._present)]

    def has_node(self, v: int) -> bool:
        return 0 <= v < len(self._adj) and bool(self._present[v])

    def has_edge(self, u: int, v: int) -> bool:
        return self.has_node(u) and v in self._adj[u]

    def neighbors(self, v: int) -> list[int]:
        self._check_node(v)
        return sorted(self._adj[v])

    def degree(self, v: int) -> int:
        self._check_node(v)
        return len(self._adj[v])

    def degrees(self) -> np.ndarray:
        """Degree of every present node, in ascending id order."""
        return np.array([len(self._adj[v]) for v in self.nodes], dtype=np.int64)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with u < v, sorted."""
        out = []
        for u in self.nodes:
            for v in self._adj[u]:
                if u < v:
                    out.append((u, v))
        out.sort()
        return out

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric CSR over the id space (two directed arcs per edge)."""
        if self._csr_cache is None:
            m = self._m
            tails = np.empty(2 * m, dtype=np.int64)
            heads = np.empty(2 * m, dtype=np.int64)
            k = 0
            for u in np.flatnonzero(self._present):
                nbrs = self._adj[u]
                d = len(nbrs)
                if d:
                    tails[k : k + d] = u
                    heads[k : k + d] = np.fromiter(nbrs, dtype=np.int64, count=d)
                    k += d
            self._csr_cache = _csr.build_csr(tails[:k], heads[:k], self.id_space)
        return self._csr_cache

    def _check_node(self, v: int) -> None:
        if not (0 <= v < len(self._adj)):
            raise ParameterError(f"node id {v} out of range [0, {len(self._adj)})")
        if not self._present[v]:
            raise ParameterError(f"node {v} has been removed")

    def __repr__(self) -> str:
        return f"Graph(nodes={self.number_of_nodes}, edges={self._m})"


# -- edge-list format --------------------------------------------------------


def load_edge_list(source) -> Graph:
    """Parse the plain-text edge-list format.

    One `u v` pair per line, whitespace separated decimal ids.  Lines
    starting with `#` are comments; an optional `# nodes N` line declares
    the node count (needed for trailing isolated nodes).  Duplicate edges
    and self-loops are rejected so that data errors in ingested files
    surface instead of being silently merged.

    `source` may be a str/bytes payload, a Path, or an open text file.
    """
    if isinstance(source, Path):
        text = source.read_text()
    elif isinstance(source, bytes):
        text = source.decode()
    elif isinstance(source, str):
        text = source
    else:
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode()

    declared_n: int | None = None
    pairs: list[tuple[int, int, int]] = []  # (u, v, line_no)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _NODES_HEADER.match(line)
            if m:
                declared_n = int(m.group(1))
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"expected two node ids, got {len(tokens)} tokens", line_no)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {tokens!r}", line_no) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative node id in {tokens!r}", line_no)
        if u == v:
            raise ParseError(f"self-loop {u} {v}", line_no)
        pairs.append((u, v, line_no))

    max_id = max((max(u, v) for u, v, _ in pairs), default=-1)
    if declared_n is not None:
        if max_id >= declared_n:
            raise ParseError(f"edge references id {max_id} but header declares {declared_n} nodes")
        n = declared_n
    else:
        n = max_id + 1

    g = Graph(n)
    seen: set[tuple[int, int]] = set()
    for u, v, line_no in pairs:
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParseError(f"duplicate edge {u} {v}", line_no)
        seen.add(key)
        g.add_edge(u, v)
    return g


def save_edge_list(g: Graph, target) -> None:
    """Write the edge-list format (with a `# nodes N` header) to a path or file.

    Round-trips (N, edge set) exactly.  Removed slots are not representable:
    they reload as isolated nodes.
    """
    lines = [f"# nodes {g.id_space}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    payload = "\n".join(lines) + "\n"
    if isinstance(target, (str, Path)):
        Path(target).write_text(payload)
    else:
        target.write(payload)


def dumps_edge_list(g: Graph) -> str:
    buf = io.StringIO()
    save_edge_list(g, buf)
    return buf.getvalue()


# -- components and metrics ---------------------------------------------------


def connected_components(g: Graph) -> list[list[int]]:
    """Partition of the present nodes, ordered by smallest member id, each
    component's members ascending."""
    indptr, indices = g.csr()
    _, labels = csgraph.connected_components(
        _csr.adjacency(indptr, indices, g.id_space), directed=False
    )
    present = np.flatnonzero(g._present)
    order = np.argsort(labels[present], kind="stable")
    members = present[order]
    cuts = np.flatnonzero(np.diff(labels[members])) + 1
    return sorted((c.tolist() for c in np.split(members, cuts) if c.size), key=lambda c: c[0])


def betweenness(g: Graph) -> np.ndarray:
    """Shortest-path betweenness of every node id.

    Counts unordered source-destination pairs, splitting credit evenly
    across equal-length shortest paths; endpoints are excluded.  Removed
    slots get 0.
    """
    indptr, indices = g.csr()
    n = g.id_space
    accum = np.zeros(n)
    for s in np.flatnonzero(g._present):
        _csr.brandes_source(indptr, indices, int(s), n, accum)
    return accum / 2.0


@dataclass
class MetricsReport:
    """The structural metric suite of one graph.

    diameter and asp are measured in hops on the largest connected
    component; they are NaN when that component is a single node.
    """

    nodes: int
    links: int
    density: float
    diameter: float
    asp: float
    heterogeneity: float
    degree_histogram: dict[int, int]
    betweenness_values: np.ndarray

    def csv_row(self, name: str) -> str:
        from .experiment import fmt  # local import to avoid a cycle

        return ",".join(
            [
                name,
                str(self.nodes),
                str(self.links),
                fmt(self.density),
                fmt(self.diameter),
                fmt(self.asp),
                fmt(self.heterogeneity),
            ]
        )


def metrics(g: Graph, with_betweenness: bool = True) -> MetricsReport:
    """Density, diameter, average shortest path, heterogeneity, and
    the degree histogram of `g`.

    Heterogeneity is the population standard deviation of the degree
    sequence divided by its mean (0 for regular graphs, 0 on an edgeless
    graph by convention).
    """
    n = g.number_of_nodes
    if n < 2:
        raise ComputeError(f"metrics undefined for graphs with {n} node(s)")
    m = g.number_of_edges
    density = 2.0 * m / (n * (n - 1))

    degs = g.degrees()
    mean_deg = degs.mean()
    het = float(degs.std() / mean_deg) if mean_deg > 0 else 0.0

    hist: dict[int, int] = {}
    for d in degs:
        hist[int(d)] = hist.get(int(d), 0) + 1

    comp = max(connected_components(g), key=len)
    if len(comp) < 2:
        diameter = math.nan
        asp = math.nan
    else:
        indptr, indices = g.csr()
        members = np.array(comp)
        total = 0
        eccmax = 0
        for _, dist in _csr.hop_distances(indptr, indices, g.id_space, members):
            dc = dist[:, members]
            total += int(dc.sum())
            eccmax = max(eccmax, int(dc.max()))
        diameter = float(eccmax)
        # every unordered pair counted twice in the per-source sums
        asp = total / (len(comp) * (len(comp) - 1))

    bvals = betweenness(g) if with_betweenness else np.zeros(g.id_space)
    return MetricsReport(
        nodes=n,
        links=m,
        density=density,
        diameter=diameter,
        asp=asp,
        heterogeneity=het,
        degree_histogram=hist,
        betweenness_values=bvals,
    )
