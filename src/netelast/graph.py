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

    The state is a symmetric CSR over the id space (two arcs per edge, each
    row sorted by head) and a mask of the present ids.  The arrays are
    read-only and shared by copies; mutation rebinds new ones.
    """

    __slots__ = ("_indptr", "_indices", "_present")

    def __init__(self, n: int):
        if n < 0:
            raise ParameterError(f"node count must be nonnegative, got {n}")
        self._present = np.ones(n, dtype=bool)
        self._set_arcs(np.zeros(n, dtype=np.int64), np.empty(0, dtype=np.int64))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Graph on ids 0..n-1 from a (k, 2) array or an iterable of pairs,
        built in one CSR pass.  Rejects what add_edge rejects: ids out of
        range, self-loops, and an edge given twice in either orientation.
        """
        g = cls(n)
        e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        e = e.reshape(0, 2) if e.size == 0 else e
        if e.ndim != 2 or e.shape[1] != 2:
            raise ParameterError(f"edges must be node id pairs, got shape {e.shape}")
        bad = e[(e < 0) | (e >= n)]
        if bad.size:
            raise ParameterError(f"node id {bad[0]} out of range [0, {n})")
        loops = e[e[:, 0] == e[:, 1]]
        if loops.size:
            raise ParameterError(f"self-loop {loops[0, 0]}-{loops[0, 1]} not allowed")
        indptr, indices = _csr.build_csr(*np.concatenate((e, e[:, ::-1])).T, n)
        keys = _csr.arc_keys(indptr, indices, n)
        dup = np.flatnonzero(keys[1:] == keys[:-1])
        if dup.size:
            u, v = divmod(int(keys[dup[0]]), n)
            raise ParameterError(f"edge {u}-{v} already present")
        g._set_arcs(np.diff(indptr), indices)
        return g

    def add_edge(self, u: int, v: int) -> None:
        """Add edge u-v.  Rebuilds the arrays, so each call costs O(M): meant
        for small hand-built graphs; bulk construction goes through
        from_edges.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ParameterError(f"self-loop {u}-{v} not allowed")
        if self.has_edge(u, v):
            raise ParameterError(f"edge {u}-{v} already present")
        a, b = min(u, v), max(u, v)
        # row a precedes row b, so equal slots still insert b before a
        at = [self._slot(a, b), self._slot(b, a)]
        counts = np.diff(self._indptr)
        counts[[a, b]] += 1
        self._set_arcs(counts, np.insert(self._indices, at, [b, a]))

    def remove_node(self, v: int) -> None:
        """Delete v and its incident edges; the id stays allocated but inert.
        One filter over the arcs, which keeps their order.
        """
        self._check_node(v)
        lo, hi = self._indptr[v], self._indptr[v + 1]
        keep = self._indices != v
        keep[lo:hi] = False
        counts = np.diff(self._indptr)
        counts[self._indices[lo:hi]] -= 1
        counts[v] = 0
        self._present[v] = False
        self._set_arcs(counts, self._indices[keep])

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g._indptr = self._indptr
        g._indices = self._indices
        g._present = self._present.copy()
        return g

    def _set_arcs(self, counts: np.ndarray, indices: np.ndarray) -> None:
        """Rebind the read-only CSR from per-row arc counts and row-sorted heads."""
        indptr = np.concatenate(([0], np.cumsum(counts)))
        indptr.flags.writeable = indices.flags.writeable = False
        self._indptr, self._indices = indptr, indices

    # -- queries -----------------------------------------------------------

    @property
    def id_space(self) -> int:
        """Size of the id range, including removed slots."""
        return self._present.size

    @property
    def number_of_nodes(self) -> int:
        return int(self._present.sum())

    @property
    def number_of_edges(self) -> int:
        return self._indices.size // 2

    @property
    def nodes(self) -> list[int]:
        return [int(v) for v in np.flatnonzero(self._present)]

    def has_node(self, v: int) -> bool:
        return 0 <= v < self._present.size and bool(self._present[v])

    def has_edge(self, u: int, v: int) -> bool:
        if not self.has_node(u):
            return False
        i = self._slot(u, v)
        return bool(i < self._indptr[u + 1] and self._indices[i] == v)

    def _slot(self, u: int, v: int) -> int:
        """Position of v in row u, or where it would be inserted."""
        lo, hi = self._indptr[u], self._indptr[u + 1]
        return int(lo + np.searchsorted(self._indices[lo:hi], v))

    def neighbors(self, v: int) -> list[int]:
        self._check_node(v)
        return self._indices[self._indptr[v] : self._indptr[v + 1]].tolist()

    def degree(self, v: int) -> int:
        self._check_node(v)
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """Degree of every present node, in ascending id order."""
        return np.diff(self._indptr)[self._present]

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with u < v, sorted."""
        tails = _csr.arc_tails(self._indptr)
        up = tails < self._indices
        return list(zip(tails[up].tolist(), self._indices[up].tolist()))

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric CSR over the id space (two directed arcs per edge),
        read-only."""
        return self._indptr, self._indices

    def _check_node(self, v: int) -> None:
        if not (0 <= v < self._present.size):
            raise ParameterError(f"node id {v} out of range [0, {self._present.size})")
        if not self._present[v]:
            raise ParameterError(f"node {v} has been removed")

    def __repr__(self) -> str:
        return f"Graph(nodes={self.number_of_nodes}, edges={self.number_of_edges})"


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

    seen: set[tuple[int, int]] = set()
    for u, v, line_no in pairs:
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParseError(f"duplicate edge {u} {v}", line_no)
        seen.add(key)
    return Graph.from_edges(n, [(u, v) for u, v, _ in pairs])


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
    sources = np.flatnonzero(g._present)
    reach = _csr.component_reach(indptr, indices, n, sources)
    for part in _csr.source_blocks(sources.size, n, indices.size):
        _csr.brandes(indptr, indices, sources[part], n, reach[part], accum)
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
