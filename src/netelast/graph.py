"""Undirected simple graph with stable node ids, the structural metrics, and
the text writer, number format and seeded random generator the modules share.

Nodes are integers 0..n-1.  Removing a node leaves its id in place as an
inert slot, so attack sequences and reports can keep referring to original
labels while the live graph shrinks around them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
# the largest id space an edge list may ask for, from a `# nodes N` header or
# its largest id: far past the sizes the engines handle, and small enough
# that Graph(n) allocates it
EDGE_LIST_MAX_NODES = 10**7


def fmt(x: float) -> str:
    """CSV number format: 7 significant digits, `.` separator, literal NaN."""
    if isinstance(x, float) and math.isnan(x):
        return "NaN"
    return f"{x:.7g}"


def seeded_rng(seed: int) -> np.random.Generator:
    """numpy's generator for `seed`, which must be a nonnegative integer."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def write_lines(target, lines) -> None:
    """Write `lines`, each ended by a newline, to a path or an open text file."""
    payload = "\n".join(lines) + "\n"
    if isinstance(target, (str, Path)):
        Path(target).write_text(payload)
    else:
        target.write(payload)


def _is_id(v) -> bool:
    """Whether v has a node id's type: an int or numpy integer, not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _first_bad_pair(n: int, pairs: np.ndarray) -> int | None:
    """Row of the first of the (k, 2) integer-valued `pairs`, in input order,
    with an id outside [0, n), a self-loop, or an edge that an earlier row
    gave in either orientation; None when there is none."""
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    bad = (lo < 0) | (hi >= n) | (lo == hi)
    if bad.any():  # rejected rows become (0, 0), which casts from any dtype and is no edge
        lo, hi = np.where(bad, 0, lo), np.where(bad, 0, hi)
    # one key per edge, below n^2: int64 holds it for n < 3e9, past what Graph(n) can allocate
    key = lo.astype(np.int64) * n + hi.astype(np.int64)
    if (np.diff(np.sort(key)) == 0).any():
        # a stable sort keeps equal keys in input order: each repeat follows its first
        order = np.argsort(key, kind="stable")
        bad[order[1:][np.diff(key[order]) == 0]] = True
    return int(np.argmax(bad)) if bad.any() else None


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
        built in one CSR pass.  Rejects what add_edge rejects: ids that are
        not integers or out of range, self-loops, and an edge given twice in
        either orientation.  The error names the first bad pair in input
        order (_first_bad_pair) with its ids as given.
        """
        g = cls(n)
        listed = edges if isinstance(edges, np.ndarray) else list(edges)
        given = np.asarray(listed)
        # numpy rounds Python ints past the int64 range to float64, or boxes them
        exact = np.array(listed, dtype=object) if given.dtype.kind in "fO" else given
        if exact.dtype.kind == "O" and all(isinstance(x, int) for x in exact.flat):
            given = exact
        elif given.dtype.kind not in "iuf":
            raise ParameterError(f"node ids must be integers, got dtype {given.dtype}")
        elif given.dtype.kind == "f":
            bad = given[~np.isfinite(given) | (given != np.floor(given))]
            if bad.size:
                raise ParameterError(f"node id {bad[0]} is not an integer")
        given = given.reshape(0, 2) if given.size == 0 else given
        if given.ndim != 2 or given.shape[1] != 2:
            raise ParameterError(f"edges must be node id pairs, got shape {given.shape}")
        row = _first_bad_pair(n, given)
        if row is not None:
            u, v = (int(x) for x in given[row])
            outside = [x for x in (u, v) if not 0 <= x < n]
            error = ParameterError(f"node id {outside[0]} out of range [0, {n})" if outside else
                                   f"self-loop {u}-{v} not allowed" if u == v else f"duplicate edge {u}-{v}")
            error.row = row  # load_edge_list names the row's line
            raise error
        e = given.astype(np.int64, copy=False)
        indptr, indices = _csr.build_csr(*np.concatenate((e, e[:, ::-1])).T, n)
        g._set_arcs(np.diff(indptr), indices)
        return g

    def add_edge(self, u: int, v: int) -> None:
        """Add edge u-v.  Rebuilds the arrays, so each call costs O(M): meant
        for small hand-built graphs; bulk construction goes through
        from_edges.
        """
        u, v = self._check_node(u), self._check_node(v)
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
        """Delete v and its incident edges; the id stays allocated but inert."""
        self.remove_nodes([v])

    def remove_nodes(self, vs) -> None:
        """Delete the nodes `vs` and their incident edges in one filter over
        the arcs, which keeps their order; the ids stay allocated but inert.
        Every id must be present and appear once; `vs` is read once, and a
        rejected batch changes nothing.
        """
        gone = np.zeros(self._present.size, dtype=bool)
        for v in vs:
            v = self._check_node(v)
            if gone[v]:
                raise ParameterError(f"node {v} given twice")
            gone[v] = True
        counts = np.diff(self._indptr)
        out = np.repeat(gone, counts)
        # the CSR is symmetric: the heads of the arcs out of removed nodes
        # are the rows that lose an arc into one
        counts -= np.bincount(self._indices[out], minlength=counts.size)
        counts[gone] = 0
        self._present[gone] = False
        self._set_arcs(counts, self._indices[~(out | gone[self._indices])])

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g._indptr = self._indptr
        g._indices = self._indices
        g._present = self._present.copy()
        return g

    def __getstate__(self):
        return self._present, np.diff(self._indptr), self._indices

    def __setstate__(self, state) -> None:
        """Unpickled and deep-copied arrays are writeable: make them read-only."""
        self._present, counts, indices = state
        self._set_arcs(counts, indices)

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
        """False for anything _check_node rejects, non-integer ids included."""
        return _is_id(v) and 0 <= v < self._present.size and bool(self._present[v])

    def has_edge(self, u: int, v: int) -> bool:
        if not (self.has_node(u) and self.has_node(v)):
            return False
        u, v = int(u), int(v)
        i = self._slot(u, v)
        return bool(i < self._indptr[u + 1] and self._indices[i] == v)

    def _slot(self, u: int, v: int) -> int:
        """Position of v in row u, or where it would be inserted."""
        lo, hi = self._indptr[u], self._indptr[u + 1]
        return int(lo + np.searchsorted(self._indices[lo:hi], v))

    def neighbors(self, v: int) -> list[int]:
        v = self._check_node(v)
        return self._indices[self._indptr[v] : self._indptr[v + 1]].tolist()

    def degree(self, v: int) -> int:
        v = self._check_node(v)
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

    def _check_node(self, v: int) -> int:
        """`v` as a Python int, which indexes and adds without wrapping,
        once it is a present node's id; else ParameterError."""
        if not _is_id(v):
            raise ParameterError(f"node id must be an integer, got {v!r}")
        if not (0 <= v < self._present.size):
            raise ParameterError(f"node id {v} out of range [0, {self._present.size})")
        if not self._present[v]:
            raise ParameterError(f"node {v} has been removed")
        return int(v)

    def __repr__(self) -> str:
        return f"Graph(nodes={self.number_of_nodes}, edges={self.number_of_edges})"


# -- edge-list format --------------------------------------------------------


def load_edge_list(source) -> Graph:
    """Parse the plain-text edge-list format.

    One `u v` pair per line, whitespace separated decimal ids.  Lines
    starting with `#` are comments; an optional `# nodes N` line declares
    the node count (needed for trailing isolated nodes).  A header or an id
    that needs more than EDGE_LIST_MAX_NODES nodes is refused before any
    graph is allocated.  Graph.from_edges rejects ids out of range, duplicate
    edges and self-loops, so that data errors surface instead of being
    merged; every error names its line.

    `source` is a path (str or Path) or an open text file, as for
    save_edge_list.
    """
    text = Path(source).read_text() if isinstance(source, (str, Path)) else source.read()

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
                if declared_n > EDGE_LIST_MAX_NODES:
                    raise ParseError(f"{declared_n} nodes declared, past the limit of {EDGE_LIST_MAX_NODES}", line_no)
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"expected two node ids, got {len(tokens)} tokens", line_no)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {tokens!r}", line_no) from None
        if max(u, v) >= EDGE_LIST_MAX_NODES:
            raise ParseError(f"node id {max(u, v)} past the limit of {EDGE_LIST_MAX_NODES} nodes", line_no)
        pairs.append((u, v, line_no))

    n = max([0, *(max(u, v) + 1 for u, v, _ in pairs)]) if declared_n is None else declared_n
    try:
        return Graph.from_edges(n, [(u, v) for u, v, _ in pairs])
    except ParameterError as err:
        raise ParseError(str(err), pairs[err.row][2]) from None


def save_edge_list(g: Graph, target) -> None:
    """Write the edge-list format (with a `# nodes N` header) to a path or file.

    Round-trips (N, edge set) exactly.  Removed slots are not representable:
    they reload as isolated nodes.
    """
    write_lines(target, [f"# nodes {g.id_space}", *(f"{u} {v}" for u, v in g.edges())])


# -- components and metrics ---------------------------------------------------


def connected_components(g: Graph) -> list[list[int]]:
    """Partition of the present nodes, ordered by smallest member id, each
    component's members ascending."""
    labels = _csr.component_labels(*g.csr(), g.id_space)
    present = np.flatnonzero(g._present)
    # a label is its component's smallest member, so label order is the
    # order of the components
    members = present[np.argsort(labels[present], kind="stable")]
    cuts = np.flatnonzero(np.diff(labels[members])) + 1
    return [c.tolist() for c in np.split(members, cuts) if c.size]


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
    for _, traversal in _csr.sweep(indptr, indices, sources, n, reach):
        _csr.brandes(traversal, accum)
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

    def csv_row(self, name: str) -> str:
        floats = (self.density, self.diameter, self.asp, self.heterogeneity)
        return ",".join([name, str(self.nodes), str(self.links), *map(fmt, floats)])


def _require_pairs(g: Graph) -> int:
    """The node count of `g`, which metrics refuses below 2."""
    n = g.number_of_nodes
    if n < 2:
        raise ComputeError(f"metrics undefined for graphs with {n} node(s)")
    return n


def metrics(g: Graph, profile: np.ndarray | None = None) -> MetricsReport:
    """Density, diameter, average shortest path, heterogeneity, and
    the degree histogram of `g`.

    Heterogeneity is the population standard deviation of the degree
    sequence divided by its mean (0 for regular graphs, 0 on an edgeless
    graph by convention).

    Diameter and asp are read from the hop-distance profile
    (_csr.hop_profile) of the largest component's members (by
    _csr.component_labels).  `profile` is a (2, id_space) int array that a
    routing traversal of `g` filled, -1 in the columns it did not reach;
    when it is absent or does not cover that component, metrics sweeps it.
    """
    n = _require_pairs(g)
    m = g.number_of_edges
    density = 2.0 * m / (n * (n - 1))

    degs = g.degrees()
    mean_deg = degs.mean()
    het = float(degs.std() / mean_deg) if mean_deg > 0 else 0.0

    hist: dict[int, int] = {}
    for d in degs:
        hist[int(d)] = hist.get(int(d), 0) + 1

    labels = _csr.component_labels(*g.csr(), g.id_space)[g._present]
    # a label is its component's smallest id: argmax breaks ties by it
    comp = np.flatnonzero(g._present)[labels == np.argmax(np.bincount(labels))]
    k = comp.size
    if k < 2:
        diameter = math.nan
        asp = math.nan
    else:
        if profile is None or (profile[1, comp] < 0).any():
            profile = np.full((2, g.id_space), -1)
            for _, traversal in _csr.sweep(*g.csr(), comp, g.id_space, np.full(k, k)):
                _csr.hop_profile(traversal, profile)
        sums, ecc = profile[:, comp]
        diameter = float(ecc.max())
        # every unordered pair counted twice in the per-source sums
        asp = int(sums.sum()) / (k * (k - 1))

    return MetricsReport(
        nodes=n,
        links=m,
        density=density,
        diameter=diameter,
        asp=asp,
        heterogeneity=het,
        degree_histogram=hist,
    )
