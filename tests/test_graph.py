"""Graph container, edge-list format, metrics, betweenness, components."""

import io
import math
import pickle
import re
import warnings
from itertools import combinations

import numpy as np
import pytest
from scipy.sparse import csgraph, csr_matrix

import netelast as ne
from netelast import _csr
from netelast.graph import EDGE_LIST_MAX_NODES, save_edge_list

from conftest import (
    betweenness_oracle,
    cycle_graph,
    graph_from_edges,
    path_graph,
    star_graph,
    structure_oracle,
)


class TestEdgeList:
    def test_path_of_three(self):
        g = ne.load_edge_list(io.StringIO("0 1\n1 2"))
        assert g.number_of_nodes == 3
        assert g.number_of_edges == 2

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ne.ParseError, match="duplicate"):
            ne.load_edge_list(io.StringIO("0 1\n1 0"))

    def test_self_loop_rejected(self):
        with pytest.raises(ne.ParseError, match="self-loop"):
            ne.load_edge_list(io.StringIO("0 0"))

    def test_non_integer_rejected(self):
        with pytest.raises(ne.ParseError, match="non-integer"):
            ne.load_edge_list(io.StringIO("0 x"))

    def test_error_carries_line_number(self):
        with pytest.raises(ne.ParseError, match="line 3"):
            ne.load_edge_list(io.StringIO("0 1\n1 2\n2 2"))

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("# nodes 2\n0 1\n0 3\n", 3, "node id 3 out of range [0, 2)"),
            ("0 1\n1 2\n1 0\n", 3, "duplicate edge 1-0"),
            ("0 1\n-1 2\n", 2, "node id -1 out of range [0, 3)"),
            # several errors: the first bad pair in file order, not the first self-loop
            ("0 1\n1 0\n2 2\n", 2, "duplicate edge 1-0"),
        ],
    )
    def test_structural_error_names_its_line(self, text, line, message):
        with pytest.raises(ne.ParseError, match=re.escape(f"line {line}: {message}")) as info:
            ne.load_edge_list(io.StringIO(text))
        assert info.value.line == line

    def test_comments_and_blank_lines_ignored(self):
        g = ne.load_edge_list(io.StringIO("# a comment\n\n0 1\n# another\n1 2\n"))
        assert g.number_of_edges == 2

    def test_nodes_header_declares_isolated(self):
        g = ne.load_edge_list(io.StringIO("# nodes 5\n0 1\n"))
        assert g.number_of_nodes == 5
        assert g.number_of_edges == 1

    @pytest.mark.parametrize(
        "text, line",
        [
            ("0 1\n0 99999999999999999999\n", 2),
            (f"0 1\n{10**7} 0\n", 2),
            ("0 1\n0 10000000000\n", 2),
            (f"# nodes {10**7 + 1}\n0 1\n", 1),
            ("# nodes 5\n0 1\n1 10000000000\n", 3),
        ],
        ids=["past_int64", "at_bound", "ten_billion", "header", "past_header"],
    )
    def test_id_space_past_the_bound_rejected(self, text, line):
        # refused on its line, before any graph is allocated
        assert EDGE_LIST_MAX_NODES == 10**7
        with pytest.raises(ne.ParseError, match=f"line {line}: .*past the limit of 10000000") as info:
            ne.load_edge_list(io.StringIO(text))
        assert info.value.line == line

    def test_header_too_small_rejected(self):
        with pytest.raises(ne.ParseError):
            ne.load_edge_list(io.StringIO("# nodes 2\n0 3\n"))

    def test_roundtrip_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 15))
            g = ne.Graph(n)
            for u, v in combinations(range(n), 2):
                if rng.random() < 0.4:
                    g.add_edge(u, v)
            buf = io.StringIO()
            save_edge_list(g, buf)
            h = ne.load_edge_list(io.StringIO(buf.getvalue()))
            assert h.number_of_nodes == g.number_of_nodes
            assert h.edges() == g.edges()

    def test_roundtrip_through_str_path(self, tmp_path):
        p = tmp_path / "k3.edges"
        save_edge_list(ne.gen_mesh(3), str(p))
        assert ne.load_edge_list(str(p)).edges() == [(0, 1), (0, 2), (1, 2)]

    def test_load_from_stream(self):
        g = ne.load_edge_list(io.StringIO("0 1\n"))
        assert g.number_of_edges == 1


class TestGraph:
    def test_remove_node_k3(self):
        g = ne.gen_mesh(3)
        g.remove_node(0)
        assert g.number_of_nodes == 2
        assert g.edges() == [(1, 2)]

    def test_remove_star_center(self):
        g = star_graph(5)
        g.remove_node(0)
        assert g.number_of_edges == 0
        assert g.number_of_nodes == 4

    def test_remove_path_middle(self):
        g = path_graph(3)
        g.remove_node(1)
        assert g.number_of_edges == 0
        assert len(ne.connected_components(g)) == 2

    def test_remove_twice_errors(self):
        g = path_graph(3)
        g.remove_node(1)
        with pytest.raises(ne.ParameterError):
            g.remove_node(1)

    def test_remove_nodes_matches_sequential_removal(self, rng):
        for g in (ne.gen_mesh(30), ne.gen_preferential_attachment(60, 2, seed=3)):
            batch = [int(v) for v in rng.choice(g.id_space, size=g.id_space // 3, replace=False)]
            h = g.copy()
            h.remove_nodes(batch)
            for v in batch:
                g.remove_node(v)
            assert h.nodes == g.nodes
            rebuilt = ne.Graph.from_edges(g.id_space, g.edges())
            for arrays in (g.csr(), rebuilt.csr()):
                for a, b in zip(h.csr(), arrays):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_single_node_removal_matches_batch_filter(self):
        # the reference is the batch filter, written out for one id
        for g in (ne.gen_mesh(30), ne.gen_preferential_attachment(60, 2, seed=3)):
            indptr, indices = g.csr()
            for v in g.nodes:
                gone = np.zeros(g.id_space, dtype=bool)
                gone[v] = True
                keep = ~gone[indices]
                keep[indptr[v] : indptr[v + 1]] = False
                counts = np.diff(indptr)
                counts[indices[indptr[v] : indptr[v + 1]]] -= 1
                counts[v] = 0
                want = (np.concatenate(([0], np.cumsum(counts))), indices[keep])
                h = g.copy()
                h.remove_node(v)
                for a, b in zip(h.csr(), want):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                    assert not a.flags.writeable
                assert not h.has_node(v) and h.number_of_nodes == g.number_of_nodes - 1

    def test_pickle_round_trip_stays_read_only(self):
        removed = ne.gen_mesh(4)
        removed.remove_node(2)
        for g in (ne.gen_mesh(4), removed):
            h = pickle.loads(pickle.dumps(g))
            assert h.edges() == g.edges()
            assert h._present.tobytes() == g._present.tobytes()
            for a, b in zip(h.csr(), g.csr()):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert not a.flags.writeable

    @pytest.mark.parametrize("ids", [[2], [1, 4, 5]], ids=["one", "three"])
    def test_remove_nodes_reads_any_iterable_once(self, ids):
        want = ne.gen_preferential_attachment(12, 2, seed=1)
        want.remove_nodes(list(ids))
        for vs in ((v for v in ids), np.array(ids), iter(ids)):
            g = ne.gen_preferential_attachment(12, 2, seed=1)
            g.remove_nodes(vs)
            assert g._present.tobytes() == want._present.tobytes()
            for a, b in zip(g.csr(), want.csr()):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_remove_nodes_rejects_bad_ids_before_removing(self):
        g = path_graph(4)
        g.remove_node(3)
        for vs in ([1, 1], [0, 3], [1, 9]):
            with pytest.raises(ne.ParameterError):
                g.remove_nodes(vs)
            assert g.nodes == [0, 1, 2] and g.number_of_edges == 2

    def test_batches_match_one_node_at_a_time(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 31))
            g = ne.gen_gilbert(n, float(rng.random()), seed=int(rng.integers(1000)))
            one = g.copy()
            order = rng.permutation(n).tolist()
            while order:
                # batches of one to three nodes
                batch = order[: int(rng.integers(1, 4))]
                order = order[len(batch) :]
                g.remove_nodes(batch)
                for v in batch:
                    one.remove_node(v)
                rebuilt = ne.Graph.from_edges(n, one.edges())
                assert g._present.tobytes() == one._present.tobytes()
                for a, b, c in zip(g.csr(), one.csr(), rebuilt.csr()):
                    assert a.dtype == b.dtype == c.dtype and a.tobytes() == b.tobytes() == c.tobytes()

    def test_rejected_batch_changes_nothing(self):
        g = ne.gen_preferential_attachment(12, 2, seed=1)
        g.remove_node(5)
        state = lambda: [g._present.tobytes(), *(a.tobytes() for a in g.csr())]
        before = state()
        for vs, message in (([3, 3], "node 3 given twice"), ([0, 12], "node id 12 out of range"),
                            ([1, 5], "node 5 has been removed")):
            with pytest.raises(ne.ParameterError, match=message):
                g.remove_nodes(vs)
            assert state() == before

    @pytest.mark.parametrize(
        "v",
        [1.5, 1.0, True, np.float64(1.0), np.bool_(True), "1"],
        ids=["float", "whole_float", "bool", "np_float", "np_bool", "str"],
    )
    def test_non_integer_ids_rejected(self, v):
        g = ne.gen_mesh(4)
        for call in (lambda: g.remove_nodes([v]), lambda: g.remove_node(v), lambda: g.degree(v)):
            with pytest.raises(ne.ParameterError, match="node id must be an integer"):
                call()
        assert not g.has_node(v) and not g.has_edge(v, 2) and not g.has_edge(0, v)
        assert g.number_of_nodes == 4 and g.number_of_edges == 6

    def test_numpy_integer_ids_accepted(self):
        g = ne.gen_mesh(4)
        assert g.has_node(np.int64(1)) and g.has_edge(np.int64(0), np.uint8(1))
        g.remove_nodes([np.int64(1), np.int32(2)])
        g.remove_node(np.uint8(3))
        assert g.nodes == [0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.uint16])
    def test_narrow_numpy_ids_do_not_wrap(self, dtype):
        # a ring through the dtype's largest id, where `v + 1` in the dtype
        # would wrap (and numpy warns of the overflow)
        top = int(np.iinfo(dtype).max)
        ring = np.arange(top + 3)
        g = ne.Graph.from_edges(ring.size, np.stack((ring, np.roll(ring, -1)), axis=1))
        v = dtype(top)
        assert g.degree(v) == 2 and g.neighbors(v) == [top - 1, top + 1]
        assert g.has_edge(v, top + 1) and g.has_edge(dtype(top - 1), v) and not g.has_edge(v, dtype(0))
        dist, pred = ne.shortest_path_tree(g, v)
        assert dist[top + 1] == 1 and pred[top - 1] == top
        g.add_edge(v, dtype(0))
        assert g.degree(v) == 3 and g.neighbors(0) == [1, top, top + 2]
        g.remove_nodes([v])
        assert not g.has_node(top) and g.neighbors(top + 1) == [top + 2]
        assert g.number_of_edges == top + 1

    def test_keep_arcs_matches_rebuilt_csr(self, rng):
        removed = ne.gen_preferential_attachment(60, 2, seed=3)
        removed.remove_nodes([0, 7, 59])
        for g in (ne.gen_gilbert(80, 0.08, seed=2), ne.gen_preferential_attachment(60, 2, seed=3), removed):
            indptr, indices = g.csr()
            tails = _csr.arc_tails(indptr)
            masks = [rng.random(indices.size) < p for p in (0.2, 0.5, 0.9)]
            masks += [np.zeros(indices.size, dtype=bool), np.ones(indices.size, dtype=bool)]
            for keep in masks:
                want = _csr.build_csr(tails[keep], indices[keep], g.id_space)
                for a, b in zip(_csr.keep_arcs(indptr, indices, keep), want):
                    assert a.dtype == b.dtype == np.int64 and a.tobytes() == b.tobytes()

    def test_ids_stable_after_removal(self):
        g = path_graph(4)
        g.remove_node(1)
        assert g.nodes == [0, 2, 3]
        assert g.has_edge(2, 3)

    def test_degree_sum_is_twice_edges(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 20))
            g = ne.Graph(n)
            for u, v in combinations(range(n), 2):
                if rng.random() < 0.3:
                    g.add_edge(u, v)
            victims = list(rng.permutation(g.nodes))[: n // 2]
            for v in victims:
                deg = g.degree(int(v))
                m_before = g.number_of_edges
                g.remove_node(int(v))
                assert g.number_of_edges == m_before - deg
            assert sum(g.degree(v) for v in g.nodes) == 2 * g.number_of_edges

    def test_parallel_edge_rejected(self):
        g = ne.Graph(3)
        g.add_edge(0, 1)
        with pytest.raises(ne.ParameterError):
            g.add_edge(1, 0)
        for edges in ([(0, 1), (1, 0)], [(2, 2)], [(0, 5)], [(0, 1, 2)]):
            with pytest.raises(ne.ParameterError):
                ne.Graph.from_edges(3, edges)
        # a fractional id is not truncated to an existing one
        for edges in ([(0, 1.5), (1, 2)], np.array([[0.0, 1.0], [1.0, np.nan]]), [(0, np.inf)]):
            with pytest.raises(ne.ParameterError, match="is not an integer"):
                ne.Graph.from_edges(3, edges)
        assert ne.Graph.from_edges(3, np.array([[0.0, 1.0], [1.0, 2.0]])).edges() == [(0, 1), (1, 2)]

    def test_from_edges_reads_ids_as_given(self):
        # a string id is not parsed into an integer
        with pytest.raises(ne.ParameterError, match="node ids must be integers, got dtype <U1"):
            ne.Graph.from_edges(3, [("0", "1"), ("1", "2")])
        # an id past the int64 range is reported as given, not wrapped by a cast
        message = re.escape("node id 9223372036854775808 out of range [0, 3)")
        for edges in ([(0, 2**63)], np.array([[0, 2**63]], dtype=np.uint64)):
            with warnings.catch_warnings(), pytest.raises(ne.ParameterError, match=message):
                warnings.simplefilter("error")
                ne.Graph.from_edges(3, edges)
        # numpy reads these lists as float64 (rounded) and as objects
        for big in (2**63 + 1, 2**64):
            message = re.escape(f"node id {big} out of range [0, 3)")
            with warnings.catch_warnings(), pytest.raises(ne.ParameterError, match=message):
                warnings.simplefilter("error")
                ne.Graph.from_edges(3, [(0, 1), (0, big)])

    def test_from_edges_names_the_first_bad_pair(self, rng):
        # the reference adds the pairs one at a time and stops at the first
        # that add_edge rejects
        for _ in range(300):
            n = int(rng.integers(1, 6))
            pairs = rng.integers(-1, n + 1, size=(int(rng.integers(0, 8)), 2)).tolist()
            want, row = ne.Graph(n), None
            for i, (u, v) in enumerate(pairs):
                try:
                    want.add_edge(u, v)
                except ne.ParameterError as err:
                    row, reason = i, str(err)
                    break
            if row is None:
                for a, b in zip(ne.Graph.from_edges(n, pairs).csr(), want.csr()):
                    assert a.tobytes() == b.tobytes()
                continue
            with pytest.raises(ne.ParameterError) as info:
                ne.Graph.from_edges(n, pairs)
            assert info.value.row == row
            if "already present" not in reason:
                assert str(info.value) == reason

    def test_copy_is_independent(self):
        g = path_graph(3)
        h = g.copy()
        h.remove_node(1)
        assert g.number_of_edges == 2
        assert h.number_of_edges == 0
        h = g.copy()
        g.add_edge(0, 2)
        g.remove_node(1)
        assert h.edges() == [(0, 1), (1, 2)]
        with pytest.raises(ValueError):
            g.csr()[1][0] = 1


def _gilbert_with_removed_ids(n, p, seed):
    g = ne.gen_gilbert(n, p, seed=seed)
    for v in np.random.default_rng(seed).choice(n, size=n // 4, replace=False):
        g.remove_node(int(v))
    return g


def _shuffled_forest(n, cycles):
    """Paths (or cycles) over a random permutation of n ids, cut at random."""
    rng = np.random.default_rng(n)
    edges = []
    for part in np.split(rng.permutation(n), np.sort(rng.choice(np.arange(3, n - 3), 5, replace=False))):
        edges += zip(part[:-1].tolist(), part[1:].tolist())
        if cycles and part.size > 2:
            edges.append((int(part[-1]), int(part[0])))
    return ne.Graph.from_edges(n, edges)


# graphs whose component labels are checked against scipy's traversal
COMPONENT_CASES = {
    **{f"gilbert_removed_{n}_{p}_{seed}": (lambda n=n, p=p, seed=seed: _gilbert_with_removed_ids(n, p, seed))
       for n, p, seed in [(60, 0.02, 1), (60, 0.05, 2), (200, 0.01, 3), (200, 0.03, 4), (500, 0.004, 5)]},
    "edgeless": lambda: ne.Graph(6),
    "single_node": lambda: ne.Graph(1),
    "isolated_nodes": lambda: graph_from_edges(9, [(1, 5), (5, 7), (3, 8)]),
    "mesh_40": lambda: ne.gen_mesh(40),
    "path_forest_10k": lambda: _shuffled_forest(10_000, cycles=False),
    "cycle_forest_10k": lambda: _shuffled_forest(10_000, cycles=True),
}


class TestComponents:
    def test_single_component(self):
        assert ne.connected_components(path_graph(3)) == [[0, 1, 2]]

    def test_singletons(self):
        assert ne.connected_components(ne.Graph(4)) == [[0], [1], [2], [3]]

    def test_two_triangles(self):
        g = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert ne.connected_components(g) == [[0, 1, 2], [3, 4, 5]]

    def test_ordering_by_smallest_member(self):
        g = graph_from_edges(5, [(1, 3), (0, 4)])
        comps = ne.connected_components(g)
        assert comps == [[0, 4], [1, 3], [2]]

    @pytest.mark.parametrize("case", sorted(COMPONENT_CASES))
    def test_labels_match_scipy(self, case):
        g = COMPONENT_CASES[case]()
        indptr, indices = g.csr()
        n = g.id_space
        _, scipy_labels = csgraph.connected_components(
            csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n)), directed=False
        )
        smallest = np.full(n, n)
        np.minimum.at(smallest, scipy_labels, np.arange(n))
        assert np.array_equal(_csr.component_labels(indptr, indices, n), smallest[scipy_labels])
        present = np.flatnonzero(g._present)
        comps = [present[scipy_labels[present] == c].tolist() for c in np.unique(scipy_labels[present])]
        assert ne.connected_components(g) == sorted(comps)


class TestMetrics:
    def test_complete_graph_density(self):
        assert ne.metrics(ne.gen_mesh(40)).density == 1.0

    def test_dense_random_size_density(self, rng):
        # 1000 nodes / 4505 links, whatever the wiring
        g = ne.Graph(1000)
        iu, iv = np.triu_indices(1000, k=1)
        pick = rng.choice(iu.size, size=4505, replace=False)
        for idx in pick:
            g.add_edge(int(iu[idx]), int(iv[idx]))
        rep = ne.metrics(g)
        assert rep.density == pytest.approx(0.00902, abs=5e-6)

    def test_regular_ring_heterogeneity_zero(self):
        g = ne.gen_watts_strogatz(10, 4, 0.0, seed=1)
        assert ne.metrics(g).heterogeneity == 0.0

    def test_path3_diameter_and_asp(self):
        rep = ne.metrics(path_graph(3))
        # hand enumeration of the 3 pairs: 1 + 1 + 2 hops
        assert rep.diameter == 2
        assert rep.asp == pytest.approx(4 / 3)

    def test_asp_at_most_diameter(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 25))
            g = ne.Graph(n)
            for u, v in combinations(range(n), 2):
                if rng.random() < 0.25:
                    g.add_edge(u, v)
            rep = ne.metrics(g)
            if not math.isnan(rep.diameter):
                assert rep.asp <= rep.diameter + 1e-12
                assert rep.asp >= 1.0
                assert rep.diameter >= 1.0
            # the same draw with a third of its ids removed, next to the
            # isolated nodes the sparse draw leaves
            for v in rng.choice(n, size=n // 3, replace=False):
                g.remove_node(int(v))
            if g.number_of_nodes < 2:
                continue
            comps, diameter, asp = structure_oracle(g)
            rep = ne.metrics(g)
            assert ne.connected_components(g) == comps
            assert rep.diameter == diameter or math.isnan(rep.diameter) and math.isnan(diameter)
            assert rep.asp == asp or math.isnan(rep.asp) and math.isnan(asp)

    def test_matches_plain_bfs_past_one_block_of_sources(self):
        g = ne.gen_watts_strogatz(300, 4, 0.1, seed=2)
        for v in range(0, 300, 7):
            g.remove_node(v)
        comps, diameter, asp = structure_oracle(g)
        # the component's sources are traversed in batched bfs blocks; span two
        assert len(_csr.source_blocks(len(max(comps, key=len)), g.id_space, g.csr()[1].size)) >= 2
        rep = ne.metrics(g)
        assert ne.connected_components(g) == comps
        assert (rep.diameter, rep.asp) == (diameter, asp)

    def test_largest_component_only(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
        rep = ne.metrics(g)
        assert rep.diameter == 2
        assert rep.asp == pytest.approx(4 / 3)

    def test_degree_histogram(self):
        rep = ne.metrics(star_graph(5))
        assert rep.degree_histogram == {4: 1, 1: 4}

    def test_too_small_errors(self):
        with pytest.raises(ne.ComputeError):
            ne.metrics(ne.Graph(1))

    def test_edgeless_graph(self):
        rep = ne.metrics(ne.Graph(3))
        assert rep.density == 0.0
        assert rep.heterogeneity == 0.0
        assert math.isnan(rep.diameter)


class TestBetweenness:
    def test_path_of_three(self):
        b = ne.betweenness(path_graph(3))
        assert b[1] == pytest.approx(1.0)
        assert b[0] == b[2] == 0.0

    def test_star_center(self):
        # 3 leaf pairs, each with the single path through the hub
        b = ne.betweenness(star_graph(4))
        assert b[0] == pytest.approx(3.0)
        assert np.all(b[1:] == 0.0)

    def test_complete_graph_zero(self):
        assert np.allclose(ne.betweenness(ne.gen_mesh(6)), 0.0)

    def test_even_split_on_four_cycle(self):
        # the two antipodal pairs split their two paths evenly
        b = ne.betweenness(cycle_graph(4))
        assert np.allclose(b, 0.5)

    def test_batched_sources_match_one_source_at_a_time(self, monkeypatch):
        # components of many sizes, sources spanning several bfs blocks
        g = ne.gen_gilbert(300, 0.008, seed=4)
        for v in range(0, 300, 7):
            g.remove_node(v)
        assert g.number_of_nodes > _csr._BLOCK_NODES // g.id_space
        batched = ne.betweenness(g)
        monkeypatch.setattr(_csr, "_BLOCK_NODES", 1)
        assert ne.betweenness(g).tobytes() == batched.tobytes()

    def test_matches_oracle_small_random(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 9))
            g = ne.Graph(n)
            for u, v in combinations(range(n), 2):
                if rng.random() < 0.45:
                    g.add_edge(u, v)
            got = ne.betweenness(g)
            want = betweenness_oracle(g)
            for v in g.nodes:
                assert got[v] == pytest.approx(want[v], abs=1e-9)

    def test_respects_removed_nodes(self):
        g = path_graph(5)
        g.remove_node(4)
        b = ne.betweenness(g)
        # remaining path 0-1-2-3: betweenness 0, 2, 2, 0
        assert b[1] == pytest.approx(2.0)
        assert b[2] == pytest.approx(2.0)
        assert b[4] == 0.0
