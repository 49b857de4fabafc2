"""Graph container, edge-list format, metrics, betweenness, components."""

import io
import math
from itertools import combinations

import numpy as np
import pytest

import netelast as ne
from netelast import _csr
from netelast.graph import dumps_edge_list

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
        g = ne.load_edge_list("0 1\n1 2")
        assert g.number_of_nodes == 3
        assert g.number_of_edges == 2

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ne.ParseError, match="duplicate"):
            ne.load_edge_list("0 1\n1 0")

    def test_self_loop_rejected(self):
        with pytest.raises(ne.ParseError, match="self-loop"):
            ne.load_edge_list("0 0")

    def test_non_integer_rejected(self):
        with pytest.raises(ne.ParseError, match="non-integer"):
            ne.load_edge_list("0 x")

    def test_error_carries_line_number(self):
        with pytest.raises(ne.ParseError, match="line 3"):
            ne.load_edge_list("0 1\n1 2\n2 2")

    def test_comments_and_blank_lines_ignored(self):
        g = ne.load_edge_list("# a comment\n\n0 1\n# another\n1 2\n")
        assert g.number_of_edges == 2

    def test_nodes_header_declares_isolated(self):
        g = ne.load_edge_list("# nodes 5\n0 1\n")
        assert g.number_of_nodes == 5
        assert g.number_of_edges == 1

    def test_header_too_small_rejected(self):
        with pytest.raises(ne.ParseError):
            ne.load_edge_list("# nodes 2\n0 3\n")

    def test_roundtrip_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 15))
            g = ne.Graph(n)
            for u, v in combinations(range(n), 2):
                if rng.random() < 0.4:
                    g.add_edge(u, v)
            h = ne.load_edge_list(dumps_edge_list(g))
            assert h.number_of_nodes == g.number_of_nodes
            assert h.edges() == g.edges()

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
        rep = ne.metrics(g, with_betweenness=False)
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
            rep = ne.metrics(g, with_betweenness=False)
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
            rep = ne.metrics(g, with_betweenness=False)
            assert ne.connected_components(g) == comps
            assert rep.diameter == diameter or math.isnan(rep.diameter) and math.isnan(diameter)
            assert rep.asp == asp or math.isnan(rep.asp) and math.isnan(asp)

    def test_matches_plain_bfs_past_one_block_of_sources(self):
        g = ne.gen_watts_strogatz(300, 4, 0.1, seed=2)
        for v in range(0, 300, 7):
            g.remove_node(v)
        comps, diameter, asp = structure_oracle(g)
        # distances come from scipy in blocks of source rows; span two
        assert len(max(comps, key=len)) > _csr._DIST_BLOCK
        rep = ne.metrics(g, with_betweenness=False)
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
