"""Routing engines: shortest-path trees, the three throughput models, and
their relationships."""

import numpy as np
import pytest

import netelast as ne
from netelast import _csr
from netelast.throughput import (
    CapacityState,
    ThroughputModel,
    _residual_reachability,
    _route_all,
    _solve_concurrent_lp,
)

from conftest import (
    cycle_graph,
    graph_from_edges,
    homogeneous_oracle,
    path_graph,
    random_connected_graph,
    star_graph,
)

HOM = ThroughputModel()
HET = ThroughputModel(kind="dijkstra_heterogeneous")
LP = ThroughputModel(kind="lp_optimization")


class TestShortestPathTree:
    def test_four_cycle_smallest_id_tie(self):
        dist, pred = ne.shortest_path_tree(cycle_graph(4), 0)
        # node 2 is reachable via 1 or 3; sequential tie-break picks 1
        assert pred[2] == 1
        assert dist[2] == 2

    def test_path_distances(self):
        dist, _ = ne.shortest_path_tree(path_graph(3), 0)
        assert list(dist) == [0, 1, 2]

    def test_unreachable_is_inf(self):
        g = ne.Graph(2)
        dist, pred = ne.shortest_path_tree(g, 0)
        assert dist[1] == np.inf
        assert pred[1] == -1

    def test_random_tie_break_deterministic_per_seed(self):
        g = cycle_graph(6)
        a = ne.shortest_path_tree(g, 0, tie_break="random", seed=4)[1]
        b = ne.shortest_path_tree(g, 0, tie_break="random", seed=4)[1]
        assert np.array_equal(a, b)

    def test_random_tie_break_covers_both_parents(self):
        g = cycle_graph(4)
        preds = {ne.shortest_path_tree(g, 0, "random", seed=s)[1][2] for s in range(30)}
        assert preds == {1, 3}

    def test_random_requires_seed(self):
        with pytest.raises(ne.ParameterError):
            ne.shortest_path_tree(cycle_graph(4), 0, tie_break="random")


class TestHomogeneous:
    def test_complete_graph_formula(self):
        for n in (3, 6, 11):
            r = ne.throughput_dijkstra_homogeneous(ne.gen_mesh(n))
            assert r.raw_throughput == n * (n - 1)

    def test_mesh_degradation_matches_closed_form(self):
        n = 12
        g = ne.gen_mesh(n)
        for k in range(1, n - 1):
            g.remove_node(k - 1)
            raw = ne.throughput_dijkstra_homogeneous(g).raw_throughput
            assert raw / (n * (n - 1)) == (n - k) * (n - k - 1) / (n * (n - 1))

    def test_path_of_three(self):
        # arc A->B carries flows A->B and A->C: utilization 2, rate 1/2
        r = ne.throughput_dijkstra_homogeneous(path_graph(3))
        assert r.raw_throughput == pytest.approx(3.0)
        assert r.per_pair_delivered[(0, 2)] == pytest.approx(0.5)

    def test_isolated_nodes_deliver_zero(self):
        assert ne.throughput_dijkstra_homogeneous(ne.Graph(2)).raw_throughput == 0.0

    def test_per_pair_sums_to_raw(self):
        r = ne.throughput_dijkstra_homogeneous(star_graph(6))
        assert sum(r.per_pair_delivered.values()) == pytest.approx(r.raw_throughput)

    def test_matches_dict_oracle_on_random_graphs(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 12))
            g = ne.Graph(n)
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.4:
                        g.add_edge(u, v)
            got = ne.throughput_dijkstra_homogeneous(g).raw_throughput
            assert got == pytest.approx(homogeneous_oracle(g), abs=1e-9)

    def test_batched_sources_match_one_source_at_a_time(self, monkeypatch):
        # sparse enough for components of many sizes, large enough that the
        # present sources span several bfs blocks
        g = ne.gen_gilbert(300, 0.008, seed=4)
        for v in range(0, 300, 7):
            g.remove_node(v)
        indptr, indices = g.csr()
        sources = np.flatnonzero(g._present)
        assert sources.size > _csr._BLOCK_NODES // g.id_space
        reach = _csr.component_reach(indptr, indices, g.id_space, sources)

        def runs():
            # sequential and seeded random tie-break, with and without the
            # early stop at each source's component size
            out = []
            for seed in (None, 5):
                for r in (reach, None):
                    rng = None if seed is None else np.random.default_rng(seed)
                    loads, reached = _route_all(indptr, indices, sources, g.id_space, rng, r)
                    out.append((loads.tobytes(), reached.tobytes()))
            return out

        batched = runs()
        assert batched[0] == batched[1] and batched[2] == batched[3]
        monkeypatch.setattr(_csr, "_BLOCK_NODES", 1)
        assert runs() == batched
        assert ne.throughput_dijkstra_homogeneous(g).raw_throughput == pytest.approx(
            homogeneous_oracle(g), abs=1e-9
        )

    def test_monotone_under_removal_on_mesh(self):
        g = ne.gen_mesh(9)
        prev = ne.throughput_dijkstra_homogeneous(g).raw_throughput
        for v in range(8):
            g.remove_node(v)
            cur = ne.throughput_dijkstra_homogeneous(g).raw_throughput
            assert cur <= prev + 1e-9
            prev = cur

    def test_symmetry_on_vertex_transitive(self):
        for g in (ne.gen_mesh(6), cycle_graph(5), cycle_graph(6)):
            r = ne.throughput_dijkstra_homogeneous(g)
            vals = list(r.per_pair_delivered.values())
            assert max(vals) - min(vals) < 1e-12


class TestHeterogeneous:
    def test_k3_all_pairs_one(self):
        r = ne.throughput_dijkstra_heterogeneous(ne.gen_mesh(3))
        assert r.raw_throughput == pytest.approx(6.0)
        assert all(v == pytest.approx(1.0) for v in r.per_pair_delivered.values())

    def test_single_edge(self):
        r = ne.throughput_dijkstra_heterogeneous(path_graph(2))
        assert r.per_pair_delivered == {(0, 1): pytest.approx(1.0), (1, 0): pytest.approx(1.0)}

    def test_path_of_three_saturates_in_one_round(self):
        # all four arcs carry two flows each: the 1/2 fill exhausts them
        r = ne.throughput_dijkstra_heterogeneous(path_graph(3))
        assert r.raw_throughput == pytest.approx(3.0)
        assert all(v == pytest.approx(0.5) for v in r.per_pair_delivered.values())

    def test_unequal_totals_on_path_of_four(self):
        # middle arcs carry four flows, end arcs three: after the 1/4 fill
        # kills the middle, adjacent end pairs top up on the leftover
        r = ne.throughput_dijkstra_heterogeneous(path_graph(4))
        assert r.per_pair_delivered[(0, 1)] == pytest.approx(0.5)
        assert r.per_pair_delivered[(0, 3)] == pytest.approx(0.25)

    def test_first_round_reproduces_homogeneous(self, rng):
        # the filler's first round is exactly the homogeneous allocation,
        # so its total can never fall below it
        for _ in range(40):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            het = ne.throughput_dijkstra_heterogeneous(g).raw_throughput
            hom = ne.throughput_dijkstra_homogeneous(g).raw_throughput
            assert het >= hom - 1e-9

    def test_capacity_never_exceeded(self):
        from netelast.throughput import _run_heterogeneous

        for g in (path_graph(4), star_graph(5), cycle_graph(6)):
            _, state = _run_heterogeneous(g, HET)
            assert np.all(state.capacity >= -1e-9)
            assert np.all(state.utilization <= 1.0 + 1e-9)


class TestConcurrentFlowLP:
    def test_single_edge(self):
        r = ne.throughput_lp(path_graph(2))
        assert r.raw_throughput == pytest.approx(2.0, abs=1e-7)

    def test_path_first_round_rate_is_half(self):
        g = path_graph(3)
        state = CapacityState.from_graph(g)
        alive_idx, reach = _residual_reachability(state, np.array(g.nodes), g.id_space)
        rate, _, _ = _solve_concurrent_lp(state, alive_idx, reach)
        assert rate == pytest.approx(0.5, abs=1e-9)

    def test_k3_rate_one(self):
        g = ne.gen_mesh(3)
        state = CapacityState.from_graph(g)
        alive_idx, reach = _residual_reachability(state, np.array(g.nodes), g.id_space)
        rate, _, _ = _solve_concurrent_lp(state, alive_idx, reach)
        assert rate == pytest.approx(1.0, abs=1e-9)

    def test_k3_total(self):
        assert ne.throughput_lp(ne.gen_mesh(3)).raw_throughput == pytest.approx(6.0, abs=1e-7)

    def test_conservation_at_solution(self, rng):
        # net inflow at every reachable destination equals the rate
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            state = CapacityState.from_graph(g)
            alive_idx, reach = _residual_reachability(state, np.array(g.nodes), g.id_space)
            rate, util, flows = _solve_concurrent_lp(state, alive_idx, reach)
            tails = state.tails[alive_idx]
            heads = state.heads[alive_idx]
            for s, (sub, f) in flows.items():
                st, sh = tails[sub], heads[sub]
                for j in reach[s]:
                    net = f[sh == j].sum() - f[st == j].sum()
                    assert net == pytest.approx(rate, abs=1e-7)
            assert np.all(util <= state.capacity[alive_idx] + 1e-9)

    def test_oversized_graph_refused(self):
        with pytest.raises(ne.GraphSizeError):
            ne.throughput_lp(ne.gen_gilbert(40, 0.3, seed=1))

    def test_symmetry_on_vertex_transitive(self):
        for g in (ne.gen_mesh(5), cycle_graph(5), cycle_graph(6)):
            r = ne.throughput_lp(g)
            vals = list(r.per_pair_delivered.values())
            assert max(vals) - min(vals) < 1e-6

    def test_per_pair_sums_to_raw(self):
        r = ne.throughput_lp(cycle_graph(5))
        assert sum(r.per_pair_delivered.values()) == pytest.approx(r.raw_throughput)


class TestCompareModels:
    def test_path(self):
        c = ne.compare_models(path_graph(3))
        assert c.lp >= c.heterogeneous - 1e-9 >= c.homogeneous - 2e-9

    def test_k3_all_equal(self):
        c = ne.compare_models(ne.gen_mesh(3))
        assert c.lp == pytest.approx(6.0, abs=1e-7)
        assert c.heterogeneous == pytest.approx(6.0)
        assert c.homogeneous == pytest.approx(6.0)

    def test_star_lp_at_least_homogeneous(self):
        c = ne.compare_models(star_graph(4))
        assert c.lp >= c.homogeneous - 1e-9

    def test_filler_can_exceed_optimization_on_sparse_graphs(self):
        # Frozen counterexample: the uniform max-min optimization pays the
        # average hop cost for every delivered unit, while the residual
        # filler redirects leftovers to near pairs.  On this tree-plus-one-
        # edge graph the optimization loop totals exactly 7 (rate 1/6 for 42
        # ordered pairs consumes all 14 arc units) and the filler reaches
        # 7.1.  The dominance claimed for the optimization engine holds on
        # well-connected graphs, not universally.
        g = graph_from_edges(7, [(0, 1), (0, 2), (0, 3), (2, 5), (3, 4), (3, 5), (5, 6)])
        c = ne.compare_models(g)
        assert c.lp == pytest.approx(7.0, abs=1e-6)
        assert c.heterogeneous == pytest.approx(7.1, abs=1e-9)
        assert c.homogeneous == pytest.approx(5.25, abs=1e-9)


class TestModelValidation:
    def test_unknown_kind(self):
        with pytest.raises(ne.ParameterError):
            ThroughputModel(kind="magic")

    def test_random_tie_needs_seed(self):
        with pytest.raises(ne.ParameterError):
            ThroughputModel(tie_break="random")

    def test_random_tie_break_mean_close_to_sequential(self):
        # the modified tie-break changes throughput only marginally
        g = ne.gen_near_regular(3, 3, True)
        seq = ne.throughput_dijkstra_homogeneous(g).raw_throughput
        vals = [
            ne.throughput_dijkstra_homogeneous(
                g, ThroughputModel(tie_break="random", seed=s)
            ).raw_throughput
            for s in range(50)
        ]
        assert np.mean(vals) == pytest.approx(seq, rel=0.25)
