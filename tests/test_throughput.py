"""Routing engines: shortest-path trees, the three throughput models, and
their relationships."""

import functools
import hashlib
import operator

import numpy as np
import pytest

import netelast as ne
from netelast import _csr, robustness, throughput
from netelast.throughput import ThroughputModel, _route_all, _solve_concurrent_lp

from conftest import (
    bfs_distances,
    cycle_graph,
    graph_from_edges,
    heterogeneous_oracle,
    homogeneous_oracle,
    path_graph,
    random_connected_graph,
    raises_exactly,
    star_graph,
)

HOM = ThroughputModel()
HET = ThroughputModel(kind="dijkstra_heterogeneous")
LP = ThroughputModel(kind="lp_optimization")


def lp_round(g):
    """The LP's first round on g: unit capacity on every arc of g.csr().

    Returns (rate, util, flows, tails, heads, dests), with dests mapping
    each source to the nodes it reaches.
    """
    indptr, indices = g.csr()
    sources = np.array(g.nodes)
    _, reached = _route_all(indptr, indices, sources, _csr.component_labels(indptr, indices), None)
    rate, util, flows = _solve_concurrent_lp(
        indptr, indices, np.ones(indices.size), sources, reached
    )
    dests = {int(s): np.flatnonzero(row) for s, row in zip(sources, reached) if row.any()}
    return rate, util, flows, _csr.arc_tails(indptr), indices, dests


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

    def test_matches_bfs_oracle_with_removed_ids(self, rng):
        for case in range(30):
            n = int(rng.integers(2, 14))
            g = ne.gen_gilbert(n, float(rng.uniform(0.1, 0.6)), seed=case)
            g.remove_nodes(rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False).tolist())
            adj = {v: g.neighbors(v) for v in g.nodes}
            for source in g.nodes:
                want = bfs_distances(adj, source)
                for tie_break, seed in (("sequential", None), ("random", case)):
                    dist, pred = ne.shortest_path_tree(g, source, tie_break, seed)
                    assert dist.tolist() == [want.get(v, np.inf) for v in range(n)]
                    for v in range(n):
                        if v == source or v not in want:
                            assert pred[v] == -1
                            continue
                        parents = [u for u in adj[v] if want.get(u) == want[v] - 1]
                        assert pred[v] == min(parents) if seed is None else pred[v] in parents


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
        exact = _csr.component_labels(indptr, indices)
        whole = np.zeros(g.id_space, dtype=np.int64)

        def runs():
            # sequential and seeded random tie-break, with and without the
            # early stop at each source's component size (exact labels, and
            # one component that no source fills)
            out = []
            for seed in (None, 5):
                for labels in (exact, whole):
                    rng = None if seed is None else np.random.default_rng(seed)
                    loads, reached = _route_all(indptr, indices, sources, labels, rng)
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

    @pytest.mark.parametrize(
        "model, digest",
        [
            (ThroughputModel(), "9c517a3ac6c9f35d5d93f1520b49646af120b3bf295aeb129a91c403deb9a958"),
            (
                ThroughputModel(tie_break="random", seed=3),
                "8a69ab441b8799547602f4893367c5700512926b2372d0e888d8c4e235475dd6",
            ),
        ],
        ids=["sequential", "random"],
    )
    def test_per_pair_digest(self, model, digest):
        # frozen from a reference run: the map's key order and its values,
        # np.float64 like raw_throughput
        r = ne.throughput_dijkstra_homogeneous(pa25_without_0_5_11(), model)
        got = repr((r.raw_throughput, list(r.per_pair_delivered.items())))
        assert hashlib.sha256(got.encode()).hexdigest() == digest


def _bfs_bytes(indptr, indices, sources, labels):
    """Every block's bfs result (_csr.sweep) as bytes: dist, frontiers and
    level edges."""
    return [
        (t.dist.tobytes(), [f.tobytes() for f in t.frontiers], [[a.tobytes() for a in e] for e in t.level_edges])
        for _, t in _csr.sweep(indptr, indices, sources, labels)
    ]


class TestComponentBound:
    """bfs stops a source once it has found its component: given the labels
    of a symmetric CSR that holds every traversed arc, it returns what a bfs
    bounded by nothing returns."""

    @pytest.mark.parametrize("make", [
        lambda: ne.gen_gilbert(80, 0.03, seed=2),
        lambda: ne.gen_watts_strogatz(40, 4, 0.2, seed=3),
        lambda: ne.gen_mesh(10),
    ])
    def test_labels_bound_the_residual_bfs_without_changing_it(self, make, rng, monkeypatch):
        g = make()
        g.remove_nodes(range(0, g.id_space, 6))
        indptr, indices = g.csr()
        sources = np.flatnonzero(g._present)
        exact = _csr.component_labels(indptr, indices)
        whole = np.zeros(g.id_space, dtype=np.int64)
        for p in (1.0, 0.8, 0.5, 0.2):
            arcs = _csr.keep_arcs(indptr, indices, rng.random(indices.size) < p)
            for block_nodes in (_csr._BLOCK_NODES, 1):
                monkeypatch.setattr(_csr, "_BLOCK_NODES", block_nodes)
                assert _bfs_bytes(*arcs, sources, exact) == _bfs_bytes(*arcs, sources, whole)

    def test_first_heterogeneous_round_on_k8_gathers_each_arc_once(self, monkeypatch):
        # every source has found its 7 neighbours after one level, so the
        # round gathers the 8 x 7 arcs of the sources alone, not the 8 x 7 x 7
        # more of the level of their neighbours
        gathered, first_round = [], []
        real = _csr.gather_rows

        def gather_rows(*args):
            out = real(*args)
            gathered.append(out[2].size)
            return out

        monkeypatch.setattr(_csr, "gather_rows", gather_rows)
        ne.throughput_dijkstra_heterogeneous(ne.gen_mesh(8), visit=lambda t: first_round.append(sum(gathered)))
        assert first_round == [56]


class TestLevelPositions:
    """Traversal.level_edges name each arc from level d to d+1 by its tail's
    position in frontiers[d], its head's in frontiers[d+1] and its position
    in `indices`, as brute force finds those arcs."""

    @pytest.mark.parametrize("block_nodes", [_csr._BLOCK_NODES, 1])
    def test_level_arcs_match_brute_force(self, block_nodes, rng, monkeypatch):
        monkeypatch.setattr(_csr, "_BLOCK_NODES", block_nodes)
        for case in range(15):
            n = int(rng.integers(2, 16))
            g = ne.gen_gilbert(n, float(rng.uniform(0.1, 0.5)), seed=case)
            g.remove_nodes(rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False).tolist())
            labels = _csr.component_labels(*g.csr())
            for p in (1.0, 0.6):
                indptr, indices = _csr.keep_arcs(*g.csr(), rng.random(g.csr()[1].size) < p)
                out = {v: indices[indptr[v]:indptr[v + 1]].tolist() for v in g.nodes}
                for _, t in _csr.sweep(indptr, indices, np.flatnonzero(g._present), labels):
                    node = np.empty(t.dist.size, dtype=np.int64)
                    t.rows(node)[:] = np.arange(n)
                    want = [bfs_distances(out, int(s)) for s in t.sources]
                    assert t.rows(t.dist).tolist() == [[w.get(v, -1) for v in range(n)] for w in want]
                    wins = _csr.pick_predecessors(t, None)
                    for d, (tails, heads, arcs) in enumerate(t.level_edges):
                        tail, head = t.frontiers[d][tails], t.frontiers[d + 1][heads]
                        assert np.array_equal(indices[arcs], node[head])
                        assert ((indptr[node[tail]] <= arcs) & (arcs < indptr[node[tail] + 1])).all()
                        assert (t.dist[tail] == d).all() and (t.dist[head] == d + 1).all()
                        brute = [
                            (i, u, v) for i, w in enumerate(want) for u in sorted(w) if w[u] == d
                            for v in out[u] if w.get(v) == d + 1
                        ]
                        assert list(zip(t.source_of(tail).tolist(), node[tail].tolist(), node[head].tolist())) == brute
                        # the sequential winner of each next-level node is its smallest-id parent
                        assert np.array_equal(heads[wins[d]], np.arange(t.frontiers[d + 1].size))
                        parents = [
                            min(u for u in out if want[i].get(u) == d and v in out[u])
                            for i, v in zip(t.source_of(t.frontiers[d + 1]), node[t.frontiers[d + 1]])
                        ]
                        assert node[tail[wins[d]]].tolist() == parents


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

    def test_matches_dict_oracle_on_criterion_6a_graphs(self):
        # the 200 connected graphs (n <= 10) of criterion 6a, in its order
        rng = np.random.default_rng(6060)
        for _ in range(200):
            g = random_connected_graph(rng, int(rng.integers(2, 11)))
            raw = ne.throughput_dijkstra_heterogeneous(g).raw_throughput
            assert raw == pytest.approx(heterogeneous_oracle(g), rel=1e-12, abs=1e-12)

    def test_no_round_exceeds_residual_capacity(self, monkeypatch, rng):
        # every round of both residual engines fits in the capacity left
        real = throughput._fill_residual
        rounds = []

        def spy(g, fill, *args):
            def checked(indptr, indices, residual, *routed):
                rate, util = fill(indptr, indices, residual, *routed)
                if rate > 0:
                    rounds.append(rate)
                    assert np.all(util <= residual + 1e-9)
                return rate, util

            return real(g, checked, *args)

        monkeypatch.setattr(throughput, "_fill_residual", spy)
        graphs = [path_graph(4), star_graph(5), cycle_graph(6)]
        graphs += [random_connected_graph(rng, int(rng.integers(3, 10))) for _ in range(10)]
        for g in graphs:
            for engine in (ne.throughput_dijkstra_heterogeneous, ne.throughput_lp):
                count = len(rounds)
                engine(g)
                assert len(rounds) > count


class TestConcurrentFlowLP:
    def test_single_edge(self):
        r = ne.throughput_lp(path_graph(2))
        assert r.raw_throughput == pytest.approx(2.0, abs=1e-7)

    def test_path_first_round_rate_is_half(self):
        rate = lp_round(path_graph(3))[0]
        assert rate == pytest.approx(0.5, abs=1e-9)

    def test_k3_rate_one(self):
        rate = lp_round(ne.gen_mesh(3))[0]
        assert rate == pytest.approx(1.0, abs=1e-9)

    def test_k3_total(self):
        assert ne.throughput_lp(ne.gen_mesh(3)).raw_throughput == pytest.approx(6.0, abs=1e-7)

    def test_conservation_at_solution(self, rng):
        # net inflow at every reachable destination equals the rate
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            rate, util, flows, tails, heads, dests = lp_round(g)
            for s, reached in dests.items():
                sub, f = flows[s]
                st, sh = tails[sub], heads[sub]
                for j in reached:
                    net = f[sh == j].sum() - f[st == j].sum()
                    assert net == pytest.approx(rate, abs=1e-7)
            assert np.all(util <= 1.0 + 1e-9)

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


def binding_graphs():
    rng = np.random.default_rng(1515)
    graphs = [random_connected_graph(rng, int(rng.integers(2, 11))) for _ in range(20)]
    return graphs + [ne.gen_watts_strogatz(30, 4, 0.3, seed=1)]


class TestHighsBinding:
    """throughput.linprog drives scipy's private HiGHS binding; it must solve
    the LP's models exactly as the public scipy.optimize.linprog does, so a
    scipy release that changes the binding fails here instead of quietly
    moving outputs."""

    @staticmethod
    def first_round_solves(g, monkeypatch):
        """(model arrays, result) of each solve in g's first residual round,
        the arrays copied before the next phase changes the model."""
        real = throughput.linprog
        solves = []

        def record(lp):
            a = lp.a_matrix_
            model = [np.array(v) for v in (
                lp.col_cost_, lp.col_lower_, lp.col_upper_, lp.row_lower_, lp.row_upper_, a.value_, a.index_, a.start_
            )]
            res = real(lp)
            solves.append((model, res))
            return res

        monkeypatch.setattr(throughput, "linprog", record)
        ne.throughput_lp(g)
        return solves[:2]

    @pytest.mark.parametrize("g", binding_graphs(), ids=[f"random{i}" for i in range(20)] + ["ws30"])
    def test_same_solves_as_public_linprog(self, g, monkeypatch):
        from scipy import sparse
        from scipy.optimize import linprog as public_linprog

        solves = self.first_round_solves(g, monkeypatch)
        # phase 1 finds a positive rate on a connected graph, so phase 2 runs
        assert len(solves) == 2
        for (c, lower, upper, row_lower, row_upper, value, index, start), res in solves:
            a = sparse.csc_array((value, index, start), shape=(row_lower.size, c.size))
            na = int(np.isinf(row_lower).sum())  # the capacity rows come first
            assert np.array_equal(row_lower[na:], row_upper[na:])
            ref = public_linprog(
                c, A_ub=a[:na], b_ub=row_upper[:na], A_eq=a[na:], b_eq=row_upper[na:],
                bounds=np.column_stack([lower, upper]), method="highs",
                options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9},
            )
            assert res.status == ref.status == 0
            assert res.nit == ref.nit
            assert res.x.tobytes() == ref.x.tobytes()


def pa25_without_0_5_11():
    g = ne.gen_preferential_attachment(25, 2, seed=2)
    for v in (0, 5, 11):
        g.remove_node(v)
    return g


class TestResidualEnginePins:
    """Residual-engine outputs frozen from a reference run: the heterogeneous
    engine bit for bit, including the order of the per-pair map, and the LP
    (whose values come from HiGHS) to 1e-9."""

    @pytest.mark.parametrize(
        "graph, model, digest",
        [
            (
                lambda: ne.gen_watts_strogatz(24, 4, 0.3, seed=1),
                HET,
                "3386ad4ea239f494466b513ee0a9b843a69c6ff9757d21505a541018703c52a9",
            ),
            (
                lambda: ne.gen_watts_strogatz(24, 4, 0.3, seed=1),
                ThroughputModel(kind="dijkstra_heterogeneous", tie_break="random", seed=3),
                "c5339730f5bda3b3d419ffa3c8448153a8e47e2c7025e60dfe24d1e080ebca50",
            ),
            (
                pa25_without_0_5_11,
                HET,
                "643eb1fdae804306f0be72eed8e0591b342d41d3a4572ff411fb993c3d679edb",
            ),
        ],
        ids=["ws_sequential", "ws_random", "pa_removed"],
    )
    def test_heterogeneous_digest(self, graph, model, digest):
        r = ne.throughput_dijkstra_heterogeneous(graph(), model)
        got = repr((r.raw_throughput, list(r.per_pair_delivered.items())))
        assert hashlib.sha256(got.encode()).hexdigest() == digest

    def test_lp_pairs_and_values(self):
        g = pa25_without_0_5_11()
        r = ne.throughput_lp(g)
        # the graph stays connected: every ordered pair, source-major
        assert list(r.per_pair_delivered) == [(s, t) for s in g.nodes for t in g.nodes if s != t]
        # every value sits within 1e-9 of one of these (at least 5e-4 apart),
        # and the sequence of which one is frozen
        levels = np.array([
            0.047619047619047616, 0.05952380952380951, 0.08333333333333331,
            0.08401360544217686, 0.09041950113378688, 0.09098639455782308,
            0.09761904761904774, 0.09920634920634859, 0.1279761904761905,
            0.13095238095238143, 0.1499999999999998, 0.16751700680272097,
            0.17261904761904767, 0.21428571428571425, 0.29166666666666663,
            0.5807823129251695, 0.6071428571428568, 0.6547619047619049,
        ])
        vals = np.array(list(r.per_pair_delivered.values()))
        codes = np.abs(vals[:, None] - levels).argmin(axis=1)
        assert np.abs(vals - levels[codes]).max() <= 1e-9
        assert (
            hashlib.sha256(codes.astype(np.uint8).tobytes()).hexdigest()
            == "449ebdaba618b2633b58a9ae5e11d000ec2305e698193090841d2e047602ce90"
        )
        assert r.raw_throughput == pytest.approx(33.858730158730204, abs=1e-9)

    def test_lp_rate_phase_failure_raises(self, monkeypatch):
        real = throughput.linprog
        calls = []

        def fail_first(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append(res.status)
            res.status, res.message = 2, "the problem is infeasible"
            return res

        monkeypatch.setattr(throughput, "linprog", fail_first)
        with pytest.raises(ne.ComputeError, match="the problem is infeasible"):
            ne.throughput_lp(path_graph(3))
        # the rate phase failed, so no least-flow phase ran
        assert calls == [0]

    def test_lp_least_flow_phase_failure_raises(self, monkeypatch):
        real = throughput.linprog
        calls = []

        def fail_second(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append(res.status)
            if len(calls) == 2:
                res.status, res.message = 4, "numerical difficulties"
            return res

        monkeypatch.setattr(throughput, "linprog", fail_second)
        with pytest.raises(ne.ComputeError, match="numerical difficulties"):
            ne.throughput_lp(path_graph(3))
        assert calls == [0, 0]


class TestResidualRawSum:
    """Residual raw throughput is the left-to-right float sum of the per-pair
    deliveries in pair order, on every interpreter, and an attack curve
    never builds the per-pair map."""

    @pytest.mark.parametrize("kind", ["dijkstra_heterogeneous", "lp_optimization"])
    @pytest.mark.parametrize("tie_break, seed", [("sequential", None), ("random", 4)])
    @pytest.mark.parametrize(
        "graph",
        [lambda: ne.gen_watts_strogatz(24, 4, 0.3, seed=1), lambda: ne.gen_preferential_attachment(14, 2, 3)],
        ids=["ws", "pa"],
    )
    def test_raw_is_the_fixed_order_sum_of_the_pairs(self, kind, tie_break, seed, graph):
        r = ne.evaluate_throughput(graph(), ThroughputModel(kind, tie_break, seed))
        total = functools.reduce(operator.add, r.per_pair_delivered.values(), 0.0)
        assert np.float64(r.raw_throughput).tobytes() == np.float64(total).tobytes()

    @pytest.mark.parametrize("model", [HET, LP], ids=["heterogeneous", "lp"])
    def test_elasticity_builds_no_per_pair_map(self, model, monkeypatch):
        built = []
        real = throughput._Delivery.per_pair_delivered
        counted = property(lambda result: built.append(1) or real.__get__(result, type(result)))
        monkeypatch.setattr(throughput._Delivery, "per_pair_delivered", counted)
        # every evaluation in this process, where the counter sees it
        monkeypatch.setattr(robustness, "_pool_size", lambda work: 1)
        g = ne.gen_preferential_attachment(12, 2, seed=1)
        for strategy in (ne.AttackStrategy("random", seed=2, batch=2), ne.AttackStrategy("highest_betweenness")):
            ne.elasticity(g, strategy, model)
        assert built == []
        assert ne.evaluate_throughput(g, model).per_pair_delivered
        assert built == [1]


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

    def test_unknown_tie_break(self):
        with raises_exactly(ne.ParameterError, "unknown tie_break 'x'"):
            ThroughputModel(tie_break="x")

    def test_random_tie_needs_seed(self):
        with pytest.raises(ne.ParameterError):
            ThroughputModel(tie_break="random")

    def test_negative_tie_seed_rejected(self):
        # it used to build, and was refused at the first evaluation
        with raises_exactly(ne.ParameterError, "tie_seed must be >= 0, got -1"):
            ThroughputModel(tie_break="random", seed=-1)

    def test_tie_seed_that_is_not_an_integer_rejected(self):
        # both used to escape as numpy's TypeError
        with raises_exactly(ne.ParameterError, "tie_seed must be an integer, got 1.5"):
            ThroughputModel(tie_break="random", seed=1.5)
        with raises_exactly(ne.ParameterError, "tie_seed must be an integer, got 1.5"):
            ne.shortest_path_tree(ne.gen_mesh(4), 0, "random", 1.5)

    @pytest.mark.parametrize(
        "seed, text",
        [(-1, "tie_seed must be >= 0, got -1"), (1.5, "tie_seed must be an integer, got 1.5")],
        ids=["negative", "float"],
    )
    def test_bad_tie_seed_refused_under_the_sequential_tie_break(self, seed, text):
        # it does not draw, but its seed is checked as a config's tie_seed is
        with raises_exactly(ne.ParameterError, text):
            ThroughputModel(tie_break="sequential", seed=seed)

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
