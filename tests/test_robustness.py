"""Attack sequences, elasticity curves, analytic bounds, tradeoff score."""

import hashlib
import io
import math
import multiprocessing
import re
import time
from fractions import Fraction

import numpy as np
import pytest

import netelast as ne
from netelast import AttackStrategy, ThroughputModel, TradeoffParams, _csr, robustness
from netelast.throughput import raw_throughput

from conftest import (
    bfs_distances,
    canonical_relabel,
    deadline,
    path_graph,
    random_connected_graph,
    star_graph,
    structure_oracle,
)


class TestAttackSequence:
    def test_star_degree_attack_hits_center_first(self):
        assert ne.attack_sequence(star_graph(5), AttackStrategy("highest_degree"))[0] == 0

    def test_path_betweenness_attack_hits_middle_first(self):
        assert ne.attack_sequence(path_graph(3), AttackStrategy("highest_betweenness"))[0] == 1

    def test_complete_graph_ties_ascend(self):
        order = ne.attack_sequence(ne.gen_mesh(4), AttackStrategy("highest_degree"))
        assert order == [0, 1, 2, 3]

    def test_random_is_seeded_permutation(self):
        g = ne.gen_mesh(6)
        a = ne.attack_sequence(g, AttackStrategy("random", seed=3))
        b = ne.attack_sequence(g, AttackStrategy("random", seed=3))
        c = ne.attack_sequence(g, AttackStrategy("random", seed=4))
        assert a == b
        assert sorted(a) == [0, 1, 2, 3, 4, 5]
        assert a != c

    def test_negative_random_seed_rejected(self):
        with pytest.raises(ne.ParameterError, match="seed must be >= 0"):
            ne.attack_sequence(ne.gen_mesh(6), AttackStrategy("random", seed=-3))

    def test_adaptive_reranks_after_removal(self):
        # hub 0 with three leaves plus a tail 0-1-2-3-4-5: removing the hub
        # drops node 1 to degree one, so the adaptive attack jumps to node 2
        # while the static ranking (intact degrees) stays on node 1
        g = ne.Graph(9)
        for leaf in (6, 7, 8):
            g.add_edge(0, leaf)
        for i in range(5):
            g.add_edge(i, i + 1)
        adaptive = ne.attack_sequence(g, AttackStrategy("highest_degree"))
        static = ne.attack_sequence(g, AttackStrategy("highest_degree", recompute=False))
        assert static[:2] == [0, 1]
        assert adaptive[:2] == [0, 2]

    def test_fixed_orders_remove_nothing(self, monkeypatch):
        # a random or static order is read off the intact graph; only an
        # adaptive ranking needs the copy to lose every batch
        g = ne.gen_watts_strogatz(40, 4, 0.2, seed=5)
        real, calls = ne.Graph.remove_nodes, []
        monkeypatch.setattr(ne.Graph, "remove_nodes", lambda self, vs: calls.append(vs) or real(self, vs))
        for strategy, removals in (
            (AttackStrategy("random", seed=1, batch=3), 0),
            (AttackStrategy("highest_degree", recompute=False, batch=3), 0),
            (AttackStrategy("highest_betweenness", recompute=False, batch=3), 0),
            (AttackStrategy("highest_degree", batch=3), 14),
        ):
            calls.clear()
            assert sorted(ne.attack_sequence(g, strategy)) == g.nodes
            assert len(calls) == removals

    def test_does_not_mutate_input(self):
        g = star_graph(4)
        ne.attack_sequence(g, AttackStrategy("highest_degree"))
        assert g.number_of_nodes == 4

    def test_seed_validation(self):
        with pytest.raises(ne.ParameterError):
            AttackStrategy("random")
        with pytest.raises(ne.ParameterError):
            AttackStrategy("highest_degree", seed=1)

    @pytest.mark.parametrize("batch", [2.5, 2.0, True, "2", None])
    def test_batch_that_is_not_an_integer_rejected(self, batch):
        with pytest.raises(ne.ParameterError, match="batch must be an integer >= 1"):
            AttackStrategy("random", seed=1, batch=batch)

    def test_numpy_integer_batch_accepted(self):
        g = ne.gen_watts_strogatz(12, 4, 0.3, seed=2)
        wide, plain = (ne.elasticity(g, AttackStrategy("random", seed=1, batch=b)) for b in (np.int64(2), 2))
        assert wide.normalized.tobytes() == plain.normalized.tobytes() and wide.fractions.size == 7


class TestElasticity:
    @pytest.mark.parametrize(
        "strategy",
        [
            AttackStrategy("random", seed=5),
            AttackStrategy("highest_degree"),
            AttackStrategy("highest_betweenness"),
        ],
        ids=lambda s: s.kind,
    )
    def test_mesh_matches_closed_form(self, strategy):
        c = ne.elasticity(ne.gen_mesh(10), strategy)
        assert c.elasticity == pytest.approx(1 / 3 - 1 / 60, abs=1e-9)

    def test_k3_closed_form(self):
        c = ne.elasticity(ne.gen_mesh(3), AttackStrategy("highest_degree"))
        assert c.elasticity == pytest.approx(5 / 18, abs=1e-9)

    def test_star_degree_attack_single_trapezoid(self):
        c = ne.elasticity(star_graph(10), AttackStrategy("highest_degree"))
        assert c.elasticity == pytest.approx(0.05, abs=1e-12)
        assert c.normalized[1] == 0.0

    def test_curve_starts_at_unity(self):
        c = ne.elasticity(ne.gen_mesh(5), AttackStrategy("highest_degree"))
        assert (c.fractions[0], c.normalized[0]) == (0.0, 1.0)
        assert np.all(np.diff(c.fractions) > 0)

    def test_stop_fraction_partial(self):
        n, zeta = 10, 4
        c = ne.elasticity(
            ne.gen_mesh(n), AttackStrategy("highest_degree"), stop_fraction=zeta / n
        )
        assert c.fractions[-1] == pytest.approx(zeta / n)
        assert c.elasticity == pytest.approx(ne.mesh_elasticity_discrete(n, zeta), abs=1e-9)

    def test_adaptive_attack_ranks_and_removes_only_up_to_the_stop(self, monkeypatch):
        g = ne.gen_watts_strogatz(40, 4, 0.2, seed=5)
        strategy = AttackStrategy("highest_betweenness", batch=2)
        calls = {"rankings": 0, "betweenness": 0, "removed": []}
        real_rank, real_betweenness = robustness._rank, robustness.betweenness
        real_remove_nodes = ne.Graph.remove_nodes

        def rank(*args):
            calls["rankings"] += 1
            return real_rank(*args)

        def betweenness(*args):
            calls["betweenness"] += 1
            return real_betweenness(*args)

        def remove_nodes(self, vs):
            # remove_node goes through remove_nodes too
            calls["removed"].append(len(vs))
            return real_remove_nodes(self, vs)

        monkeypatch.setattr(ne.robustness, "_rank", rank)
        monkeypatch.setattr(ne.robustness, "betweenness", betweenness)
        monkeypatch.setattr(ne.Graph, "remove_nodes", remove_nodes)
        curve = ne.elasticity(g, strategy, stop_fraction=0.1)
        monkeypatch.undo()
        # ceil(0.1 * 40) = 4 removals: two batches, one ranking each; the
        # rankings read the routing traversal, so no standalone betweenness
        assert calls == {"rankings": 2, "betweenness": 0, "removed": [2, 2]}
        # the samples replay the first four nodes of the full removal order
        order = ne.attack_sequence(g, strategy)
        h = g.copy()
        expected = [1.0]
        for batch in (order[0:2], order[2:4]):
            for v in batch:
                h.remove_node(v)
            expected.append(ne.throughput_dijkstra_homogeneous(h).raw_throughput / curve.alpha)
        assert curve.fractions.tolist() == [0.0, 0.05, 0.1]
        assert curve.normalized.tolist() == expected

    def test_batch_interpolates_linearly(self):
        # mesh degradation is convex: wider trapezoids overestimate by at
        # most h^2/12 * max|T''| ~= (1/6)^2 / 12 * 2.07 ~= 0.0048
        fine = ne.elasticity(ne.gen_mesh(30), AttackStrategy("highest_degree", batch=1))
        coarse = ne.elasticity(ne.gen_mesh(30), AttackStrategy("highest_degree", batch=5))
        assert len(coarse.fractions) == 7
        assert fine.elasticity <= coarse.elasticity <= fine.elasticity + 5e-3

    def test_zero_initial_throughput_rejected(self):
        with pytest.raises(ne.ComputeError):
            ne.elasticity(ne.Graph(3), AttackStrategy("highest_degree"))

    def test_disconnected_start_allowed(self):
        g = ne.Graph(4)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        c = ne.elasticity(g, AttackStrategy("random", seed=0))
        assert c.alpha == pytest.approx(4.0)
        assert 0.0 <= c.elasticity

    def test_bad_stop_fraction(self):
        with pytest.raises(ne.ParameterError):
            ne.elasticity(ne.gen_mesh(3), AttackStrategy("highest_degree"), stop_fraction=0.0)

    def test_failed_cell_leaves_its_siblings(self):
        # the intact evaluation succeeds; the random cell then fails on its seed
        g = ne.gen_preferential_attachment(30, 2, seed=3)
        bad, good = AttackStrategy("random", seed=-1), AttackStrategy("highest_degree")
        cells = robustness._curves(g, [bad, good], ThroughputModel(), 1.0)
        assert [type(c) for c in cells] == [ne.ParameterError, ne.ElasticityCurve]

        def state(c):
            return c.fractions.tobytes(), c.normalized.tobytes(), c.elasticity, c.alpha, c.strategy, c.model

        assert state(cells[1]) == state(ne.elasticity(g, good))
        with pytest.raises(ne.ParameterError, match=re.escape(str(cells[0]))):
            ne.elasticity(g, bad)

    def test_mesh_attains_the_analytic_cap(self):
        # the complete graph realizes the 1/3 + 1/(2N) trapezoid cap exactly
        # at N = 2 and stays below it for larger N
        for n in (2, 5, 12):
            c = ne.elasticity(ne.gen_mesh(n), AttackStrategy("highest_degree"))
            assert 0.0 <= c.elasticity <= 1 / 3 + 1 / (2 * n) + 1e-9

    def test_curves_stay_normalized_on_generated_families(self, rng):
        # self-normalized elasticity of small sparse regular graphs can
        # exceed the mesh cap, but the sampled curves stay inside [0, 1]
        # on these families
        for g in (
            ne.gen_mesh(12),
            ne.gen_watts_strogatz(20, 4, 0.3, seed=2),
            ne.gen_gilbert(20, 0.4, seed=2),
        ):
            c = ne.elasticity(g, AttackStrategy("random", seed=9))
            assert c.elasticity >= 0.0
            assert np.all(c.normalized >= 0.0)
            assert np.all(c.normalized <= 1.0 + 1e-9)

    def test_relabel_invariance_after_canonicalization(self, rng):
        for _ in range(6):
            g = random_connected_graph(rng, 6)
            perm = list(rng.permutation(6))
            h = ne.Graph(6)
            for u, v in g.edges():
                h.add_edge(perm[u], perm[v])
            for kind in ("highest_degree", "highest_betweenness"):
                a = ne.elasticity(canonical_relabel(g), AttackStrategy(kind)).elasticity
                b = ne.elasticity(canonical_relabel(h), AttackStrategy(kind)).elasticity
                assert a == pytest.approx(b, abs=1e-12)

    def test_curve_csv_roundtrip_fields(self):
        c = ne.elasticity(ne.gen_mesh(4), AttackStrategy("highest_degree"))
        buf = io.StringIO()
        c.write_csv(buf)
        text = buf.getvalue()
        assert text.startswith("fraction_removed,normalized_throughput\n")
        assert "# elasticity = " in text
        assert "# alpha = 12" in text
        assert "# strategy = highest_degree" in text
        assert "# model = dijkstra_homogeneous" in text


# one model per engine and tie-break, and the five attack forms: random,
# static and adaptive degree, static and adaptive betweenness
POOL_MODELS = [
    ThroughputModel(kind, tie_break, 4 if tie_break == "random" else None)
    for kind in ("dijkstra_homogeneous", "dijkstra_heterogeneous", "lp_optimization")
    for tie_break in ("sequential", "random")
]
POOL_FORMS = [("random", True), ("highest_degree", False), ("highest_degree", True),
              ("highest_betweenness", False), ("highest_betweenness", True)]


def _pool(monkeypatch, size):
    monkeypatch.setattr(robustness, "_pool_size", lambda work: size)


def _state(c):
    return c.fractions.tobytes(), c.normalized.tobytes(), c.elasticity, c.alpha, c.strategy, c.model, c.seed


def _curve_in_worker():
    """Run in a pool worker, a daemonic process: (the curve of a 150-node
    mesh, the pool size there, the pids of the children it left)."""
    curve = ne.elasticity(ne.gen_mesh(150), AttackStrategy("random", seed=1))
    return _state(curve), robustness._pool_size(1.0), [p.pid for p in multiprocessing.active_children()]


class TestStatePool:
    """The states of every curve are tasks of one pool: the same curves at
    every pool size."""

    @pytest.mark.parametrize("model", POOL_MODELS, ids=lambda m: f"{m.kind}-{m.tie_break}")
    def test_curves_identical_at_pool_sizes_1_and_2(self, model, monkeypatch):
        # falls apart into several components before it is emptied
        g = ne.gen_watts_strogatz(13, 4, 0.3, seed=5)
        real_raw, parent = robustness.raw_throughput, []
        monkeypatch.setattr(robustness, "raw_throughput", lambda *a, **k: parent.append(1) or real_raw(*a, **k))
        for batch in (1, 3):
            strategies = [
                AttackStrategy(kind, seed=7 if kind == "random" else None, recompute=recompute, batch=batch)
                for kind, recompute in POOL_FORMS
            ]
            runs, calls = [], []
            for size in (1, 2):
                _pool(monkeypatch, size)
                parent.clear()
                with deadline(120):
                    runs.append(robustness._curves(g, strategies, model, 1.0))
                    runs.append([ne.elasticity(g, strategies[0], model)])
                calls.append(len(parent))
            one, one_alone, two, two_alone = runs
            assert [type(c) for c in one] == [ne.ElasticityCurve] * 5
            assert [_state(c) for c in one] == [_state(c) for c in two]
            assert _state(one_alone[0]) == _state(two_alone[0]) == _state(one[0])
            # every state evaluated once: in this process at size 1, in the workers at size 2
            states = sum(len(c.normalized) - 1 for c in one) + 1
            assert calls == [states + len(one_alone[0].normalized), 0]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("size", [1, 2])
    def test_failed_order_keeps_its_error(self, size, monkeypatch):
        # the random cell fails on its seed before any task; its sibling runs
        g = ne.gen_preferential_attachment(30, 2, seed=3)
        bad, good = AttackStrategy("random", seed=-1), AttackStrategy("highest_degree")
        want = ne.elasticity(g, good)
        _pool(monkeypatch, size)
        with deadline(120):
            cells = robustness._curves(g, [bad, good], ThroughputModel(), 1.0)
        assert [type(c) for c in cells] == [ne.ParameterError, ne.ElasticityCurve]
        assert str(cells[0]) == "seed must be >= 0, got -1"
        assert _state(cells[1]) == _state(want)

    def test_oversized_lp_graph_submits_no_task(self, monkeypatch):
        g = ne.gen_gilbert(40, 0.3, seed=1)
        submitted, real_map = [], robustness._map

        def spy(tasks, workers):
            submitted.append(tasks)
            return real_map(tasks, workers)

        monkeypatch.setattr(robustness, "_map", spy)
        monkeypatch.setattr(robustness, "raw_throughput", None)
        _pool(monkeypatch, 1)
        strategies = [AttackStrategy(kind, seed=7 if kind == "random" else None, recompute=recompute)
                      for kind, recompute in POOL_FORMS]
        cells = robustness._curves(g, strategies, ThroughputModel("lp_optimization"), 1.0)
        assert [(type(c), str(c)) for c in cells] == [
            (ne.GraphSizeError, "optimization model limited to 30 nodes, got 40")
        ] * 5
        assert submitted == [[]]

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("model", POOL_MODELS[::2], ids=lambda m: m.kind)
    def test_edgeless_graph_has_zero_alpha(self, model, size, monkeypatch):
        _pool(monkeypatch, size)
        strategies = [AttackStrategy("random", seed=1), AttackStrategy("highest_betweenness")]
        with deadline(120):
            cells = robustness._curves(ne.Graph(5), strategies, model, 1.0)
        assert [(type(c), str(c)) for c in cells] == [
            (ne.ComputeError, "elasticity undefined: initial throughput is 0")
        ] * 2

    def test_lane_error_propagates_without_orphans(self, monkeypatch):
        # an error that is not a NetelastError ends the call, as it does in process
        real_evaluate = robustness._evaluate

        def evaluate(g, model, rank, profile=None):
            if g.number_of_nodes < g.id_space:
                raise RuntimeError("injected")
            return real_evaluate(g, model, rank, profile)

        _pool(monkeypatch, 2)
        monkeypatch.setattr(robustness, "_evaluate", evaluate)
        with deadline(120), pytest.raises(RuntimeError, match="injected"):
            ne.elasticity(ne.gen_mesh(40), AttackStrategy("random", seed=1))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("size", [1, 2])
    def test_error_mid_curve_ends_only_that_curve(self, size, monkeypatch):
        # the states with 16 and 12 nodes left fail; each curve holds the
        # first of its errors, whichever task evaluates each state
        g = ne.gen_watts_strogatz(20, 4, 0.3, seed=2)
        real_evaluate = robustness._evaluate

        def evaluate(g, model, rank, profile=None):
            if g.number_of_nodes in (16, 12):
                raise ne.ComputeError(f"injected at {g.number_of_nodes} nodes")
            return real_evaluate(g, model, rank, profile)

        _pool(monkeypatch, size)
        monkeypatch.setattr(robustness, "_evaluate", evaluate)
        strategies = [AttackStrategy("random", seed=3), AttackStrategy("highest_betweenness"),
                      AttackStrategy("highest_degree", batch=2)]
        with deadline(120):
            cells = robustness._curves(g, strategies, ThroughputModel(), 1.0)
        assert [(type(c), str(c)) for c in cells] == [(ne.ComputeError, "injected at 16 nodes")] * 3
        assert multiprocessing.active_children() == []

    def test_error_in_the_parent_stops_the_workers(self):
        started = time.monotonic()
        with pytest.raises(TimeoutError), deadline(1):
            robustness._map([(time.sleep, 30)] * 3, 2)
        assert time.monotonic() - started < 10
        assert multiprocessing.active_children() == []

    def test_curve_in_a_daemonic_process_runs_there(self):
        # worth a pool, but a pool worker may not start one: the curve runs in the worker
        g, strategy = ne.gen_mesh(150), AttackStrategy("random", seed=1)
        assert robustness._Plan(g, [strategy], ThroughputModel(), 1.0).work() > robustness._POOL_BREAK_EVEN
        want = _state(ne.elasticity(g, strategy))
        with deadline(120), multiprocessing.get_context("fork").Pool(1) as pool:
            got, size, children = pool.apply(_curve_in_worker)
        assert got == want
        assert (size, children) == (1, [])
        assert multiprocessing.active_children() == []

    def test_small_curves_run_in_process(self):
        # forking a pool costs more than a small curve's evaluations
        def work(g, strategy, model=ThroughputModel()):
            return robustness._Plan(g, [strategy], model, 1.0).work()

        degree = AttackStrategy("highest_degree")
        for g in (ne.gen_mesh(7), star_graph(7)):
            for model in POOL_MODELS[::2]:
                assert work(g, degree, model) < robustness._POOL_BREAK_EVEN
        assert work(ne.gen_mesh(40), degree) < robustness._POOL_BREAK_EVEN
        assert robustness._pool_size(0.0) == 1
        assert work(ne.gen_mesh(150), AttackStrategy("random", seed=1)) > robustness._POOL_BREAK_EVEN


class TestFusedPass:
    """A betweenness ranking reads the routing traversal of the state it ranks."""

    @pytest.mark.parametrize("block", [None, 1], ids=["blocks", "one-source-blocks"])
    @pytest.mark.parametrize(
        "model", [ThroughputModel(), ThroughputModel(tie_break="random", seed=3)], ids=lambda m: m.tie_break
    )
    def test_matches_separate_calls(self, model, block, monkeypatch):
        # components of many sizes, sources spanning several bfs blocks
        g = ne.gen_gilbert(300, 0.008, seed=4)
        g.remove_nodes(range(0, 300, 7))
        assert g.number_of_nodes > _csr._BLOCK_NODES // g.id_space
        if block is not None:
            monkeypatch.setattr(_csr, "_BLOCK_NODES", block)
        raw, scores = robustness._evaluate(g, model, True)
        assert np.float64(raw).tobytes() == np.float64(raw_throughput(g, model)).tobytes()
        assert scores.tobytes() == ne.betweenness(g).tobytes()
        assert robustness._evaluate(g, model, False) == (raw, None)

    @pytest.mark.parametrize("block", [None, 1], ids=["blocks", "one-source-blocks"])
    @pytest.mark.parametrize("tie_break", ["sequential", "random"])
    @pytest.mark.parametrize("kind", ["dijkstra_heterogeneous", "lp_optimization"])
    @pytest.mark.parametrize(
        "build, removed",
        [
            (lambda: ne.gen_preferential_attachment(25, 2, seed=2), [0, 5, 11]),
            # falls into components of 23, 2 and 1 nodes
            (lambda: ne.gen_gilbert(30, 0.1, seed=3), [1, 4, 9, 20]),
        ],
        ids=["pa25", "gilbert30"],
    )
    def test_residual_engines_match_separate_calls(self, build, removed, kind, tie_break, block, monkeypatch):
        # the first residual round routes the intact CSR, removed ids included
        g = build()
        g.remove_nodes(removed)
        engine = ne.throughput_lp if kind == "lp_optimization" else ne.throughput_dijkstra_heterogeneous
        model = ThroughputModel(kind, tie_break, 3 if tie_break == "random" else None)
        plain = engine(g, model)
        if block is not None:
            monkeypatch.setattr(_csr, "_BLOCK_NODES", block)
        accum = np.zeros(g.id_space)
        fed = engine(g, model, visit=lambda traversal: _csr.brandes(traversal, accum))
        assert repr((fed.raw_throughput, list(fed.per_pair_delivered.items()))) == repr(
            (plain.raw_throughput, list(plain.per_pair_delivered.items()))
        )
        want = ne.betweenness(g).tobytes()
        assert (accum / 2.0).tobytes() == want
        raw, scores = robustness._evaluate(g, model, True)
        assert np.float64(raw).tobytes() == np.float64(plain.raw_throughput).tobytes()
        assert scores.tobytes() == want

    @pytest.mark.parametrize(
        "model, standalone",
        [
            (ThroughputModel(), 0),
            (ThroughputModel(kind="dijkstra_heterogeneous"), 0),
            (ThroughputModel(kind="lp_optimization"), 0),
        ],
        ids=lambda x: getattr(x, "kind", x),
    )
    def test_adaptive_betweenness_rankings(self, model, standalone, monkeypatch):
        # ceil(0.2 * 30) = 6 removals at batch 2: three rankings, of the intact
        # graph and of the states after the first two batches
        g = ne.gen_watts_strogatz(30, 4, 0.2, seed=8)
        strategy = AttackStrategy("highest_betweenness", batch=2)
        want = ne.elasticity(g, strategy, model, 0.2)
        calls = {"rankings": 0, "betweenness": 0}
        real_rank, real_betweenness = robustness._rank, robustness.betweenness

        def rank(*args):
            calls["rankings"] += 1
            return real_rank(*args)

        def betweenness(*args):
            calls["betweenness"] += 1
            return real_betweenness(*args)

        monkeypatch.setattr(robustness, "_rank", rank)
        monkeypatch.setattr(robustness, "betweenness", betweenness)
        got = ne.elasticity(g, strategy, model, 0.2)
        assert calls == {"rankings": 3, "betweenness": standalone}
        assert got.normalized.tobytes() == want.normalized.tobytes()

    @pytest.mark.parametrize(
        "model, digest",
        [
            (
                ThroughputModel(kind="dijkstra_heterogeneous"),
                "cb0e2fc332fb642cac549b1b0629edffe7b28fbe92ebdceb3215c882273611bf",
            ),
            (
                ThroughputModel(kind="dijkstra_heterogeneous", tie_break="random", seed=3),
                "1086c124124e0ddfd7a10f1fe69673fade25ba3d204fb31790719c25671f6604",
            ),
            (
                ThroughputModel(kind="lp_optimization"),
                "cae4cbe672a1c253549f29c900ba77d7c8d97b1f4871797c8bf89ec02a0c3f2c",
            ),
            (
                ThroughputModel(kind="lp_optimization", tie_break="random", seed=3),
                "cae4cbe672a1c253549f29c900ba77d7c8d97b1f4871797c8bf89ec02a0c3f2c",
            ),
        ],
        ids=["het_sequential", "het_random", "lp_sequential", "lp_random"],
    )
    def test_adaptive_residual_curve_digest(self, model, digest):
        # frozen from a reference run that ranked with standalone betweenness:
        # three rankings, each read now from the engine's first residual round
        g = ne.gen_watts_strogatz(30, 4, 0.2, seed=8)
        c = ne.elasticity(g, AttackStrategy("highest_betweenness", batch=2), model, 0.2)
        assert hashlib.sha256(c.fractions.tobytes() + c.normalized.tobytes()).hexdigest() == digest

    def test_attack_sequence_ranks_with_standalone_betweenness(self, monkeypatch):
        g = ne.gen_watts_strogatz(30, 4, 0.2, seed=8)
        calls = []
        real_betweenness = robustness.betweenness
        monkeypatch.setattr(
            robustness, "betweenness", lambda h: calls.append(h.number_of_nodes) or real_betweenness(h)
        )
        order = ne.attack_sequence(g, AttackStrategy("highest_betweenness", batch=4))
        # ceil(30 / 4) = 8 rankings, none of the emptied graph
        assert calls == [30, 26, 22, 18, 14, 10, 6, 2]
        assert sorted(order) == g.nodes


def _without(g, removed):
    g.remove_nodes(removed)
    return g


class TestFusedDistanceProfile:
    """The intact evaluation's routing traversal yields the distances of metrics."""

    GRAPHS = {
        # components {0, 5, 6} (a path) and {1, 2, 3} (a triangle) tie for
        # largest; the one with the smallest member counts
        "tied-components": lambda: ne.Graph.from_edges(7, [(0, 5), (5, 6), (1, 2), (2, 3), (1, 3)]),
        # components of 23, 2 and 1 nodes next to removed ids
        "removed-ids": lambda: _without(ne.gen_gilbert(30, 0.1, seed=3), [1, 4, 9, 20]),
        "edgeless": lambda: ne.Graph(5),
        # only single-node components are left
        "single-node-largest": lambda: _without(path_graph(5), [1, 3]),
    }
    MODELS = [
        ThroughputModel(),
        ThroughputModel(tie_break="random", seed=3),
        ThroughputModel(kind="dijkstra_heterogeneous"),
        ThroughputModel(kind="lp_optimization"),
    ]

    @pytest.mark.parametrize("block", [None, 1], ids=["blocks", "one-source-blocks"])
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.kind}-{m.tie_break}")
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_matches_standalone_metrics_and_oracle(self, name, model, block, monkeypatch):
        g = self.GRAPHS[name]()
        standalone = ne.metrics(g)
        if block is not None:
            monkeypatch.setattr(_csr, "_BLOCK_NODES", block)
        profile = np.full((2, g.id_space), -1)
        robustness._evaluate(g, model, False, profile)
        # every engine routes the intact graph, except that the residual
        # engines route no round on a graph without edges
        routed = model.kind == "dijkstra_homogeneous" or g.number_of_edges > 0
        assert ((profile >= 0).all(axis=0) == (g._present & routed)).all()
        adj = {v: g.neighbors(v) for v in g.nodes}
        for s in g.nodes if routed else []:
            hops = bfs_distances(adj, s).values()
            assert profile[:, s].tolist() == [sum(hops), max(hops)]
        # a filled profile spares metrics its own traversal
        monkeypatch.setattr(_csr, "bfs", None if routed else _csr.bfs)
        fused = ne.metrics(g, profile)
        assert fused.csv_row(name) == standalone.csv_row(name)
        _, diameter, asp = structure_oracle(g)
        assert repr((fused.diameter, fused.asp)) == repr((diameter, asp))


class TestMeshBounds:
    def test_discrete_full_removal_values(self):
        assert ne.mesh_elasticity_discrete(10, 10) == pytest.approx(19 / 60, abs=1e-12)
        assert ne.mesh_elasticity_discrete(2, 2) == pytest.approx(0.25, abs=1e-12)
        assert ne.mesh_elasticity_discrete(3, 3) == pytest.approx(5 / 18, abs=1e-12)

    def test_discrete_closed_form_sweep(self):
        for n in range(2, 80):
            assert ne.mesh_elasticity_discrete(n, n) == pytest.approx(
                1 / 3 - 1 / (6 * n), abs=1e-12
            )

    def test_discrete_equals_exact_trapezoid(self):
        # the trapezoid sum over the mesh's surviving-pair shares in exact
        # rationals, rounded once
        for n in range(2, 61):
            for zeta in range(1, n + 1):
                share = [Fraction((n - k) * (n - k - 1), n * (n - 1)) for k in range(zeta + 1)]
                area = (share[0] + share[zeta]) / 2 + sum(share[1:zeta])
                assert ne.mesh_elasticity_discrete(n, zeta) == float(area / n)

    def test_discrete_partial_equals_simulation(self):
        # partial-removal trapezoid sum against the simulated mesh curve
        for zeta in (1, 3, 7):
            sim = ne.elasticity(
                ne.gen_mesh(10), AttackStrategy("highest_degree"), stop_fraction=zeta / 10
            )
            assert ne.mesh_elasticity_discrete(10, zeta) == pytest.approx(
                sim.elasticity, abs=1e-12
            )

    def test_continuous_full_removal_values(self):
        assert ne.mesh_elasticity_continuous(10) == pytest.approx(0.315, abs=1e-12)
        assert ne.mesh_elasticity_continuous(20, "all") == pytest.approx(0.324583, abs=5e-7)

    def test_continuous_tends_to_one_third(self):
        assert ne.mesh_elasticity_continuous(10**9) == pytest.approx(1 / 3, abs=1e-9)

    def test_continuous_partial_tracks_discrete(self):
        # the integral and the trapezoid sum converge from the very first
        # removals; they must stay within O(1/n) of each other throughout
        for n in (20, 50):
            for zeta in range(1, n + 1):
                d = ne.mesh_elasticity_discrete(n, zeta)
                c = ne.mesh_elasticity_continuous(n, zeta)
                assert abs(d - c) <= 1 / n

    def test_continuous_partial_at_zero_is_zero(self):
        assert ne.mesh_elasticity_continuous(15, 0) == 0.0

    def test_zeta_range_checks(self):
        with pytest.raises(ne.ParameterError):
            ne.mesh_elasticity_discrete(10, 0)
        with pytest.raises(ne.ParameterError):
            ne.mesh_elasticity_discrete(10, 11)
        with pytest.raises(ne.ParameterError):
            ne.mesh_elasticity_continuous(1)


class TestTradeoff:
    def test_benchmark_rows(self):
        # all tolerances 1; inputs are (elas_r, elas_d, elas_b, n, m)
        assert ne.tradeoff_re(0.1623, 0.0095, 0.0048, 1000, 1049) == pytest.approx(
            0.1519, abs=5e-5
        )
        assert ne.tradeoff_re(0.1290, 0.0040, 0.0026, 1000, 1000) == pytest.approx(
            0.1351, abs=5e-5
        )
        assert ne.tradeoff_re(0.1280, 0.0093, 0.0031, 886, 896) == pytest.approx(
            0.1342, abs=5e-5
        )

    def test_tree_with_zero_scores(self):
        assert ne.tradeoff_re(0.0, 0.0, 0.0, 10, 9) == 0.0

    def test_under_connected_clamps_penalty(self):
        assert ne.tradeoff_re(0.1, 0.1, 0.1, 10, 4) == pytest.approx(0.3)

    def test_monotone_nonincreasing_in_links(self):
        prev = math.inf
        for m in range(9, 46):
            re = ne.tradeoff_re(0.2, 0.1, 0.05, 10, m)
            assert re <= prev + 1e-12
            prev = re

    def test_tolerances_weight_terms(self):
        params = TradeoffParams(alpha_tol=1.0, beta_tol=0.0, delta_tol=0.0, gamma_tol=0.0)
        assert ne.tradeoff_re(0.25, 0.1, 0.1, 10, 20, params) == pytest.approx(0.25)

    def test_parameter_validation(self):
        with pytest.raises(ne.ParameterError):
            TradeoffParams(alpha_tol=1.5)
        with pytest.raises(ne.ParameterError):
            ne.tradeoff_re(1.2, 0.0, 0.0, 1000, 1000)
        with pytest.raises(ne.ParameterError):
            ne.tradeoff_re(-0.1, 0.0, 0.0, 1000, 1000)
        with pytest.raises(ne.ParameterError):
            ne.tradeoff_re(0.1, 0.1, 0.1, 1, 0)


class TestAttackOrderingOnRandomGraphs:
    def test_random_attack_beats_targeted_in_expectation(self):
        # 30-seed means on moderately dense seeded instances
        g = ne.gen_gilbert(40, 0.2, seed=123)
        r_vals = [
            ne.elasticity(g, AttackStrategy("random", seed=s)).elasticity
            for s in range(30)
        ]
        d = ne.elasticity(g, AttackStrategy("highest_degree")).elasticity
        b = ne.elasticity(g, AttackStrategy("highest_betweenness")).elasticity
        assert np.mean(r_vals) > d
        assert np.mean(r_vals) > b
