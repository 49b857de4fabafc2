"""Topology generators: counts, determinism, structural invariants."""

import hashlib
import math

import numpy as np
import pytest

import netelast as ne


class TestGilbert:
    def test_edge_count_within_4_sigma(self):
        # binomial over 499500 pairs: mean = p * pairs, sigma ~= 67
        pairs = 1000 * 999 // 2
        mean = 0.0091 * pairs
        sigma = math.sqrt(pairs * 0.0091 * (1 - 0.0091))
        g = ne.gen_gilbert(1000, 0.0091, seed=5)
        assert abs(g.number_of_edges - mean) < 4 * sigma

    def test_p_zero_empty(self):
        assert ne.gen_gilbert(10, 0.0, seed=1).number_of_edges == 0

    def test_p_one_complete(self):
        g = ne.gen_gilbert(10, 1.0, seed=1)
        assert g.number_of_edges == 45

    def test_bad_probability(self):
        with pytest.raises(ne.ParameterError):
            ne.gen_gilbert(10, 1.5, seed=1)


class TestWattsStrogatz:
    def test_thousand_node_instance_counts(self):
        assert ne.gen_watts_strogatz(1000, 6, 0.3, seed=2).number_of_edges == 3000
        assert ne.gen_watts_strogatz(1000, 4, 0.5, seed=2).number_of_edges == 2000

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_edge_count_preserved_for_every_p(self, p, seed):
        g = ne.gen_watts_strogatz(40, 6, p, seed=seed)
        assert g.number_of_edges == 120

    def test_no_rewired_lattice_is_regular(self):
        g = ne.gen_watts_strogatz(10, 4, 0.0, seed=9)
        assert ne.metrics(g).heterogeneity == 0.0
        assert all(g.degree(v) == 4 for v in g.nodes)

    def test_odd_k_rejected(self):
        with pytest.raises(ne.ParameterError):
            ne.gen_watts_strogatz(10, 3, 0.1, seed=1)

    def test_k_too_large_rejected(self):
        with pytest.raises(ne.ParameterError):
            ne.gen_watts_strogatz(4, 4, 0.1, seed=1)


class TestPreferentialAttachment:
    @pytest.mark.parametrize("n,m", [(100, 1), (100, 2), (50, 3), (1000, 2)])
    def test_edge_count_formula(self, n, m):
        g = ne.gen_preferential_attachment(n, m, seed=3)
        assert g.number_of_edges == m * (n - m - 1) + (m + 1) * m // 2

    def test_m1_is_tree(self):
        g = ne.gen_preferential_attachment(4, 1, seed=0)
        assert g.number_of_edges == 3
        assert len(ne.connected_components(g)) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_connected_for_every_seed(self, seed):
        g = ne.gen_preferential_attachment(80, 2, seed=seed)
        assert len(ne.connected_components(g)) == 1

    def test_min_degree_and_heterogeneity(self):
        for m in (1, 2):
            g = ne.gen_preferential_attachment(1000, m, seed=11)
            assert min(g.degree(v) for v in g.nodes) >= m
            assert ne.metrics(g, with_betweenness=False).heterogeneity > 1.0

    def test_bad_parameters(self):
        with pytest.raises(ne.ParameterError):
            ne.gen_preferential_attachment(5, 0, seed=1)
        with pytest.raises(ne.ParameterError):
            ne.gen_preferential_attachment(3, 3, seed=1)


class TestNearRegular:
    def test_31_by_32_grid(self):
        g = ne.gen_near_regular(31, 32, False)
        assert g.number_of_nodes == 992
        assert g.number_of_edges == 31 * 31 + 30 * 32  # 1921

    def test_31_by_32_grid_with_diagonals(self):
        g = ne.gen_near_regular(31, 32, True)
        assert g.number_of_edges == 1921 + 2 * 30 * 31  # 3781

    def test_two_by_two_is_cycle(self):
        g = ne.gen_near_regular(2, 2, False)
        assert g.number_of_edges == 4
        assert all(g.degree(v) == 2 for v in g.nodes)

    @pytest.mark.parametrize("rows", [2, 3, 5, 11, 31, 50])
    @pytest.mark.parametrize("cols", [2, 4, 7, 32, 50])
    def test_closed_form_counts(self, rows, cols):
        plain = ne.gen_near_regular(rows, cols, False)
        assert plain.number_of_edges == rows * (cols - 1) + (rows - 1) * cols
        diag = ne.gen_near_regular(rows, cols, True)
        assert diag.number_of_edges == plain.number_of_edges + 2 * (rows - 1) * (cols - 1)

    def test_too_small_rejected(self):
        with pytest.raises(ne.ParameterError):
            ne.gen_near_regular(1, 5, False)


class TestMesh:
    def test_counts(self):
        assert ne.gen_mesh(1000).number_of_edges == 499500
        assert ne.gen_mesh(2).number_of_edges == 1

    def test_degrees(self):
        g = ne.gen_mesh(4)
        assert all(g.degree(v) == 3 for v in g.nodes)


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            ne.GeneratorSpec(family="gilbert", n=60, p=0.1, seed=77),
            ne.GeneratorSpec(family="watts_strogatz", n=60, k=4, p=0.3, seed=77),
            ne.GeneratorSpec(family="preferential_attachment", n=60, m=2, seed=77),
            ne.GeneratorSpec(family="near_regular", rows=5, cols=6, diagonals=True),
            ne.GeneratorSpec(family="mesh", n=12),
        ],
        ids=lambda s: s.family,
    )
    def test_same_seed_same_edges(self, spec):
        assert spec.build().edges() == spec.build().edges()

    # sha256 of repr(edges()) for seeds 1 and 2; WS(12, 10, 0.9) exhausts
    # its n retries on some edges and keeps them in place
    @pytest.mark.parametrize(
        "params,digests",
        [
            (
                dict(family="gilbert", n=60, p=0.2),
                ("eee4ba4ec0f1aaca83e0f23b420df75bea4283d006dc5fbcadc9f84bbff965d6",
                 "a94babdd2d4a2acaeb58277c08c31986d69eb870a00de8d5f34b65bfa5bb1bc0"),
            ),
            (
                dict(family="watts_strogatz", n=40, k=4, p=0.3),
                ("5734ae6b18b63803726f27b6e395a3aeee4ab82f12f1855a8d38bdb00352de29",
                 "5b0cec0cc20cf47c3e831e12e5d83e6c49a0bd38ae2e19c7035d3c37ab9d11e9"),
            ),
            (
                dict(family="watts_strogatz", n=12, k=10, p=0.9),
                ("4ced047e284bf4fab55a07d125c6b38a0735c1dc9ef46007342d8065485374bb",
                 "50a5889d76b59e78b6f3662979f39ae43ec46ac32b5c5730078c64d548ea5bd9"),
            ),
            (
                dict(family="preferential_attachment", n=50, m=2),
                ("08bd7843189bda7730e5a34aa9d01a7003d99889dc4f96143a811d34e434d741",
                 "2d672c5e40ef507d86df2c882ca810c908882807c47f4c1b281ff25e89fbf1ab"),
            ),
            (
                dict(family="near_regular", rows=5, cols=6, diagonals=False),
                ("eb4f2c08fa23694bc3dc57a12795538fa1a2ec8700486853f49b64e2c28b8a46",) * 2,
            ),
            (
                dict(family="near_regular", rows=5, cols=6, diagonals=True),
                ("694ed5730088920d330c954d6d6f5b5532c046825f9c901f6124d586ee229bd2",) * 2,
            ),
            (
                dict(family="mesh", n=9),
                ("0f1330faca56862fb012ebbae6890b45206b45d288facd46cd4e1add6a80e5ae",) * 2,
            ),
        ],
        ids=["gilbert", "ws", "ws_retry", "pa", "grid", "grid_diag", "mesh"],
    )
    def test_pinned_edge_sets(self, params, digests):
        for seed, want in zip((1, 2), digests):
            edges = ne.GeneratorSpec(seed=seed, **params).build().edges()
            assert hashlib.sha256(repr(edges).encode()).hexdigest() == want

    def test_different_seed_different_edges(self):
        a = ne.gen_gilbert(60, 0.2, seed=1).edges()
        b = ne.gen_gilbert(60, 0.2, seed=2).edges()
        assert a != b

    def test_unknown_family_rejected(self):
        with pytest.raises(ne.ParameterError):
            ne.GeneratorSpec(family="smallworld", n=10)
