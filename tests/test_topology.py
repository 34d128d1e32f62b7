from __future__ import annotations

import numpy as np
import pytest

from dpdgd.topology import (
    BUILTIN_TOPOLOGIES,
    Graph,
    TopologyError,
    build_metropolis_weights,
    builtin_topology,
    spectral_gap,
    validate_weight_matrix,
)


def power_iteration_norm(a, iters=2000):
    """Spectral norm oracle: power iteration on a^T a."""
    a = np.asarray(a, dtype=float)
    v = np.ones(a.shape[0]) / np.sqrt(a.shape[0])
    b = a.T @ a
    for _ in range(iters):
        w = b @ v
        n = np.linalg.norm(w)
        if n == 0:
            return 0.0
        v = w / n
    return float(np.sqrt(v @ (b @ v)))


class TestMetropolisWeights:
    def test_single_node(self):
        w = build_metropolis_weights(builtin_topology("ring", 1))
        assert w.w.tolist() == [[1.0]]
        assert w.eta == 0.0

    def test_two_nodes(self):
        w = build_metropolis_weights(Graph(2, frozenset({(0, 1)})))
        assert np.allclose(w.w, [[0.5, 0.5], [0.5, 0.5]])
        assert w.eta < 1e-15

    def test_triangle_is_uniform(self):
        w = build_metropolis_weights(builtin_topology("complete", 3))
        assert np.abs(w.w - 1.0 / 3.0).max() < 1e-15
        # eta via explicit eigendecomposition of W - J/3
        dev = w.w - np.ones((3, 3)) / 3.0
        assert np.abs(np.linalg.eigvalsh(dev)).max() < 1e-15
        assert w.eta < 1e-15

    def test_five_ring_gap(self):
        w = build_metropolis_weights(builtin_topology("ring", 5))
        # circulant eigenvalues 1/3 + (2/3) cos(2 pi j / 5)
        expected = max(
            abs(1.0 / 3.0 + 2.0 / 3.0 * np.cos(2 * np.pi * j / 5)) for j in (1, 2)
        )
        assert 0.0 < w.eta < 1.0
        assert abs(w.eta - expected) < 1e-12

    def test_path_matches_oracles(self):
        w = build_metropolis_weights(builtin_topology("path", 5))
        dev = w.w - np.ones((5, 5)) / 5.0
        dense = np.abs(np.linalg.eigvalsh(dev)).max()
        assert 0.0 < w.eta < 1.0
        assert abs(w.eta - dense) < 1e-12
        assert abs(w.eta - power_iteration_norm(dev)) < 1e-10

    def test_disconnected_rejected(self):
        g = Graph(4, frozenset({(0, 1), (2, 3)}))
        with pytest.raises(TopologyError, match="on 4 agents with 2 edges is not connected"):
            build_metropolis_weights(g)

    @pytest.mark.parametrize("name", BUILTIN_TOPOLOGIES)
    @pytest.mark.parametrize("m", [2, 3, 5, 8, 13, 21, 34, 50])
    def test_all_builtins_satisfy_invariants(self, name, m):
        w = build_metropolis_weights(builtin_topology(name, m))
        revalidated = validate_weight_matrix(w.w)
        assert revalidated.eta == w.eta
        assert 0.0 <= w.eta < 1.0


class TestBuiltinTopology:
    @pytest.mark.parametrize(
        "name,m,edges", [("complete", 3, 3), ("ring", 5, 5), ("path", 2, 1), ("ring_plus_chord", 5, 6)]
    )
    def test_edge_counts(self, name, m, edges):
        assert len(builtin_topology(name, m).edges) == edges

    def test_chord_is_zero_to_half(self):
        g = builtin_topology("ring_plus_chord", 6)
        assert (0, 3) in g.edges

    def test_unknown_name(self):
        with pytest.raises(TopologyError, match="unknown topology 'torus'"):
            builtin_topology("torus", 4)

    def test_rejects_bad_graphs(self):
        with pytest.raises(TopologyError):
            Graph(3, frozenset({(0, 0)}))
        with pytest.raises(TopologyError):
            Graph(3, frozenset({(0, 7)}))
        with pytest.raises(TopologyError):
            builtin_topology("ring", 0)


class TestValidateWeightMatrix:
    def test_averaging_matrix_valid(self):
        w = validate_weight_matrix([[0.5, 0.5], [0.5, 0.5]])
        assert w.eta < 1e-15

    def test_identity_violates_gap(self):
        with pytest.raises(TopologyError, match=r"eta = 1\.000000 >= 1 \(disagreement does not"):
            validate_weight_matrix(np.eye(2))

    def test_not_symmetric(self):
        with pytest.raises(TopologyError,
                           match=r"not symmetric: max \|w_ij - w_ji\| = 1\.000e-01 exceeds 1e-12"):
            validate_weight_matrix([[0.6, 0.4], [0.5, 0.5]])

    def test_not_stochastic(self):
        with pytest.raises(TopologyError, match=r"row/col sums deviate from 1 by up to 1\.000e-01"):
            validate_weight_matrix([[0.7, 0.4], [0.4, 0.7]])

    def test_negative_entry(self):
        with pytest.raises(TopologyError, match=r"w\[0,1\] = -2\.000e-01 is negative"):
            validate_weight_matrix([[1.2, -0.2], [-0.2, 1.2]])

    def test_zero_self_weight(self):
        with pytest.raises(TopologyError, match=r"w\[0,0\] = 0\.000e\+00 must be positive"):
            validate_weight_matrix([[0.0, 1.0], [1.0, 0.0]])


class TestSpectralGap:
    def test_complete_averaging_is_zero(self):
        for m in (2, 4, 7):
            assert spectral_gap(np.ones((m, m)) / m) < 1e-15

    def test_identity_m2_is_one(self):
        assert abs(spectral_gap(np.eye(2)) - 1.0) < 1e-15

    def test_matches_dense_oracle_on_random_graphs(self, rng):
        for m in (3, 7, 12, 20):
            for _ in range(5):
                # random spanning path plus extra edges keeps the graph connected
                perm = rng.permutation(m)
                edges = {(int(min(a, b)), int(max(a, b))) for a, b in zip(perm[:-1], perm[1:])}
                extra = rng.integers(0, m, size=(2 * m, 2))
                edges |= {
                    (int(min(a, b)), int(max(a, b))) for a, b in extra if a != b
                }
                w = build_metropolis_weights(Graph(m, frozenset(edges)))
                dev = w.w - np.ones((m, m)) / m
                dense = float(np.abs(np.linalg.eigvalsh(dev)).max())
                assert abs(w.eta - dense) <= 1e-10


def test_mixing_preserves_agent_mean(rng):
    for name in BUILTIN_TOPOLOGIES:
        w = build_metropolis_weights(builtin_topology(name, 6))
        x = rng.standard_normal((6, 4)) * 10
        drift = np.abs((w.w @ x).mean(axis=0) - x.mean(axis=0)).max()
        assert drift <= 1e-12
