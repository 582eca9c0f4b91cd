import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdgnn.data import TrajectoryWindow, compute_displacements
from crowdgnn.graphs import (
    ApproachSense,
    GraphConfig,
    GraphSequence,
    Kernel,
    Neighborhood,
    Normalization,
    adjacency_at_frame,
    build_graph_sequence,
    social_stgcnn_baseline_config,
)
from conftest import random_window


# ---- independent O(N^2) oracle, coded predicate by predicate ----------------


def oracle_adjacency(window, t, cfg):
    pos = window.positions
    disp = window.displacements
    n = window.n_peds
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dx = pos[i, t, 0] - pos[j, t, 0]
            dy = pos[i, t, 1] - pos[j, t, 1]
            d = np.sqrt(dx * dx + dy * dy)
            if cfg.kernel is Kernel.INVERSE_NORM:
                k = 1.0 / d if d != 0.0 else 0.0
            else:
                k = np.exp(-d) if d != 0.0 else 0.0
            connected = True
            if cfg.neighborhood in (
                Neighborhood.VIEW,
                Neighborhood.VIEW_THRESH,
                Neighborhood.VIEW_APPROACH,
            ):
                dot = disp[i, t, 0] * disp[j, t, 0] + disp[i, t, 1] * disp[j, t, 1]
                connected &= dot > 0
            if cfg.neighborhood is Neighborhood.VIEW_THRESH:
                connected &= d < cfg.epsilon
            if cfg.neighborhood in (Neighborhood.APPROACH, Neighborhood.VIEW_APPROACH):
                if t + 1 <= window.t_obs - 1:
                    t_late, t_early = t + 1, t
                else:
                    t_late, t_early = t, t - 1

                def dist(tt):
                    ddx = pos[i, tt, 0] - pos[j, tt, 0]
                    ddy = pos[i, tt, 1] - pos[j, tt, 1]
                    return np.sqrt(ddx * ddx + ddy * ddy)

                if cfg.approach_sense is ApproachSense.AS_PROSE:
                    connected &= dist(t_late) < dist(t_early)
                else:
                    connected &= dist(t_late) > dist(t_early)
            a[i, j] = k if connected else 0.0
    return a


ALL_NEIGHBORHOODS = [
    Neighborhood.VIEW,
    Neighborhood.VIEW_THRESH,
    Neighborhood.APPROACH,
    Neighborhood.VIEW_APPROACH,
    Neighborhood.COMPLETE,
]


def kernel_weight(kernel, p, q):
    """Complete-graph edge weight between pedestrians standing at p and q."""
    pos = np.zeros((2, 20, 2))
    pos[0], pos[1] = p, q
    w = TrajectoryWindow("pair", 0, pos, compute_displacements(pos), 8, 12)
    cfg = GraphConfig(neighborhood=Neighborhood.COMPLETE, kernel=kernel)
    return adjacency_at_frame(w, 0, cfg)[0, 1]


class TestKernels:
    def test_inverse_norm_values(self):
        inv = Kernel.INVERSE_NORM
        assert kernel_weight(inv, (0, 0), (0, 2)) == 0.5
        assert kernel_weight(inv, (0, 0), (3, 4)) == pytest.approx(0.2)
        assert kernel_weight(inv, (1, 1), (1, 1)) == 0.0

    def test_exp_decay_values(self):
        exp = Kernel.EXP_DECAY
        assert kernel_weight(exp, (0, 0), (0, 1)) == pytest.approx(math.exp(-1))
        assert kernel_weight(exp, (0, 0), (5, 0)) == pytest.approx(math.exp(-5))
        assert kernel_weight(exp, (2, 2), (2, 2)) == 0.0

    @given(
        st.floats(-50, 50), st.floats(-50, 50),
        st.floats(1e-3, 40.0), st.floats(0, 2 * math.pi),
        st.floats(1.1, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_positive_and_decreasing(self, x1, y1, dist, angle, scale):
        p = (x1, y1)
        dx, dy = dist * math.cos(angle), dist * math.sin(angle)
        q = (x1 + dx, y1 + dy)
        far = (x1 + scale * dx, y1 + scale * dy)
        for kern in Kernel:
            near_w = kernel_weight(kern, p, q)
            assert near_w > 0
            assert kernel_weight(kern, p, far) < near_w

    def test_coincident_points_zero(self):
        for kern in Kernel:
            assert kernel_weight(kern, (3.0, -1.0), (3.0, -1.0)) == 0.0


class TestGates:
    def two_ped_window(self, v0, v1, offset=(2.0, 0.0)):
        t_total = 20
        t = np.arange(t_total)[:, None]
        p0 = t * np.asarray(v0)
        p1 = np.asarray(offset) + t * np.asarray(v1)
        pos = np.stack([p0, p1]).astype(float)
        return TrajectoryWindow(
            "pair", 0, pos, compute_displacements(pos), 8, 12
        )

    def test_opposite_directions_view_zero(self):
        w = self.two_ped_window((0.4, 0.0), (-0.4, 0.0))
        cfg = GraphConfig(neighborhood=Neighborhood.VIEW)
        assert adjacency_at_frame(w, 3, cfg)[0, 1] == 0.0

    def test_distance_threshold(self):
        w = self.two_ped_window((0.4, 0.0), (0.4, 0.0), offset=(6.0, 0.0))
        thresh = GraphConfig(neighborhood=Neighborhood.VIEW_THRESH, epsilon=5.0)
        view = GraphConfig(neighborhood=Neighborhood.VIEW)
        assert adjacency_at_frame(w, 3, thresh)[0, 1] == 0.0
        assert adjacency_at_frame(w, 3, view)[0, 1] > 0.0

    def test_approach_sense_variants(self):
        # head-on: distance strictly decreasing over observed frames
        w = self.two_ped_window((0.2, 0.0), (-0.2, 0.0), offset=(10.0, 0.0))
        prose = GraphConfig(
            neighborhood=Neighborhood.APPROACH, approach_sense=ApproachSense.AS_PROSE
        )
        printed = GraphConfig(
            neighborhood=Neighborhood.APPROACH, approach_sense=ApproachSense.AS_PRINTED
        )
        assert adjacency_at_frame(w, 3, prose)[0, 1] > 0.0
        assert adjacency_at_frame(w, 3, printed)[0, 1] == 0.0

    def test_last_observed_frame_uses_backward_change(self):
        w = self.two_ped_window((0.2, 0.0), (-0.2, 0.0), offset=(10.0, 0.0))
        cfg = GraphConfig(
            neighborhood=Neighborhood.APPROACH, approach_sense=ApproachSense.AS_PROSE
        )
        # approaching throughout, so the gate holds at the final observed frame too
        assert adjacency_at_frame(w, w.t_obs - 1, cfg)[0, 1] > 0.0

    def test_matrix_matches_oracle_exactly(self, rng):
        for trial in range(10):
            w = random_window(rng, n_peds=int(rng.integers(2, 8)))
            for nb in ALL_NEIGHBORHOODS:
                for kern in Kernel:
                    for sense in ApproachSense:
                        cfg = GraphConfig(
                            neighborhood=nb, kernel=kern, approach_sense=sense
                        )
                        for t in (0, 3, w.t_obs - 1):
                            got = adjacency_at_frame(w, t, cfg)
                            want = oracle_adjacency(w, t, cfg)
                            assert np.array_equal(got, want), (nb, kern, sense, t)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, seed):
        w = random_window(np.random.default_rng(seed), n_peds=5)
        for nb in ALL_NEIGHBORHOODS:
            for kern in Kernel:
                a = adjacency_at_frame(w, 4, GraphConfig(neighborhood=nb, kernel=kern))
                assert np.max(np.abs(a - a.T)) == 0.0

    def test_gate_nesting(self, rng):
        for _ in range(5):
            w = random_window(rng, n_peds=6)
            for t in range(w.t_obs):
                view = adjacency_at_frame(w, t, GraphConfig(neighborhood=Neighborhood.VIEW))
                thresh = adjacency_at_frame(
                    w, t, GraphConfig(neighborhood=Neighborhood.VIEW_THRESH)
                )
                appr = adjacency_at_frame(
                    w, t, GraphConfig(neighborhood=Neighborhood.APPROACH)
                )
                both = adjacency_at_frame(
                    w, t, GraphConfig(neighborhood=Neighborhood.VIEW_APPROACH)
                )
                assert np.all(thresh <= view)
                assert np.all(both <= view)
                assert np.all(both <= appr)


class TestLaplacian:
    def test_two_node_normalized_closed_form(self, rng):
        for _ in range(50):
            w = rng.uniform(0.01, 10.0)
            # place two approaching pedestrians at distance 1/w for inverse kernel
            d = 1.0 / w
            pos = np.zeros((2, 20, 2))
            pos[1, :, 0] = d
            pos[:, :, 1] = 0.1 * np.arange(20)[None, :]  # both moving +y
            win = TrajectoryWindow("two", 0, pos, compute_displacements(pos), 8, 12)
            seq = build_graph_sequence(win, GraphConfig(neighborhood=Neighborhood.VIEW))
            for t in range(1, win.t_obs):
                assert np.allclose(
                    seq.normalized[t], [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12
                )

    def test_unnormalized_rows_sum_zero(self, rng):
        w = random_window(rng, n_peds=7)
        seq = build_graph_sequence(w, GraphConfig(neighborhood=Neighborhood.COMPLETE))
        for t in range(w.t_obs):
            lap = np.diag(seq.degree[t]) - seq.adjacency[t]
            assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)

    def test_degree_equals_row_sums(self, rng):
        w = random_window(rng, n_peds=10)
        seq = build_graph_sequence(w, GraphConfig())
        for t in range(w.t_obs):
            assert np.allclose(
                seq.degree[t], seq.adjacency[t].sum(axis=1), atol=1e-12
            )

    def test_isolated_node_self_loop_row(self):
        # pedestrian 2 walks opposite to the others: all view gates fail
        pos = np.zeros((3, 20, 2))
        pos[0, :, 0] = 0.3 * np.arange(20)
        pos[1, :, 0] = 1.0 + 0.3 * np.arange(20)
        pos[2, :, 0] = 10.0 - 0.3 * np.arange(20)
        pos[2, :, 1] = 5.0
        w = TrajectoryWindow("iso", 0, pos, compute_displacements(pos), 8, 12)
        cfg = GraphConfig(
            neighborhood=Neighborhood.VIEW,
            self_loops=True,
            normalization=Normalization.SYMMETRIC_ADJACENCY,
        )
        seq = build_graph_sequence(w, cfg)
        t = 3
        assert seq.adjacency[t, 2, 0] == 0.0 and seq.adjacency[t, 2, 1] == 0.0
        assert np.allclose(seq.normalized[t, 2], [0.0, 0.0, 1.0])

    def test_isolated_node_zero_row_without_self_loops(self):
        pos = np.zeros((2, 20, 2))
        pos[0, :, 0] = 0.3 * np.arange(20)
        pos[1, :, 0] = 10.0 - 0.3 * np.arange(20)
        w = TrajectoryWindow("iso2", 0, pos, compute_displacements(pos), 8, 12)
        seq = build_graph_sequence(w, GraphConfig(neighborhood=Neighborhood.VIEW))
        assert np.all(np.isfinite(seq.normalized))
        assert np.allclose(seq.adjacency[3], 0.0)

    def test_baseline_config_regression(self, rng):
        # complete graph + inverse norm + self-loops + normalized adjacency
        w = random_window(rng, n_peds=4)
        cfg = social_stgcnn_baseline_config()
        seq = build_graph_sequence(w, cfg)
        t = 2
        a = oracle_adjacency(w, t, GraphConfig(neighborhood=Neighborhood.COMPLETE))
        a = a + np.eye(4)
        d = a.sum(axis=1)
        want = a / np.sqrt(np.outer(d, d))
        assert np.allclose(seq.normalized[t], want, atol=1e-12)

    def test_epsilon_must_be_positive(self):
        for epsilon in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="epsilon"):
                GraphConfig(epsilon=epsilon)
