import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdgnn.graphs as graphs_mod
from crowdgnn.data import TrajectoryWindow, compute_displacements
from crowdgnn.graphs import (
    ApproachSense,
    GraphConfig,
    Kernel,
    Neighborhood,
    Normalization,
    build_graph_sequence,
    graph_adjacency,
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
    w = TrajectoryWindow("pair", 0, pos, 8, 12)
    cfg = GraphConfig(neighborhood=Neighborhood.COMPLETE, kernel=kernel)
    return graph_adjacency(w, cfg)[0, 0, 1]


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
        return TrajectoryWindow("pair", 0, pos, 8, 12)

    def test_opposite_directions_view_zero(self):
        w = self.two_ped_window((0.4, 0.0), (-0.4, 0.0))
        cfg = GraphConfig(neighborhood=Neighborhood.VIEW)
        assert graph_adjacency(w, cfg)[3, 0, 1] == 0.0

    def test_distance_threshold(self):
        w = self.two_ped_window((0.4, 0.0), (0.4, 0.0), offset=(6.0, 0.0))
        thresh = GraphConfig(neighborhood=Neighborhood.VIEW_THRESH, epsilon=5.0)
        view = GraphConfig(neighborhood=Neighborhood.VIEW)
        assert graph_adjacency(w, thresh)[3, 0, 1] == 0.0
        assert graph_adjacency(w, view)[3, 0, 1] > 0.0

    def test_approach_sense_variants(self):
        # head-on: distance strictly decreasing over observed frames
        w = self.two_ped_window((0.2, 0.0), (-0.2, 0.0), offset=(10.0, 0.0))
        prose = GraphConfig(
            neighborhood=Neighborhood.APPROACH, approach_sense=ApproachSense.AS_PROSE
        )
        printed = GraphConfig(
            neighborhood=Neighborhood.APPROACH, approach_sense=ApproachSense.AS_PRINTED
        )
        assert graph_adjacency(w, prose)[3, 0, 1] > 0.0
        assert graph_adjacency(w, printed)[3, 0, 1] == 0.0

    def test_last_observed_frame_uses_backward_change(self):
        w = self.two_ped_window((0.2, 0.0), (-0.2, 0.0), offset=(10.0, 0.0))
        cfg = GraphConfig(
            neighborhood=Neighborhood.APPROACH, approach_sense=ApproachSense.AS_PROSE
        )
        # approaching throughout, so the gate holds at the final observed frame too
        assert graph_adjacency(w, cfg)[w.t_obs - 1, 0, 1] > 0.0

    def test_matrix_matches_oracle_exactly(self, rng):
        for trial in range(10):
            w = random_window(rng, n_peds=int(rng.integers(2, 8)))
            for nb in ALL_NEIGHBORHOODS:
                for kern in Kernel:
                    for sense in ApproachSense:
                        cfg = GraphConfig(
                            neighborhood=nb, kernel=kern, approach_sense=sense
                        )
                        adjacency = graph_adjacency(w, cfg)
                        for t in (0, 3, w.t_obs - 1):
                            got = adjacency[t]
                            want = oracle_adjacency(w, t, cfg)
                            assert np.array_equal(got, want), (nb, kern, sense, t)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, seed):
        w = random_window(np.random.default_rng(seed), n_peds=5)
        for nb in ALL_NEIGHBORHOODS:
            for kern in Kernel:
                cfg = GraphConfig(neighborhood=nb, kernel=kern)
                a = graph_adjacency(w, cfg)[4]
                assert np.max(np.abs(a - a.T)) == 0.0

    def test_gate_nesting(self, rng):
        for _ in range(5):
            w = random_window(rng, n_peds=6)
            view, thresh, appr, both = (
                graph_adjacency(w, GraphConfig(neighborhood=nb))
                for nb in (
                    Neighborhood.VIEW,
                    Neighborhood.VIEW_THRESH,
                    Neighborhood.APPROACH,
                    Neighborhood.VIEW_APPROACH,
                )
            )
            # every observed frame at once
            assert np.all(thresh <= view)
            assert np.all(both <= view)
            assert np.all(both <= appr)


def all_configs():
    """Every GraphConfig the CLI can build at the default epsilon (80)."""
    for nb, kern, sense, loops, norm in itertools.product(
        ALL_NEIGHBORHOODS, Kernel, ApproachSense, (False, True), Normalization
    ):
        yield GraphConfig(
            neighborhood=nb, kernel=kern, approach_sense=sense,
            self_loops=loops, normalization=norm,
        )


def oracle_sequence(window, cfg, adjacency):
    """Per-frame degree and normalization of oracle adjacencies [T_obs, N, N]."""
    eye = np.eye(window.n_peds)
    adj, deg, norm = [], [], []
    for a in adjacency:
        if cfg.self_loops:
            a = a + eye
        d = a.sum(axis=1)
        d_inv_sqrt = 1.0 / np.sqrt(np.where(d > 0, d, 1.0))
        if cfg.normalization is Normalization.PAPER_LAPLACIAN:
            m = np.diag(d) - a
        else:
            m = a
        adj.append(a)
        deg.append(d)
        norm.append(d_inv_sqrt[:, None] * m * d_inv_sqrt[None, :])
    return np.stack(adj), np.stack(deg), np.stack(norm)


def crowd_window(rng, n_peds, t_obs):
    """Random crowd in which pedestrians 0 and 1 coincide at every frame and
    the first half walks on a 1 m grid, so that pairwise distances tie."""
    w = random_window(rng, n_peds=n_peds, t_obs=t_obs, box=6.0)
    half = (n_peds + 1) // 2
    w.positions[:half] = np.round(w.positions[:half])
    w.positions[1] = w.positions[0]
    w.displacements = compute_displacements(w.positions)
    return w


class TestWholeWindowBuilder:
    # the N=200 window observes 2 frames, which still covers the approach
    # gate's forward change and its last-frame fallback, to bound the time
    # the pure-Python oracle takes
    @pytest.mark.parametrize(
        "n_peds,t_obs", [(n, 8) for n in (2, 3, 4, 5, 6, 7, 10, 50)] + [(200, 2)]
    )
    def test_bitwise_equal_to_per_frame_oracle(self, n_peds, t_obs):
        w = crowd_window(np.random.default_rng(n_peds), n_peds, t_obs)
        approach = (Neighborhood.APPROACH, Neighborhood.VIEW_APPROACH)
        oracle = {}
        for cfg in all_configs():
            # only the approach gates read the approach sense
            sense = cfg.approach_sense if cfg.neighborhood in approach else None
            key = (cfg.neighborhood, cfg.kernel, sense)
            if key not in oracle:
                oracle[key] = [oracle_adjacency(w, t, cfg) for t in range(t_obs)]
            adjacency = graph_adjacency(w, cfg)
            want = oracle_sequence(w, cfg, oracle[key])
            got = (adjacency, adjacency.sum(axis=2), build_graph_sequence(w, cfg))
            for name, g, e in zip(("adjacency", "degree", "normalized"), got, want):
                assert np.array_equal(g, e), (name, cfg)
                assert np.array_equal(np.signbit(g), np.signbit(e)), (name, cfg)

    @pytest.mark.parametrize("block", [1, 200, 300], ids=["1-frame", "2-frame", "3-frame"])
    def test_frame_blocks_bitwise_equal_one_block(self, monkeypatch, block):
        # at N=10 the default block holds all 8 frames; 300 leaves a ragged
        # last block of 2
        w = crowd_window(np.random.default_rng(1), 10, 8)
        cfgs = list(all_configs())
        want = [graph_adjacency(w, cfg) for cfg in cfgs]
        monkeypatch.setattr(graphs_mod, "PAIRWISE_BLOCK", block)
        for cfg, e in zip(cfgs, want):
            g = graph_adjacency(w, cfg)
            assert np.array_equal(g, e), cfg
            assert np.array_equal(np.signbit(g), np.signbit(e)), cfg

    def test_permuting_pedestrians_permutes_graphs(self, rng):
        w = random_window(rng, n_peds=10)
        perm = rng.permutation(w.n_peds)
        pw = TrajectoryWindow(
            "perm", 0, w.positions[perm], w.t_obs, w.t_pred
        )
        for cfg in all_configs():
            adj, padj = graph_adjacency(w, cfg), graph_adjacency(pw, cfg)
            assert np.array_equal(padj, adj[:, perm][:, :, perm])
            degree, pdegree = adj.sum(axis=2), padj.sum(axis=2)
            assert np.max(np.abs(pdegree - degree[:, perm])) <= 1e-12
            norm, pnorm = build_graph_sequence(w, cfg), build_graph_sequence(pw, cfg)
            assert np.max(np.abs(pnorm - norm[:, perm][:, :, perm])) <= 1e-12

    @pytest.mark.parametrize(
        "cfg",
        [GraphConfig(neighborhood=Neighborhood.VIEW_APPROACH, kernel=Kernel.EXP_DECAY),
         GraphConfig(neighborhood=Neighborhood.VIEW_THRESH, kernel=Kernel.INVERSE_NORM),
         social_stgcnn_baseline_config()],
        ids=["view-approach-exp", "view-thresh-inv", "baseline"],
    )
    def test_peak_memory_below_two_graphs(self, cfg):
        # one [T_obs, N, N] float64 buffer, plus bool gates and the pairwise
        # temporaries of one block of frames
        w = random_window(np.random.default_rng(0), n_peds=200, t_obs=8)
        tracemalloc.start()
        try:
            build_graph_sequence(w, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * w.t_obs * w.n_peds**2 * 8


class TestLaplacian:
    def test_two_node_normalized_closed_form(self, rng):
        for _ in range(50):
            w = rng.uniform(0.01, 10.0)
            # place two approaching pedestrians at distance 1/w for inverse kernel
            d = 1.0 / w
            pos = np.zeros((2, 20, 2))
            pos[1, :, 0] = d
            pos[:, :, 1] = 0.1 * np.arange(20)[None, :]  # both moving +y
            win = TrajectoryWindow("two", 0, pos, 8, 12)
            norm = build_graph_sequence(win, GraphConfig(neighborhood=Neighborhood.VIEW))
            for t in range(1, win.t_obs):
                assert np.allclose(
                    norm[t], [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12
                )

    def test_unnormalized_rows_sum_zero(self, rng):
        w = random_window(rng, n_peds=7)
        adjacency = graph_adjacency(w, GraphConfig(neighborhood=Neighborhood.COMPLETE))
        degree = adjacency.sum(axis=2)
        for t in range(w.t_obs):
            lap = np.diag(degree[t]) - adjacency[t]
            assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)

    def test_degree_equals_row_sums(self, rng):
        w = random_window(rng, n_peds=10)
        adjacency = graph_adjacency(w, GraphConfig())
        degree = adjacency.sum(axis=2)
        for t in range(w.t_obs):
            assert np.allclose(
                degree[t], adjacency[t].sum(axis=1), atol=1e-12
            )

    def test_isolated_node_self_loop_row(self):
        # pedestrian 2 walks opposite to the others: all view gates fail
        pos = np.zeros((3, 20, 2))
        pos[0, :, 0] = 0.3 * np.arange(20)
        pos[1, :, 0] = 1.0 + 0.3 * np.arange(20)
        pos[2, :, 0] = 10.0 - 0.3 * np.arange(20)
        pos[2, :, 1] = 5.0
        w = TrajectoryWindow("iso", 0, pos, 8, 12)
        cfg = GraphConfig(
            neighborhood=Neighborhood.VIEW,
            self_loops=True,
            normalization=Normalization.SYMMETRIC_ADJACENCY,
        )
        adjacency, norm = graph_adjacency(w, cfg), build_graph_sequence(w, cfg)
        t = 3
        assert adjacency[t, 2, 0] == 0.0 and adjacency[t, 2, 1] == 0.0
        assert np.allclose(norm[t, 2], [0.0, 0.0, 1.0])

    def test_isolated_node_zero_row_without_self_loops(self):
        pos = np.zeros((2, 20, 2))
        pos[0, :, 0] = 0.3 * np.arange(20)
        pos[1, :, 0] = 10.0 - 0.3 * np.arange(20)
        w = TrajectoryWindow("iso2", 0, pos, 8, 12)
        cfg = GraphConfig(neighborhood=Neighborhood.VIEW)
        assert np.all(np.isfinite(build_graph_sequence(w, cfg)))
        assert np.allclose(graph_adjacency(w, cfg)[3], 0.0)

    def test_baseline_config_regression(self, rng):
        # complete graph + inverse norm + self-loops + normalized adjacency
        w = random_window(rng, n_peds=4)
        cfg = social_stgcnn_baseline_config()
        norm = build_graph_sequence(w, cfg)
        t = 2
        a = oracle_adjacency(w, t, GraphConfig(neighborhood=Neighborhood.COMPLETE))
        a = a + np.eye(4)
        d = a.sum(axis=1)
        want = a / np.sqrt(np.outer(d, d))
        assert np.allclose(norm[t], want, atol=1e-12)

    def test_epsilon_must_be_positive(self):
        for epsilon in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="epsilon"):
                GraphConfig(epsilon=epsilon)
