import zlib

import numpy as np
import pytest

from crowdgnn.evaluate import (
    MetricsReport,
    ade,
    best_of_k,
    evaluate,
    fde,
    predict_gaussians,
    sample_generators,
    sample_trajectory,
)
from crowdgnn.gaussian import GaussianParams, cholesky_factor
from crowdgnn.graphs import GraphConfig
from crowdgnn.model import ModelConfig, ModelParameters
from conftest import random_window


def naive_ade(pred, truth):
    total, count = 0.0, 0
    for i in range(pred.shape[0]):
        for t in range(pred.shape[1]):
            dx = pred[i, t, 0] - truth[i, t, 0]
            dy = pred[i, t, 1] - truth[i, t, 1]
            total += np.sqrt(dx * dx + dy * dy)
            count += 1
    return total / count


class TestAdeFde:
    def test_identity_zero(self, rng):
        x = rng.normal(size=(4, 12, 2))
        assert ade(x, x) == 0.0
        assert fde(x, x) == 0.0

    def test_constant_offset_345(self, rng):
        truth = rng.normal(size=(4, 12, 2))
        pred = truth + np.array([0.3, 0.4])
        assert ade(pred, truth) == pytest.approx(0.5, abs=1e-12)
        assert fde(pred, truth) == pytest.approx(0.5, abs=1e-12)

    def test_fde_final_frame_only(self, rng):
        truth = rng.normal(size=(2, 12, 2))
        pred = truth.copy()
        pred[0, -1] += [1.0, 0.0]  # one of two pedestrians, magnitude 1 at the end
        assert fde(pred, truth) == pytest.approx(0.5, abs=1e-12)
        assert ade(pred, truth) == pytest.approx(1.0 / 24, abs=1e-12)

    def test_matches_naive_oracle(self, rng):
        pred = rng.normal(size=(5, 12, 2))
        truth = rng.normal(size=(5, 12, 2))
        assert ade(pred, truth) == pytest.approx(naive_ade(pred, truth), abs=1e-12)
        # k predictions at once score as k single calls, bit for bit
        preds = truth + rng.normal(size=(7, 5, 12, 2))
        for score in (ade, fde):
            got = score(preds, truth)
            assert got.shape == (7,)
            assert np.array_equal(got, [score(p, truth) for p in preds])
        assert ade(preds, truth) == pytest.approx(
            [naive_ade(p, truth) for p in preds], abs=1e-12
        )

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            ade(rng.normal(size=(2, 12, 2)), rng.normal(size=(3, 12, 2)))
        with pytest.raises(ValueError):
            fde(rng.normal(size=(2, 12, 2)), rng.normal(size=(2, 11, 2)))


def best_of_k_oracle(window, cfg, params, k, seed, independent_min):
    """Per-sample loop: a generator, a Cholesky factor, an einsum and a
    cumsum per sample."""
    g = predict_gaussians(window, cfg, params)
    truth = window.future_positions()
    last_obs = window.positions[:, window.t_obs - 1]
    h = zlib.crc32(window.window_id.encode("utf-8"))
    ades, fdes = [], []
    for s in range(k):
        rng = np.random.default_rng(np.random.SeedSequence([seed, h, s]))
        chol = cholesky_factor(g.sigma, g.rho)
        z = rng.standard_normal(g.mu.shape)
        step = g.mu + np.einsum("...ij,...j->...i", chol, z)
        pred = last_obs[:, None, :] + np.cumsum(step, axis=1)
        ades.append(ade(pred, truth))
        fdes.append(fde(pred, truth))
    if independent_min:
        return min(ades), min(fdes)
    best = int(np.argmin(ades))
    return ades[best], fdes[best]


class TestBestOfK:
    def setup_method(self):
        self.params = ModelParameters(ModelConfig(), seed=0)
        self.cfg = GraphConfig()

    def test_k1_equals_single_sample(self, rng):
        w = random_window(rng)
        a1, f1 = best_of_k(w, self.cfg, self.params, k=1, seed=9)
        g = predict_gaussians(w, self.cfg, self.params)
        (pred,) = sample_trajectory(
            g, w.positions[:, w.t_obs - 1], sample_generators(9, w.window_id, 1)
        )
        assert a1 == ade(pred, w.future_positions())
        assert f1 == fde(pred, w.future_positions())

    @pytest.mark.parametrize("n_peds", [2, 5, 60])
    def test_bitwise_equal_to_per_sample_oracle(self, rng, n_peds):
        for seed in range(3):
            w = random_window(rng, n_peds=n_peds, scene_id=f"s{seed}")
            for k in (1, 7, 20):
                for independent_min in (False, True):
                    args = (w, self.cfg, self.params, k, seed, independent_min)
                    assert best_of_k(*args) == best_of_k_oracle(*args)

    def test_k_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            best_of_k(random_window(rng), self.cfg, self.params, k=0)

    def test_deterministic(self, rng):
        w = random_window(rng)
        assert best_of_k(w, self.cfg, self.params, k=5, seed=3) == best_of_k(
            w, self.cfg, self.params, k=5, seed=3
        )

    def test_best_of_20_beats_best_of_1_on_average(self, rng):
        w = random_window(rng)
        a20 = [best_of_k(w, self.cfg, self.params, k=20, seed=s)[0] for s in range(60)]
        a1 = [best_of_k(w, self.cfg, self.params, k=1, seed=s)[0] for s in range(60)]
        assert np.mean(a20) <= np.mean(a1)

    def test_sigma_to_zero_limit_is_mean_prediction(self, rng):
        w = random_window(rng)
        g = predict_gaussians(w, self.cfg, self.params)
        g.sigma = np.full_like(g.sigma, 1e-12)
        last = w.positions[:, w.t_obs - 1]
        mean_pred = last[:, None, :] + np.cumsum(g.mu, axis=1)
        want_ade = ade(mean_pred, w.future_positions())
        preds = sample_trajectory(
            g, last, [np.random.default_rng(s) for s in range(5)]
        )
        for p in preds:
            assert ade(p, w.future_positions()) == pytest.approx(want_ade, abs=1e-9)

    def test_fde_tied_to_ade_best_sample(self):
        """Construct samples where the ADE-best and FDE-best differ."""
        truth = np.zeros((1, 3, 2))
        # sample A: good path, bad ending; sample B: bad path, perfect ending
        sample_a = np.array([[[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]])
        sample_b = np.array([[[5.0, 0.0], [5.0, 0.0], [0.0, 0.0]]])
        ades = [ade(s, truth) for s in (sample_a, sample_b)]
        fdes = [fde(s, truth) for s in (sample_a, sample_b)]
        best = int(np.argmin(ades))
        assert best == 0
        # paired convention: report FDE of the ADE-best sample, not the min
        assert fdes[best] == 2.0
        assert min(fdes) == 0.0


class TestReport:
    def test_aggregate_is_mean(self, rng, tmp_path):
        params = ModelParameters(ModelConfig(), seed=0)
        windows = [random_window(rng, scene_id=f"s{i}") for i in range(3)]
        rep = evaluate(windows, GraphConfig(), params, k=2, seed=1)
        assert rep.ade_mean == pytest.approx(
            np.mean([m.ade for m in rep.per_window]), abs=1e-12
        )
        assert rep.fde_mean == pytest.approx(
            np.mean([m.fde for m in rep.per_window]), abs=1e-12
        )
        path = tmp_path / "report.json"
        rep.save(path)
        import json

        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["n_samples"] == 2
        assert doc["config_echo"]["graph_config"]["neighborhood"] == "view"

    def test_independent_min_never_worse(self, rng):
        params = ModelParameters(ModelConfig(), seed=0)
        w = random_window(rng)
        a_pair, f_pair = best_of_k(w, GraphConfig(), params, k=10, seed=5)
        a_ind, f_ind = best_of_k(
            w, GraphConfig(), params, k=10, seed=5, independent_min=True
        )
        assert a_ind == a_pair  # ADE is minimized either way
        assert f_ind <= f_pair
