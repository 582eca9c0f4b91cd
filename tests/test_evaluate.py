import warnings
import zlib

import numpy as np
import pytest

import crowdgnn.evaluate as evaluate_mod
from crowdgnn.data import TrajectoryWindow
from crowdgnn.evaluate import (
    MetricsReport,
    PredictionDiverged,
    ade,
    best_of_k,
    evaluate,
    fde,
    predict_gaussians,
    sample_generators,
    sample_trajectory,
)
from crowdgnn.gaussian import GaussianParams
from crowdgnn.graphs import GraphConfig
from crowdgnn.model import CHUNK_PEDESTRIANS, ModelConfig, ModelParameters, chunks
from conftest import cholesky_factor, random_window


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


class TestSampleGenerators:
    @pytest.mark.parametrize("k", [0, 1, 20, 64])
    @pytest.mark.parametrize("window_id", ["", "zara01:120", "ünïcode:ß→7"])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
    def test_streams_equal_seed_sequence_oracle(self, seed, window_id, k):
        h = zlib.crc32(window_id.encode("utf-8"))
        got = sample_generators(seed, window_id, k)
        assert len(got) == k
        for s, gen in enumerate(got):
            want = np.random.default_rng(np.random.SeedSequence([seed, h, s]))
            assert gen.bit_generator.state == want.bit_generator.state, s
            assert np.array_equal(gen.standard_normal(9), want.standard_normal(9))
            assert np.array_equal(gen.integers(0, 2**62, 3), want.integers(0, 2**62, 3))

    @pytest.mark.parametrize("seed", [-1, -(2**32)])
    def test_negative_seed_rejected(self, seed):
        # splitting a negative seed into 32-bit words would give another
        # seed's stream
        with pytest.raises(ValueError, match="seed must be >= 0"):
            sample_generators(seed, "w:0", 3)


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

    @pytest.mark.parametrize("n_peds", [2, 5, 60, 200])
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


def spike_window(rng, scene_id):
    """A window whose forward overflows under seed-0 parameters: one
    pedestrian's observed steps of +-1.7e308, a finite input, make the
    layers' sums infinite."""
    w = random_window(rng, scene_id=scene_id)
    pos = w.positions.copy()
    pos[0, 3] = 1.7e308
    return TrajectoryWindow(scene_id, 0, pos, 8, 12)


class TestChunkedEvaluate:
    # ragged, in evaluation order: 64 fills a chunk exactly, 65 and 200 are
    # above the chunk cap and run alone, the rest stack (40 among them,
    # above the graph cap)
    SIZES = [2, 5, 64, 3, 17, 40, 65, 2, 200, 7, 4]

    @pytest.mark.parametrize("independent_min", [False, True])
    @pytest.mark.parametrize(
        "graph", [GraphConfig(), GraphConfig(neighborhood="view-approach", kernel="exp")],
        ids=["view-inv", "view-approach-exp"],
    )
    def test_equals_best_of_k_per_window(self, monkeypatch, graph, independent_min):
        rng = np.random.default_rng(3)
        windows = [random_window(rng, n_peds=n, scene_id=f"w{i}")
                   for i, n in enumerate(self.SIZES)]
        params = ModelParameters(ModelConfig(), seed=4)
        forwards = []
        forward_chunk = evaluate_mod.forward_chunk

        def spy(chunk, *args):
            forwards.append([w.n_peds for w in chunk])
            return forward_chunk(chunk, *args)

        monkeypatch.setattr(evaluate_mod, "forward_chunk", spy)
        rep = evaluate(windows, graph, params, k=20, seed=6,
                       independent_min=independent_min)
        assert forwards == [[w.n_peds for w in c] for c in chunks(windows)]
        assert forwards == [[2, 5], [64], [3, 17, 40], [65], [2], [200], [7, 4]]
        assert CHUNK_PEDESTRIANS == 64
        assert [m.window_id for m in rep.per_window] == [w.window_id for w in windows]
        for w, m in zip(windows, rep.per_window):
            a, f = best_of_k(w, graph, params, k=20, seed=6,
                             independent_min=independent_min)
            assert m.ade == pytest.approx(a, rel=1e-12, abs=0), w.n_peds
            assert m.fde == pytest.approx(f, rel=1e-12, abs=0), w.n_peds

    def test_overflow_names_second_window_of_chunk(self):
        rng = np.random.default_rng(5)
        windows = [random_window(rng, scene_id="first"), spike_window(rng, "spike"),
                   random_window(rng, scene_id="third")]
        assert len(list(chunks(windows))) == 1
        params = ModelParameters(ModelConfig(), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow
            with pytest.raises(PredictionDiverged, match="window spike:0: non-finite"):
                evaluate(windows, GraphConfig(), params, k=3)
            # alone, the first and third windows evaluate
            evaluate(windows[::2], GraphConfig(), params, k=3)

    def test_k_checked_before_any_forward(self, monkeypatch, rng):
        def forward_chunk(*args):
            raise AssertionError("forward ran")

        monkeypatch.setattr(evaluate_mod, "forward_chunk", forward_chunk)
        params = ModelParameters(ModelConfig(), seed=0)
        for k in (0, -3):
            with pytest.raises(ValueError, match="k must be >= 1"):
                evaluate([random_window(rng)], GraphConfig(), params, k=k)

    def test_no_windows_nan_means(self):
        rep = evaluate([], GraphConfig(), ModelParameters(ModelConfig(), seed=0), k=2)
        assert rep.per_window == []
        assert np.isnan(rep.ade_mean) and np.isnan(rep.fde_mean)
