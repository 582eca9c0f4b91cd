import tracemalloc
from collections import Counter

import numpy as np
import pytest

import crowdgnn.model as model_mod
import crowdgnn.train as train_mod
from crowdgnn.data import DatasetSplit
from crowdgnn.graphs import GraphConfig, build_graph_sequence
from crowdgnn.model import (
    CHUNK_PEDESTRIANS, KEPT_GRAPH_PEDESTRIANS, ModelConfig, ModelParameters, chunks,
    forward_raw,
)
from crowdgnn.train import (
    TrainConfig,
    TrainingDiverged,
    chunk_nll,
    evaluate_nll,
    kept_graphs,
    sgd_step,
    train,
    window_nll,
    write_history_csv,
)
from conftest import crossing_window, random_window, weighted_sum


def tiny_split(rng, n_train=4, n_val=2):
    return DatasetSplit(
        train=[random_window(rng) for _ in range(n_train)],
        val=[random_window(rng) for _ in range(n_val)],
        test=[],
        held_out_scene="none",
    )


class TestSchedule:
    def test_lr_switch(self):
        cfg = TrainConfig()
        assert cfg.lr_at(1) == 0.01
        assert cfg.lr_at(150) == 0.01
        assert cfg.lr_at(151) == 0.002
        assert cfg.lr_at(250) == 0.002

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(lr_initial=0.001, lr_after=0.01)
        with pytest.raises(ValueError):
            TrainConfig(epochs=10, lr_switch_epoch=20)
        for batch_size in (0, -1):
            with pytest.raises(ValueError, match="batch_size"):
                TrainConfig(batch_size=batch_size)
        for clip_norm in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="clip_norm"):
                TrainConfig(clip_norm=clip_norm)
        inf, nan = float("inf"), float("nan")
        for lr_initial, lr_after in ((inf, 0.002), (inf, inf), (nan, 0.002), (0.01, nan)):
            with pytest.raises(ValueError, match="require finite 0 < lr_after <= lr_initial"):
                TrainConfig(lr_initial=lr_initial, lr_after=lr_after)


class TestSgdStep:
    def setup_params(self, value, grad):
        p = ModelParameters(ModelConfig(), seed=0)
        p.theta.fill(value)
        p.grad.fill(grad)
        return p

    def test_zero_lr_noop(self):
        p = self.setup_params(1.0, 0.5)
        sgd_step(p, 0.0, TrainConfig())
        for _, v in p.items():
            assert np.all(v.data == 1.0)

    def test_basic_arithmetic(self):
        p = self.setup_params(1.0, 0.5)
        sgd_step(p, 0.01, TrainConfig())
        for _, v in p.items():
            assert np.allclose(v.data, 0.995)

    def test_global_norm_clipping(self):
        p = ModelParameters(ModelConfig(), seed=0)
        total = sum(v.data.size for _, v in p.items())
        g = 10.0 / np.sqrt(total)  # global grad norm exactly 10
        p.theta.fill(0.0)
        p.grad.fill(g)
        sgd_step(p, 1.0, TrainConfig(clip_norm=1.0))
        for _, v in p.items():
            assert np.allclose(v.data, -g / 10.0, rtol=1e-12)

    @pytest.mark.parametrize("clip", [None, 10.0, 0.1], ids=["none", "inactive", "active"])
    def test_bitwise_equal_to_per_tensor_update(self, rng, clip):
        p = ModelParameters(ModelConfig(), seed=0)
        p.grad[...] = rng.normal(size=p.grad.shape) / np.sqrt(p.grad.size)  # norm ~1
        data = {name: v.data.copy() for name, v in p.items()}
        grads = {name: v.grad.copy() for name, v in p.items()}
        total = np.linalg.norm(p.grad)
        sgd_step(p, 0.01, TrainConfig(clip_norm=clip))
        want = per_tensor_sgd_step(data, grads, 0.01, clip)
        assert clip is None or (total > clip) == (clip < 1.0)  # "active" clips
        for name, v in p.items():
            assert v.data.tobytes() == want[name].tobytes(), name


def per_tensor_sgd_step(data: dict, grads: dict, lr: float, clip_norm) -> dict:
    """The update one tensor at a time, clipped by the norm summed per tensor
    in table order: the oracle for the one-vector `sgd_step`."""
    if clip_norm is not None:
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if total > clip_norm:
            scale = clip_norm / total
            grads = {name: g * scale for name, g in grads.items()}
    return {name: data[name] - lr * grads[name] for name in data}


class TestTrainLoop:
    def test_history_and_determinism(self, rng):
        split = tiny_split(rng)
        cfg = TrainConfig(epochs=3, batch_size=2, lr_switch_epoch=2, seed=11)
        gc = GraphConfig()
        _, hist_a = train(split, gc, cfg)
        _, hist_b = train(split, gc, cfg)
        assert len(hist_a) == 3
        for a, b in zip(hist_a, hist_b):
            assert a.train_nll == b.train_nll  # bit-for-bit
            assert a.val_nll == b.val_nll
            assert a.lr == b.lr

    @pytest.mark.parametrize("seed", [1 / 33, 1 / 128])
    def test_backward_seed_equals_scaled_loss(self, rng, seed):
        # the 1/B batch weight enters as the root gradient, not as a product
        w = random_window(rng, n_peds=4)
        grads = []
        for scaled in (False, True):
            p = ModelParameters(ModelConfig(), seed=3)
            if scaled:
                weighted_sum(window_nll(w, GraphConfig(), p), seed).backward()
            else:
                window_nll(w, GraphConfig(), p).backward(seed)
            grads.append({name: v.grad for name, v in p.items()})
        for name, g in grads[0].items():
            assert np.array_equal(g, grads[1][name]), name

    def test_reported_train_nll_is_the_nll(self):
        # one batch of 3 windows: the report is the mean of the window NLLs at
        # the initial parameters; (nll / 3) * 3 differs from it in the last
        # bit for some of these splits
        cfg = TrainConfig(epochs=1, batch_size=3, lr_switch_epoch=1, seed=4)
        order = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1])).permutation(3)
        p = ModelParameters(ModelConfig(), seed=cfg.seed)
        for split_seed in range(10):
            split = tiny_split(np.random.default_rng(split_seed), n_train=3, n_val=1)
            _, hist = train(split, GraphConfig(), cfg)
            # the 3 windows form one chunk, which yields their NLLs
            _, nlls = chunk_nll([split.train[i] for i in order], GraphConfig(), p)
            assert hist[0].train_nll == float(np.mean(nlls)), split_seed

    def test_empty_train_rejected(self):
        split = DatasetSplit(train=[], val=[], test=[], held_out_scene="x")
        with pytest.raises(ValueError):
            train(split, GraphConfig(), TrainConfig(epochs=1, lr_switch_epoch=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_nonfinite_loss_aborts_with_location(self, rng):
        split = tiny_split(rng, n_train=2, n_val=0)
        # a parameter blowup via absurd learning rate triggers the diagnostic
        cfg = TrainConfig(
            epochs=50, batch_size=1, lr_initial=1e6, lr_after=1e6,
            lr_switch_epoch=1, seed=0,
        )
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(split, GraphConfig(), cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    @pytest.mark.parametrize(
        "scales, named",
        # inf makes the raw output non-finite, so constrain raises; 1e150
        # keeps it finite and overflows the NLL; with both in one chunk the
        # first in batch order is named
        [((1, np.inf, 1), 1), ((1, 1e150, 1), 1), ((1e150, np.inf, 1), 0)],
        ids=["raw-nonfinite", "nll-nonfinite", "first-of-two"],
    )
    def test_divergence_inside_a_chunk_names_the_window(self, scales, named):
        cfg = TrainConfig(epochs=1, batch_size=3, lr_switch_epoch=1, seed=4)
        order = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1])).permutation(3)
        split = tiny_split(np.random.default_rng(0), n_train=3, n_val=0)
        for i, w in enumerate(split.train):
            w.scene_id = f"s{i}"
        batch = [split.train[i] for i in order]
        for w, scale in zip(batch, scales):
            w.positions = w.positions * scale
            w.displacements = w.displacements * scale
        p = ModelParameters(ModelConfig(), seed=cfg.seed)
        raw = [forward_raw(w, GraphConfig(), p).data for w in batch]
        for r, scale in zip(raw, scales):
            assert np.all(np.isfinite(r)) == (scale != np.inf)
        assert len(list(chunks(batch))) == 1
        with pytest.raises(TrainingDiverged) as info:
            train(split, GraphConfig(), cfg)
        msg = str(info.value)
        want = batch[named].window_id
        assert msg.startswith(f"non-finite loss at epoch 1, window {want}"), msg
        assert ("non-finite raw Gaussian parameters" in msg) == (scales[named] == np.inf)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    @pytest.mark.parametrize("scale", [1e150, np.inf])
    def test_nonfinite_val_loss_aborts(self, rng, tmp_path, scale):
        split = tiny_split(rng, n_train=2, n_val=2)
        bad = split.val[1]
        bad.positions = bad.positions * scale
        bad.displacements = bad.displacements * scale
        cfg = TrainConfig(epochs=2, batch_size=2, lr_switch_epoch=1, seed=0)
        with pytest.raises(TrainingDiverged, match="validation loss at epoch 1"):
            train(split, GraphConfig(), cfg, ckpt_path=tmp_path / "m.ckpt")
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_nonfinite_val_nll_names_the_window(self, rng):
        # a finite raw output whose NLL overflows, in validation as in training
        split = tiny_split(rng, n_train=2, n_val=3)
        bad = split.val[1]
        bad.scene_id = "bad"
        bad.positions = bad.positions * 1e150
        bad.displacements = bad.displacements * 1e150
        with pytest.raises(ValueError, match="^window bad:0: non-finite NLL$"):
            chunk_nll(split.val, GraphConfig(), ModelParameters(ModelConfig()))
        cfg = TrainConfig(epochs=2, batch_size=2, lr_switch_epoch=1, seed=0)
        with pytest.raises(TrainingDiverged) as info:
            train(split, GraphConfig(), cfg)
        assert str(info.value) == ("non-finite validation loss at epoch 1: "
                                   "window bad:0: non-finite NLL")

    def test_single_window_overfit(self):
        w = crossing_window()
        split = DatasetSplit(train=[w], val=[], test=[], held_out_scene="x")
        cfg = TrainConfig(
            epochs=500, batch_size=1, lr_initial=0.1, lr_after=0.02,
            lr_switch_epoch=300, seed=0, clip_norm=1.0,
        )
        params, hist = train(split, GraphConfig(), cfg)
        assert hist[0].train_nll - hist[-1].train_nll >= 2.0

    def test_checkpoint_roundtrip_val_nll(self, tmp_path, rng):
        split = tiny_split(rng)
        cfg = TrainConfig(epochs=2, batch_size=4, lr_switch_epoch=1, seed=1)
        gc = GraphConfig()
        path = tmp_path / "best.ckpt"
        params, _ = train(split, gc, cfg, ckpt_path=path)
        back, extra = ModelParameters.load(path)
        a = evaluate_nll(split.val, gc, params)
        b = evaluate_nll(split.val, gc, back)
        assert abs(a - b) <= 1e-12
        assert extra["graph_config"] == gc.to_dict()

    def test_epoch_visits_every_window_once(self, rng, monkeypatch):
        split = tiny_split(rng, n_train=5, n_val=0)
        seen = []
        import crowdgnn.train as train_mod

        real = train_mod.chunk_nll

        def spy(windows, graph_cfg, params, kept=None):
            seen.extend(w.window_id for w in windows)
            return real(windows, graph_cfg, params, kept)

        monkeypatch.setattr(train_mod, "chunk_nll", spy)
        # window ids collide (same scene/start); tag them unique first
        for i, w in enumerate(split.train):
            w.scene_id = f"s{i}"
        cfg = TrainConfig(epochs=2, batch_size=2, lr_switch_epoch=1, seed=2)
        train(split, GraphConfig(), cfg)
        per_epoch = len(split.train)
        for e in range(2):
            chunk = seen[e * per_epoch : (e + 1) * per_epoch]
            assert sorted(chunk) == sorted(w.window_id for w in split.train)


class TestChunks:
    # ragged sizes in batch order: 64 fills the chunk cap exactly, and so do
    # the last four together; 40 and 34 are above the graph cap and share a
    # chunk with smaller windows; 90 and 200 are above the chunk cap
    SIZES = [5, 2, 64, 17, 2, 40, 90, 200, 3, 20, 7, 34]

    def test_cut_in_batch_order(self, rng):
        assert (CHUNK_PEDESTRIANS, KEPT_GRAPH_PEDESTRIANS) == (64, 32)
        batch = [random_window(rng, n_peds=n) for n in self.SIZES]
        cut = [[w.n_peds for w in c] for c in chunks(batch)]
        assert cut == [[5, 2], [64], [17, 2, 40], [90], [200], [3, 20, 7, 34]]
        assert [[w.n_peds for w in c] for c in chunks(batch[:1])] == [[5]]

    @pytest.mark.parametrize(
        "graph", [GraphConfig(), GraphConfig(neighborhood="view-approach", kernel="exp")],
        ids=["view-inv", "view-approach-exp"],
    )
    @pytest.mark.parametrize("cap", [CHUNK_PEDESTRIANS, 200])
    @pytest.mark.parametrize("size", [len(SIZES), 1])
    def test_chunk_grads_equal_one_window_chunks(self, graph, cap, size):
        rng = np.random.default_rng(size + cap)
        batch = [random_window(rng, n_peds=n) for n in self.SIZES[:size]]
        seed = 1.0 / len(batch)
        # oracle: each window as its own one-window chunk, gradients accumulated
        want = ModelParameters(ModelConfig(), seed=5)
        want_nlls = []
        for w in batch:
            loss = window_nll(w, graph, want)
            want_nlls.append(float(loss.data))
            loss.backward(seed)
        # chunks as train() runs them: kept graphs up to the graph cap, and
        # the other windows' graphs built by their chunk's forward
        kept = kept_graphs(batch, graph)
        got = ModelParameters(ModelConfig(), seed=5)
        got_nlls = []
        n_chunks = 0
        for chunk in chunks(batch, cap):
            loss, nlls = chunk_nll(chunk, graph, got, kept)
            want_loss = sum(want_nlls[len(got_nlls) : len(got_nlls) + len(chunk)])
            assert abs(float(loss.data) - want_loss) <= 1e-12 * abs(want_loss)
            got_nlls.extend(nlls)
            loss.backward(seed)
            n_chunks += 1
        assert n_chunks < len(batch) or size == 1
        np.testing.assert_allclose(got_nlls, want_nlls, rtol=1e-12, atol=0)
        for name, v in want.items():
            err = np.max(np.abs(got[name].grad - v.grad))
            assert err <= 1e-12 * np.max(np.abs(v.grad)), (name, err)

    @pytest.mark.parametrize(
        "graph", [GraphConfig(), GraphConfig(neighborhood="view-approach", kernel="exp")],
        ids=["view-inv", "view-approach-exp"],
    )
    def test_mixed_chunk_builds_the_large_graph_per_forward(self, monkeypatch, graph):
        # 40 is above the graph cap and within the chunk cap: it shares one
        # chunk with kept-graph windows, and each forward builds its graph
        rng = np.random.default_rng(11)
        batch = [random_window(rng, n_peds=n) for n in (5, 40, 12)]
        assert KEPT_GRAPH_PEDESTRIANS < 40 <= CHUNK_PEDESTRIANS
        assert len(list(chunks(batch))) == 1
        kept = kept_graphs(batch, graph)
        assert set(kept) == {batch[0], batch[2]}
        want = ModelParameters(ModelConfig(), seed=2)
        want_loss = 0.0
        for w in batch:
            loss = window_nll(w, graph, want)
            want_loss += float(loss.data)
            loss.backward(1.0 / 3)
        built = []
        build = model_mod.build_graph_sequence

        def spy(window, cfg):
            built.append(window.n_peds)
            return build(window, cfg)

        monkeypatch.setattr(model_mod, "build_graph_sequence", spy)
        got = ModelParameters(ModelConfig(), seed=2)
        for forwards in (1, 2):
            loss, _ = chunk_nll(batch, graph, got, kept)
            assert built == [40] * forwards
        assert abs(float(loss.data) - want_loss) <= 1e-12 * abs(want_loss)
        loss.backward(1.0 / 3)
        for name, v in want.items():
            err = np.max(np.abs(got[name].grad - v.grad))
            assert err <= 1e-12 * np.max(np.abs(v.grad)), (name, err)

    # model.py: a chunk's tape holds about 9.0 kB per stacked row, and train()
    # keeps two alive at once. A chunk of 64 pedestrians stacks at most 95
    # rows (32 two-pedestrian windows and their 31 gap rows), so two such
    # tapes take 1.71 MB; the bound leaves 20% over that for the temporaries
    # of one forward and backward, a graph built per forward among them. It
    # is fixed, not scaled by the cap: a larger cap fails here until its
    # memory is measured and this bound re-derived
    PEAK_BYTES = int(1.2 * 2 * 95 * 9.0e3)

    @pytest.mark.parametrize("sizes", [[2] * CHUNK_PEDESTRIANS, [CHUNK_PEDESTRIANS] * 2],
                             ids=["most-rows", "largest-graph"])
    def test_two_full_chunks_peak_under_bound(self, sizes):
        rng = np.random.default_rng(9)
        batch = [random_window(rng, n_peds=n) for n in sizes]
        graph = GraphConfig(neighborhood="view-approach", kernel="exp")
        cut = list(chunks(batch))
        assert [sum(w.n_peds for w in c) for c in cut] == [CHUNK_PEDESTRIANS] * 2
        params = ModelParameters(ModelConfig(), seed=0)
        kept = kept_graphs(batch, graph)
        tracemalloc.start()
        try:
            # as in train(): each chunk's loss keeps its tape alive through
            # the next chunk's forward
            for chunk in cut:
                loss, _ = chunk_nll(chunk, graph, params, kept)
                loss.backward(1.0 / len(batch))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_BYTES, peak


class TestKeptGraphs:
    # train and validation windows on both sides of the graph cap, 32 exactly
    # on it; in batches of 4 under the chunk cap, 33 and 40 share chunks with
    # smaller windows
    TRAIN_SIZES = [3, 32, 33, 5, 40, 2]
    VAL_SIZES = [2, 33]
    CFG = TrainConfig(epochs=3, batch_size=4, lr_switch_epoch=2, seed=1)
    GRAPH = GraphConfig(neighborhood="view-approach", kernel="exp")

    def split(self):
        rng = np.random.default_rng(8)
        return DatasetSplit(
            train=[random_window(rng, n_peds=n) for n in self.TRAIN_SIZES],
            val=[random_window(rng, n_peds=n) for n in self.VAL_SIZES],
            test=[], held_out_scene="none",
        )

    def test_builds_per_train_call(self, monkeypatch):
        built = Counter()
        graphs = {}

        def spy(window, cfg):
            built[id(window)] += 1
            graphs[id(window)] = build_graph_sequence(window, cfg)
            return graphs[id(window)]

        monkeypatch.setattr(train_mod, "build_graph_sequence", spy)
        monkeypatch.setattr(model_mod, "build_graph_sequence", spy)
        split = self.split()
        # a second call builds again: the kept graphs go when train() returns
        for _ in range(2):
            built.clear()
            train(split, self.GRAPH, self.CFG)
            for w in split.train + split.val:
                # each window runs one forward per epoch
                want = 1 if w.n_peds <= KEPT_GRAPH_PEDESTRIANS else self.CFG.epochs
                assert built[id(w)] == want, w.n_peds
        for w in split.train + split.val:
            a = graphs[id(w)]
            assert a.flags.writeable == (w.n_peds > KEPT_GRAPH_PEDESTRIANS), w.n_peds
            if w.n_peds <= KEPT_GRAPH_PEDESTRIANS:
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 0, 0] = 1.0

    def test_bitwise_equal_to_building_every_forward(self, monkeypatch):
        split = self.split()
        sizes = []
        real = train_mod.chunk_nll

        def spy(windows, *args):
            sizes.append([w.n_peds for w in windows])
            return real(windows, *args)

        monkeypatch.setattr(train_mod, "chunk_nll", spy)
        params, history = train(split, self.GRAPH, self.CFG)
        # some training chunk mixes a graph built per forward with kept ones
        assert any(len(c) > 1 and max(c) > KEPT_GRAPH_PEDESTRIANS for c in sizes)
        # no kept graphs: every forward builds its windows' graphs
        monkeypatch.setattr(train_mod, "kept_graphs", lambda windows, cfg: {})
        want_params, want_history = train(split, self.GRAPH, self.CFG)
        assert history == want_history
        for name, v in want_params.items():
            assert np.array_equal(params[name].data, v.data), name


def test_history_csv(tmp_path, rng):
    split = tiny_split(rng, n_train=2, n_val=1)
    cfg = TrainConfig(epochs=2, batch_size=2, lr_switch_epoch=1, seed=0)
    _, hist = train(split, GraphConfig(), cfg)
    path = tmp_path / "hist.csv"
    write_history_csv(path, hist)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_nll,val_nll,lr"
    assert len(lines) == 3
