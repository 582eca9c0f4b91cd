import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import crowdgnn.model as model_mod

from crowdgnn.autodiff import Var
from crowdgnn.data import DatasetSplit, TrajectoryWindow
from crowdgnn.graphs import GraphConfig
from crowdgnn.model import (
    CHECKPOINT_MAGIC,
    GAUSSIAN_CHANNELS,
    IN_FEATURES,
    STGCN_TEMPORAL_KERNEL,
    TXP_KERNEL,
    TXP_LAYERS,
    ModelConfig,
    ModelParameters,
    _columns,
    _plane_conv,
    _plane_conv_backward,
    forward_chunk,
    forward_raw,
    st_gcn_forward,
    txp_forward,
)
from crowdgnn.train import TrainConfig, chunk_nll, sgd_step, train, window_nll
from conftest import input_node, random_window, weighted_sum


def small_params():
    return ModelParameters(ModelConfig(), seed=0)


def zero_params() -> ModelParameters:
    p = small_params()
    p.theta.fill(0.0)
    return p


# ---- independent loop oracles for the ST-GCN forward and backward -----------


def stgcn_mix_oracle(v, normalized, p: ModelParameters):
    """Graph mixing before the PReLU: normalized @ (v @ w_spatial + b_spatial)."""
    t_obs, n, c_in = v.shape
    c = GAUSSIAN_CHANNELS
    ws = p["stgcn.w_spatial"].data
    bs = p["stgcn.b_spatial"].data
    pre = np.zeros((t_obs, n, c))
    for t in range(t_obs):
        for i in range(n):
            for co in range(c):
                acc = 0.0
                for j in range(n):
                    inner = bs[co]
                    for ci in range(c_in):
                        inner += v[t, j, ci] * ws[ci, co]
                    acc += normalized[t, i, j] * inner
                pre[t, i, co] = acc
    return pre


def stgcn_oracle(v, normalized, p: ModelParameters):
    t_obs, n, c_in = v.shape
    c = GAUSSIAN_CHANNELS
    pre = stgcn_mix_oracle(v, normalized, p)
    slope = float(p["stgcn.prelu"].data)
    act = np.where(pre > 0, pre, slope * pre)
    wt = p["stgcn.w_temporal"].data
    bt = p["stgcn.b_temporal"].data
    k = wt.shape[0]
    pad = k // 2
    out = np.zeros_like(act)
    for t in range(t_obs):
        for i in range(n):
            for co in range(c):
                acc = bt[co]
                for dk in range(k):
                    src = t + dk - pad
                    if 0 <= src < t_obs:
                        for ci in range(c):
                            acc += act[src, i, ci] * wt[dk, ci, co]
                out[t, i, co] = acc
    wr = p["stgcn.w_residual"].data
    br = p["stgcn.b_residual"].data
    for t in range(t_obs):
        for i in range(n):
            for co in range(c):
                acc = br[co]
                for ci in range(c_in):
                    acc += v[t, i, ci] * wr[ci, co]
                out[t, i, co] += acc
    return out


def stgcn_vjp_oracle(v, normalized, p: ModelParameters, u) -> dict:
    """Gradients of sum(st_gcn_forward(v, normalized) * u) per stgcn.* tensor."""
    t_obs, n, c_in = v.shape
    c = GAUSSIAN_CHANNELS
    pre = stgcn_mix_oracle(v, normalized, p)
    slope = float(p["stgcn.prelu"].data)
    act = np.where(pre > 0, pre, slope * pre)
    wt = p["stgcn.w_temporal"].data
    k = wt.shape[0]
    pad = k // 2
    grads = {name: np.zeros_like(p[name].data) for name in (
        "stgcn.w_spatial", "stgcn.b_spatial", "stgcn.w_temporal", "stgcn.b_temporal",
        "stgcn.w_residual", "stgcn.b_residual", "stgcn.prelu")}
    gact = np.zeros((t_obs, n, c))
    for t in range(t_obs):
        for i in range(n):
            for co in range(c):
                g = u[t, i, co]
                grads["stgcn.b_temporal"][co] += g
                grads["stgcn.b_residual"][co] += g
                for ci in range(c_in):
                    grads["stgcn.w_residual"][ci, co] += v[t, i, ci] * g
                for dk in range(k):
                    src = t + dk - pad
                    if 0 <= src < t_obs:
                        for ci in range(c):
                            grads["stgcn.w_temporal"][dk, ci, co] += act[src, i, ci] * g
                            gact[src, i, ci] += wt[dk, ci, co] * g
    gpre = np.zeros_like(gact)
    for t in range(t_obs):
        for i in range(n):
            for ci in range(c):
                if pre[t, i, ci] > 0:
                    gpre[t, i, ci] = gact[t, i, ci]
                else:
                    gpre[t, i, ci] = slope * gact[t, i, ci]
                    grads["stgcn.prelu"][()] += pre[t, i, ci] * gact[t, i, ci]
    for t in range(t_obs):
        for i in range(n):
            for j in range(n):
                for co in range(c):
                    g = normalized[t, i, j] * gpre[t, i, co]
                    grads["stgcn.b_spatial"][co] += g
                    for ci in range(c_in):
                        grads["stgcn.w_spatial"][ci, co] += v[t, j, ci] * g
    return grads


# ---- per-tap numpy loops: oracle for the fused im2col plane conv ------------


def plane_conv_oracle(x, w, b, u):
    """Output and the gradients of sum(out * u) for x, w, b.

    The forward gathers a shifted slice per (dn, df) tap; the input and
    weight gradients scatter back per tap.
    """
    c_out, c_in, k, _ = w.shape
    pad = k // 2
    _, n, f = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((c_out, n * f))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    u2 = u.reshape(c_out, n * f)
    for dn in range(k):
        for df in range(k):
            patch = xp[:, dn : dn + n, df : df + f].reshape(c_in, n * f)
            out += w[:, :, dn, df] @ patch
            gw[:, :, dn, df] = u2 @ patch.T
            gxp[:, dn : dn + n, df : df + f] += (w[:, :, dn, df].T @ u2).reshape(c_in, n, f)
    out = out.reshape(c_out, n, f) + b[:, None, None]
    return out, gxp[:, pad : pad + n, pad : pad + f], gw, u.sum(axis=(1, 2))


def assert_rel_close(got, want, rel=1e-12):
    scale = np.max(np.abs(want))
    assert scale > 0
    assert np.max(np.abs(got - want)) <= rel * scale


@pytest.mark.parametrize("n", [1, 2, 5, 200], ids="plane-{}".format)  # N=1 < kernel
def test_fused_conv_matches_per_offset_oracle(rng, n):
    x, w, b = rng.normal(size=(8, n, 5)), rng.normal(size=(12, 8, 3, 3)), rng.normal(size=12)
    u = rng.normal(size=(12, n, 5))
    xl, ul = x.transpose(1, 2, 0), u.transpose(1, 2, 0)  # channels-last [N, F, C]
    out = _plane_conv(xl, w, b)
    gx, gw, gb = _plane_conv_backward(ul.copy(), xl, w)
    fused = (out.transpose(2, 0, 1), gx.transpose(2, 0, 1), gw, gb)
    for got, want in zip(fused, plane_conv_oracle(x, w, b, u)):
        assert got.shape == want.shape
        assert_rel_close(got, want)


def txp_vjp_oracle(h, p: ModelParameters, u, gaps=()):
    """Output of the TXP stack and the gradients of sum(out * u) for h
    and the txp.* parameters, composed from `plane_conv_oracle` with NumPy
    PReLUs and residual sums. Gap rows of each conv's output are zero and
    pass no gradient."""

    def conv(x, name, up):
        up = up.copy()
        up[:, gaps] = 0.0
        w, b = p[name + ".w"].data, p[name + ".b"].data
        out, gx, gw, gb = plane_conv_oracle(x, w, b, up)
        out[:, gaps] = 0.0
        return out, gx, gw, gb

    ins, pres = [], []
    x = h
    for i in range(TXP_LAYERS):
        ins.append(x)
        pre = conv(x, f"txp.{i}", np.zeros((len(p[f"txp.{i}.b"].data),) + x.shape[1:]))[0]
        pres.append(pre)
        act = np.where(pre > 0, pre, p[f"txp.{i}.prelu"].data * pre)
        x = act if i == 0 else act + x
    grads = {}
    out, gx, grads["txp.out.w"], grads["txp.out.b"] = conv(x, "txp.out", u)
    for i in reversed(range(TXP_LAYERS)):
        pre, slope = pres[i], p[f"txp.{i}.prelu"].data
        grads[f"txp.{i}.prelu"] = np.sum(gx * np.where(pre > 0, 0.0, pre))
        gpre = gx * np.where(pre > 0, 1.0, slope)
        _, gin, grads[f"txp.{i}.w"], grads[f"txp.{i}.b"] = conv(ins[i], f"txp.{i}", gpre)
        gx = gin if i == 0 else gx + gin
    grads["h"] = gx
    return out, grads


@pytest.mark.parametrize(
    "n, gaps",
    [(1, []), (2, []), (5, []), (30, []), (5 + 2 + 17 + 2, [5, 8])],
    ids=["txp-1", "txp-2", "txp-5", "txp-30", "txp-chunk"],
)
def test_txp_backward_matches_oracle(rng, n, gaps):
    # the last case is a stacked chunk of 5, 2 and 17 pedestrians
    p = small_params()
    x = rng.normal(size=(8, n, GAUSSIAN_CHANNELS))
    x[:, gaps] = 0.0  # as the ST-GCN layer leaves them
    u = rng.normal(size=(12, n, GAUSSIAN_CHANNELS))
    h, grads = input_node(x.copy())
    out = txp_forward(h, p, gaps)
    weighted_sum(out, u).backward()
    want_out, want = txp_vjp_oracle(x, p, u, gaps)
    assert_rel_close(out.data, want_out)
    assert_rel_close(grads[0], want.pop("h"))
    assert grads[0].flags.c_contiguous  # the ST-GCN backward sums in memory order
    assert sorted(want) == sorted(name for name, _ in p.items() if name.startswith("txp."))
    assert len(want) == 17
    for name, g in want.items():
        assert p[name].grad.shape == g.shape
        assert_rel_close(p[name].grad, g)
    assert all(not t.grad.any() for name, t in p.items() if name.startswith("stgcn."))


@pytest.mark.parametrize("n", [1, 2, 5, 24])
def test_stgcn_backward_matches_loop_oracle(rng, n):
    p = small_params()
    v = rng.normal(size=(8, n, IN_FEATURES))
    normalized = rng.normal(size=(8, n, n))  # asymmetric: the transpose matters
    u = rng.normal(size=(8, n, GAUSSIAN_CHANNELS))
    out = st_gcn_forward(v, normalized, p)
    assert_rel_close(out.data, stgcn_oracle(v, normalized, p))
    weighted_sum(out, u).backward()
    for name, want in stgcn_vjp_oracle(v, normalized, p, u).items():
        assert p[name].grad.shape == want.shape
        assert_rel_close(p[name].grad, want)
    assert all(not t.grad.any() for name, t in p.items() if name.startswith("txp."))


def columns_oracle(x, kh, kw):
    """`_columns` from sliding_window_view: [H*W, kh*kw*C], column (dh, dw, c)."""
    h, wd, c = x.shape
    xp = np.zeros((h + kh - 1, wd + kw - 1, c))
    xp[kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + wd] = x
    cols = sliding_window_view(xp, (kh, kw), axis=(0, 1))  # [H, W, C, kh, kw]
    return cols.transpose(0, 1, 3, 4, 2).reshape(h * wd, kh * kw * c)


def assert_columns_exact(x, kh, kw):
    got, want = _columns(x, kh, kw), columns_oracle(x, kh, kw)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    return got


@pytest.mark.parametrize("n", [1, 2, 5, 33, 200])
def test_columns_bitwise_equal_oracle(rng, n):
    t_obs, t_pred, c, k = 8, 12, GAUSSIAN_CHANNELS, TXP_KERNEL
    # the TXP plane convs: [N, F, T] with time as channels, k x k kernels; the
    # first one reads a transposed view of the ST-GCN's [T, N, F] output
    assert_columns_exact(rng.normal(size=(t_obs, n, c)).transpose(1, 2, 0), k, k)
    assert_columns_exact(rng.normal(size=(n, c, t_pred)), k, k)
    # the ST-GCN temporal conv: [T, N, C] with a K x 1 kernel
    assert_columns_exact(rng.normal(size=(t_obs, n, c)), STGCN_TEMPORAL_KERNEL, 1)


@given(
    st.integers(1, 9), st.integers(1, 9), st.integers(1, 6),
    st.sampled_from([1, 3, 5]), st.sampled_from([1, 3, 5]), st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_columns_bitwise_equal_oracle_any_shape(h, w, c, kh, kw, seed):
    x = np.random.default_rng(seed).normal(size=(h, w, c))
    assert_columns_exact(x, kh, kw)


def test_columns_bitwise_equal_oracle_in_a_stacked_chunk(rng, monkeypatch):
    # every im2col of a chunk's forward and backward, gap rows included
    calls = []

    def checked(x, kh, kw):
        calls.append((x.shape, kh, kw))
        return assert_columns_exact(x, kh, kw)

    monkeypatch.setattr(model_mod, "_columns", checked)
    chunk = [random_window(rng, n_peds=n) for n in (5, 2, 17)]
    loss, _ = chunk_nll(chunk, GraphConfig(), small_params())
    loss.backward()
    rows = 5 + 2 + 17 + 2  # two gap rows
    kt, k = STGCN_TEMPORAL_KERNEL, TXP_KERNEL
    stgcn = ((8, rows, GAUSSIAN_CHANNELS), kt, 1)
    # the ST-GCN: forward, then the input gradient (its weight gradient reuses
    # the forward's columns); each TXP conv: forward, then in the backward the
    # input gradient's columns and the weight gradient's rebuilt ones
    assert calls[0] == stgcn and calls[-1] == stgcn
    txp = calls[1:-1]
    assert len(txp) == 3 * (TXP_LAYERS + 1)
    assert all(x_shape[:2] == (rows, GAUSSIAN_CHANNELS) and (kh, kw) == (k, k)
               for x_shape, kh, kw in txp)


def test_forward_tape_size(rng, monkeypatch):
    # one node per layer: the ST-GCN layer and the TXP stack are single ops
    created = 0
    init = Var.__init__

    def counting_init(var, *args, **kwargs):
        nonlocal created
        created += 1
        init(var, *args, **kwargs)

    w = random_window(rng, n_peds=4)
    monkeypatch.setattr(Var, "__init__", counting_init)
    p = small_params()
    assert created == 0  # parameters are not tape nodes
    forward_raw(w, GraphConfig(), p)
    assert created == 2
    # the Gaussian head adds one node: constrain + NLL + mean are one op, and
    # the 1/B batch weight is the backward seed, so this is a trained window
    created = 0
    window_nll(w, GraphConfig(), p)
    assert created == 3
    # a chunk of 3 stacked windows records the same nodes as one window
    chunk = [w, random_window(rng, n_peds=2), random_window(rng, n_peds=7)]
    created = 0
    forward_chunk(chunk, GraphConfig(), p)
    assert created == 2
    created = 0
    chunk_nll(chunk, GraphConfig(), p)
    assert created == 3


class TestStGcn:
    def test_identity_passthrough_single_node(self):
        p = zero_params()  # residual weights and all biases zero
        p["stgcn.w_spatial"].data[...] = np.eye(IN_FEATURES, GAUSSIAN_CHANNELS)
        p["stgcn.w_temporal"].data[1] = np.eye(GAUSSIAN_CHANNELS)  # center tap only
        p["stgcn.prelu"].data[...] = 1.0
        v = np.random.default_rng(0).normal(size=(8, 1, IN_FEATURES))
        normalized = np.ones((8, 1, 1))  # self-loop identity normalization
        out = st_gcn_forward(v, normalized, p)
        assert np.allclose(out.data[..., :IN_FEATURES], v, atol=1e-12)
        assert np.all(out.data[..., IN_FEATURES:] == 0.0)

    def test_zero_mixing_annihilates(self, rng):
        p = small_params()
        for name in ("stgcn.b_temporal", "stgcn.w_residual", "stgcn.b_residual"):
            p[name].data[...] = 0.0
        v = rng.normal(size=(8, 3, 2))
        out = st_gcn_forward(v, np.zeros((8, 3, 3)), p)
        assert np.allclose(out.data, 0.0)

    def test_matches_triple_loop_oracle(self, rng):
        p = small_params()
        v = rng.normal(size=(8, 3, 2))
        normalized = rng.normal(size=(8, 3, 3))
        got = st_gcn_forward(v, normalized, p).data
        want = stgcn_oracle(v, normalized, p)
        assert np.allclose(got, want, atol=1e-12)

    def test_shape_mismatch_raises(self, rng):
        p = small_params()
        with pytest.raises(ValueError):
            st_gcn_forward(rng.normal(size=(8, 3, 2)), np.zeros((8, 4, 4)), p)

    def test_permutation_equivariance(self, rng):
        p = small_params()
        v = rng.normal(size=(8, 5, 2))
        normalized = rng.normal(size=(8, 5, 5))
        normalized = normalized + normalized.transpose(0, 2, 1)
        perm = rng.permutation(5)
        out = st_gcn_forward(v, normalized, p).data
        out_p = st_gcn_forward(
            v[:, perm], normalized[:, perm][:, :, perm], p
        ).data
        # equality up to summation-order rounding in the matrix products
        assert np.allclose(out[:, perm], out_p, rtol=1e-13, atol=1e-13)

    def test_forward_raw_depends_on_pedestrian_order(self, rng):
        # the graphs and the ST-GCN layer are permutation-equivariant, but
        # each TXP plane conv mixes rows that are adjacent in pedestrian order
        w = random_window(rng, n_peds=10)
        perm = rng.permutation(w.n_peds)
        pw = TrajectoryWindow(
            "perm", 0, w.positions[perm], w.t_obs, w.t_pred
        )
        out = forward_raw(w, GraphConfig(), small_params()).data
        out_p = forward_raw(pw, GraphConfig(), small_params()).data
        change = np.max(np.abs(out_p - out[:, perm]))
        assert change > 0.1 * np.max(np.abs(out))


class TestTxp:
    def test_zero_input_zero_biases(self):
        p = zero_params()
        out = txp_forward(Var(np.zeros((8, 3, 5))), p)
        assert out.data.shape == (12, 3, 5)
        assert np.allclose(out.data, 0.0)

    def test_first_layer_homogeneity(self, rng):
        p = small_params()
        w, b = p["txp.0.w"].data, p["txp.0.b"].data
        h = rng.normal(size=(8, 3, 5))
        one = _plane_conv(h.transpose(1, 2, 0), w, b)
        two = _plane_conv(2 * h.transpose(1, 2, 0), w, b)
        bias_plane = _plane_conv(0 * h.transpose(1, 2, 0), w, b)
        assert np.allclose(two - bias_plane, 2 * (one - bias_plane), atol=1e-10)

    def test_wrong_frame_count_raises(self, rng):
        p = small_params()
        with pytest.raises(ValueError):
            txp_forward(Var(rng.normal(size=(9, 3, 5))), p)


class TestSummary:
    def test_counts_from_shape_arithmetic(self):
        cfg = ModelConfig()
        p = ModelParameters(cfg, seed=0)
        c, k = GAUSSIAN_CHANNELS, TXP_KERNEL
        expect = {
            "stgcn.w_spatial": IN_FEATURES * c,
            "stgcn.b_spatial": c,
            "stgcn.w_temporal": STGCN_TEMPORAL_KERNEL * c * c,
            "stgcn.b_temporal": c,
            "stgcn.w_residual": IN_FEATURES * c,
            "stgcn.b_residual": c,
            "stgcn.prelu": 1,
            "txp.0.w": cfg.t_pred * cfg.t_obs * k * k,
            "txp.0.b": cfg.t_pred,
            "txp.0.prelu": 1,
            "txp.out.w": cfg.t_pred * cfg.t_pred * k * k,
            "txp.out.b": cfg.t_pred,
        }
        for i in range(1, TXP_LAYERS):
            expect[f"txp.{i}.w"] = cfg.t_pred * cfg.t_pred * k * k
            expect[f"txp.{i}.b"] = cfg.t_pred
            expect[f"txp.{i}.prelu"] = 1
        summary = p.summary()
        assert summary["per_tensor"] == expect
        assert summary["total"] == sum(expect.values())

    def test_reference_total_pinned(self):
        # regression constant for the default configuration
        assert ModelParameters(ModelConfig(), seed=0).summary()["total"] == 7532


class TestBackward:
    def test_end_to_end_finite_differences(self, rng):
        w = random_window(rng, n_peds=3)
        p = small_params()
        cfg = GraphConfig()
        loss = window_nll(w, cfg, p)
        loss.backward()
        eps = 1e-5
        for name, v in p.items():
            flat = v.data.ravel()
            idxs = rng.choice(flat.size, size=min(6, flat.size), replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + eps
                lp = float(window_nll(w, cfg, p).data)
                flat[i] = orig - eps
                lm = float(window_nll(w, cfg, p).data)
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                an = v.grad.ravel()[i]
                assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-3), name


def assert_views(p: ModelParameters, table: list[dict]) -> None:
    """Every tensor's .data and .grad are contiguous views of p.theta and
    p.grad at its byte offset in the checkpoint tensor `table`."""
    assert [e["name"] for e in table] == [name for name, _ in p.items()]
    end = 0
    for entry, (name, v) in zip(table, p.items()):
        for view, flat in ((v.data, p.theta), (v.grad, p.grad)):
            assert view.base is flat and view.flags.c_contiguous, name
            at = view.__array_interface__["data"][0] - flat.__array_interface__["data"][0]
            assert at == entry["offset"], name
        end = entry["offset"] + v.data.nbytes
    assert end == p.theta.nbytes == p.grad.nbytes


def checkpoint_parts(path) -> tuple[dict, bytes]:
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    return json.loads(raw[8 : 8 + hlen]), raw[8 + hlen :]


class TestParameterVector:
    def test_leaves_stay_views_of_theta(self, rng, tmp_path):
        p = small_params()
        path = tmp_path / "m.ckpt"
        p.save(path)
        table = checkpoint_parts(path)[0]["tensors"]
        assert_views(p, table)
        window_nll(random_window(rng), GraphConfig(), p).backward()
        assert p.grad.any()
        sgd_step(p, 0.01, TrainConfig(clip_norm=1e-3))
        p.grad.fill(0.0)
        assert not p.grad.any()
        assert_views(p, table)
        assert_views(ModelParameters.load(path)[0], table)
        split = DatasetSplit(train=[random_window(rng) for _ in range(3)], val=[],
                             test=[], held_out_scene="x")
        trained, _ = train(split, GraphConfig(), TrainConfig(epochs=2, lr_switch_epoch=1))
        assert_views(trained, table)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        p = small_params()
        path = tmp_path / "m.ckpt"
        p.save(path, extra_config={"graph_config": GraphConfig().to_dict()})
        back, extra = ModelParameters.load(path)
        assert extra["graph_config"]["kernel"] == "inv"
        assert set(dict(back.items())) == set(dict(p.items()))
        for name, v in p.items():
            assert np.array_equal(back[name].data, v.data)
        assert back.cfg == p.cfg

    def test_payload_is_theta(self, tmp_path):
        p = small_params()
        path = tmp_path / "m.ckpt"
        p.save(path)
        assert checkpoint_parts(path)[1] == p.theta.tobytes()

    def test_load_then_save_rewrites_the_file(self, rng, tmp_path):
        # non-default horizons, clipping and the extra config all round-trip
        ws = [random_window(rng, t_obs=6, t_pred=4) for _ in range(4)]
        split = DatasetSplit(train=ws[:3], val=ws[3:], test=[], held_out_scene="x")
        path = tmp_path / "trained.ckpt"
        train(split, GraphConfig(), TrainConfig(epochs=2, lr_switch_epoch=1, clip_norm=1.0),
              ModelConfig(t_obs=6, t_pred=4), ckpt_path=path)
        back, extra = ModelParameters.load(path)
        again = tmp_path / "again.ckpt"
        back.save(again, extra_config=extra)
        assert again.read_bytes() == path.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            ModelParameters.load(path)

    def test_forward_identical_after_roundtrip(self, tmp_path, rng):
        w = random_window(rng)
        p = small_params()
        path = tmp_path / "m.ckpt"
        p.save(path)
        back, _ = ModelParameters.load(path)
        a = forward_raw(w, GraphConfig(), p).data
        b = forward_raw(w, GraphConfig(), back).data
        assert np.array_equal(a, b)

    def test_truncated_file_names_path(self, tmp_path):
        path = tmp_path / "m.ckpt"
        small_params().save(path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="m.ckpt: payload holds"):
            ModelParameters.load(path)

    def test_truncated_header_names_path(self, tmp_path):
        path = tmp_path / "m.ckpt"
        small_params().save(path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ValueError, match="m.ckpt: unreadable checkpoint header"):
            ModelParameters.load(path)

    def test_non_finite_tensor_names_path(self, tmp_path):
        path = tmp_path / "m.ckpt"
        p = small_params()
        p["txp.out.b"].data[0] = np.nan
        p.save(path)
        with pytest.raises(ValueError, match="m.ckpt: tensor txp.out.b holds non-finite"):
            ModelParameters.load(path)

    def test_dropped_tensor_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        small_params().save(path)
        rewrite_header(path, lambda h: h.update(tensors=h["tensors"][:-1]))
        with pytest.raises(ValueError, match="m.ckpt: tensor table entry None"):
            ModelParameters.load(path)


def rewrite_header(path, mutate):
    """Apply `mutate` to a checkpoint's JSON header in place; a header
    that `mutate` returns replaces the old one."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + hlen])
    header = mutate(header) or header
    hbytes = json.dumps(header).encode("utf-8")
    prefix = CHECKPOINT_MAGIC + struct.pack("<I", len(hbytes))
    path.write_bytes(prefix + hbytes + raw[8 + hlen :])
