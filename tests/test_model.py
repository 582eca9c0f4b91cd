import json
import struct

import numpy as np
import pytest

from crowdgnn.autodiff import Var
from crowdgnn.data import TrajectoryWindow
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
    _plane_conv,
    forward_chunk,
    forward_raw,
    st_gcn_forward,
    txp_forward,
)
from crowdgnn.train import chunk_nll, window_nll
from conftest import random_window, weighted_sum


def small_params():
    return ModelParameters(ModelConfig(), seed=0)


def zero_params() -> ModelParameters:
    p = small_params()
    for name, v in p.items():
        v.data = np.zeros_like(v.data)
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
    xv, wv, bv = Var(x.copy()), Var(w.copy()), Var(b.copy())
    out = _plane_conv(xv, wv, bv)
    weighted_sum(out, u).backward()
    fused = (out.data, xv.grad, wv.grad, bv.grad)
    for got, want in zip(fused, plane_conv_oracle(x, w, b, u)):
        assert got.shape == want.shape
        assert_rel_close(got, want)


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
    assert all(t.grad is None for name, t in p.items() if name.startswith("txp."))


def test_forward_tape_size(rng, monkeypatch):
    # one node per layer op: the ST-GCN layer and each convolution are single
    # ops, the PReLUs and residual sums of the TXP stack one node each
    created = 0
    init = Var.__init__

    def counting_init(var, *args, **kwargs):
        nonlocal created
        created += 1
        init(var, *args, **kwargs)

    w = random_window(rng, n_peds=4)
    p = small_params()
    monkeypatch.setattr(Var, "__init__", counting_init)
    forward_raw(w, GraphConfig(), p)
    assert created == 16
    # the Gaussian head adds one node: constrain + NLL + mean are one op, and
    # the 1/B batch weight is the backward seed, so this is a trained window
    created = 0
    window_nll(w, GraphConfig(), p)
    assert created == 17
    # a chunk of 3 stacked windows records the same nodes as one window
    chunk = [w, random_window(rng, n_peds=2), random_window(rng, n_peds=7)]
    created = 0
    forward_chunk(chunk, GraphConfig(), p)
    assert created == 16
    created = 0
    chunk_nll(chunk, GraphConfig(), p)
    assert created == 17


class TestStGcn:
    def test_identity_passthrough_single_node(self):
        p = zero_params()  # residual weights and all biases zero
        p["stgcn.w_spatial"].data = np.eye(IN_FEATURES, GAUSSIAN_CHANNELS)
        p["stgcn.w_temporal"].data[1] = np.eye(GAUSSIAN_CHANNELS)  # center tap only
        p["stgcn.prelu"].data = np.array(1.0)
        v = np.random.default_rng(0).normal(size=(8, 1, IN_FEATURES))
        normalized = np.ones((8, 1, 1))  # self-loop identity normalization
        out = st_gcn_forward(v, normalized, p)
        assert np.allclose(out.data[..., :IN_FEATURES], v, atol=1e-12)
        assert np.all(out.data[..., IN_FEATURES:] == 0.0)

    def test_zero_mixing_annihilates(self, rng):
        p = small_params()
        for name in ("stgcn.b_temporal", "stgcn.w_residual", "stgcn.b_residual"):
            p[name].data = np.zeros_like(p[name].data)
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
            "perm", 0, w.positions[perm], w.displacements[perm], w.t_obs, w.t_pred
        )
        out = forward_raw(w, GraphConfig(), small_params()).data
        out_p = forward_raw(pw, GraphConfig(), small_params()).data
        change = np.max(np.abs(out_p - out[:, perm]))
        assert change > 0.1 * np.max(np.abs(out))


class TestTxp:
    def test_zero_input_zero_biases(self):
        p = zero_params()
        out = txp_forward(Var(np.zeros((8, 3, 5))), p)
        assert out.shape == (12, 3, 5)
        assert np.allclose(out.data, 0.0)

    def test_first_layer_homogeneity(self, rng):
        from crowdgnn.model import _plane_conv

        p = small_params()
        h = rng.normal(size=(8, 3, 5))
        one = _plane_conv(Var(h), p["txp.0.w"], p["txp.0.b"]).data
        two = _plane_conv(Var(2 * h), p["txp.0.w"], p["txp.0.b"]).data
        bias_plane = _plane_conv(Var(0 * h), p["txp.0.w"], p["txp.0.b"]).data
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

    def test_earlier_header_with_fixed_settings_loads(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        p = small_params()
        p.save(path, extra_config={"graph_config": GraphConfig().to_dict()})
        rewrite_header(path, add_earlier_settings)
        back, extra = ModelParameters.load(path)
        assert back.cfg == ModelConfig()
        assert extra["graph_config"] == GraphConfig().to_dict()
        w = random_window(rng)
        a = forward_raw(w, GraphConfig(), p).data
        assert np.array_equal(forward_raw(w, GraphConfig(), back).data, a)

    @pytest.mark.parametrize(
        "section, key, value",
        [("model", "txp_residual", False), ("model", "txp_layers", 4),
         ("model", "dropout", 0.1), ("graph", "bearing_gate", True)],
    )
    def test_other_settings_rejected(self, tmp_path, section, key, value):
        path = tmp_path / "m.ckpt"
        small_params().save(path, extra_config={"graph_config": GraphConfig().to_dict()})

        def mutate(h):
            add_earlier_settings(h)
            if section == "model":
                h["model_config"][key] = value
            else:
                h["extra_config"]["graph_config"][key] = value

        rewrite_header(path, mutate)
        with pytest.raises(ValueError, match=f"m.ckpt: .*{key!r} = {value!r}"):
            ModelParameters.load(path)


# every model_config key a checkpoint carried before the architecture was fixed
EARLIER_MODEL_CONFIG = {
    "t_obs": 8, "t_pred": 12, "in_features": 2, "gaussian_channels": 5,
    "stgcn_temporal_kernel": 3, "txp_layers": 5, "txp_kernel": 3,
    "stgcn_residual": True, "stgcn_bias": True, "txp_residual": True,
    "prelu_init": 0.25,
}


def add_earlier_settings(header):
    header["model_config"] = dict(EARLIER_MODEL_CONFIG)
    graph = header["extra_config"].get("graph_config")
    if graph is not None:
        graph["bearing_gate"] = False


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
