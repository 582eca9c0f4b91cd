"""Network blocks: spatio-temporal graph convolution + time-extrapolator CNN.

Shapes follow [time, pedestrians, channels]. The ST-GCN mixes node features
per frame with the normalized graph matrix, then convolves across observed
frames. The TXP stack treats the time axis as channels and convolves over
the (pedestrian, feature) plane, mapping T_obs frames to T_pred frames.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, fields
from itertools import zip_longest

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Var, prelu
from .graphs import GraphConfig, build_graph_sequence

CHECKPOINT_MAGIC = b"CGNN"
CHECKPOINT_VERSION = 1

# the fixed architecture (Social-STGCNN): one ST-GCN layer, then a residual
# stack of TXP_LAYERS plane convs and a linear readout conv
IN_FEATURES = 2
GAUSSIAN_CHANNELS = 5
STGCN_TEMPORAL_KERNEL = 3
TXP_LAYERS = 5
TXP_KERNEL = 3
PRELU_INIT = 0.25

# settings that earlier checkpoints store in their header; each must hold
# the value the architecture now fixes
FIXED_MODEL_SETTINGS = {
    "in_features": IN_FEATURES,
    "gaussian_channels": GAUSSIAN_CHANNELS,
    "stgcn_temporal_kernel": STGCN_TEMPORAL_KERNEL,
    "txp_layers": TXP_LAYERS,
    "txp_kernel": TXP_KERNEL,
    "stgcn_residual": True,
    "stgcn_bias": True,
    "txp_residual": True,
    "prelu_init": PRELU_INIT,
}
FIXED_GRAPH_SETTINGS = {"bearing_gate": False}


@dataclass
class ModelConfig:
    t_obs: int = 8
    t_pred: int = 12

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _tensor_table(shapes) -> list[dict]:
    """Checkpoint tensor table: name, shape and byte offset of each tensor."""
    table, offset = [], 0
    for name, shape in shapes:
        table.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 8 * math.prod(shape)
    return table


def _drop_fixed(path, section: str, stored: dict, fixed: dict, cls) -> dict:
    """`stored` without the settings in `fixed`, which must hold their value.

    Any key that is neither fixed nor a field of `cls` is rejected.
    """
    known = {f.name for f in fields(cls)}
    kept = {}
    for key, value in stored.items():
        if key in known:
            kept[key] = value
        elif key not in fixed:
            raise ValueError(f"{path}: unknown {section} key {key!r} = {value!r}")
        elif value != fixed[key]:
            raise ValueError(
                f"{path}: {section} key {key!r} = {value!r}, but the "
                f"architecture fixes it at {fixed[key]!r}"
            )
    return kept


class ModelParameters:
    """Named parameter tensors with uniform +-1/sqrt(fan_in) initialization."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self.tensors: dict[str, Var] = {}
        rng = np.random.default_rng(seed)
        c, kt = GAUSSIAN_CHANNELS, STGCN_TEMPORAL_KERNEL
        self._add("stgcn.w_spatial", (IN_FEATURES, c), rng, IN_FEATURES)
        self._add("stgcn.b_spatial", (c,), rng, IN_FEATURES)
        self._add("stgcn.w_temporal", (kt, c, c), rng, kt * c)
        self._add("stgcn.b_temporal", (c,), rng, kt * c)
        self._add("stgcn.w_residual", (IN_FEATURES, c), rng, IN_FEATURES)
        self._add("stgcn.b_residual", (c,), rng, IN_FEATURES)
        self.tensors["stgcn.prelu"] = Var(np.array(PRELU_INIT))

        k = TXP_KERNEL
        fan1 = cfg.t_obs * k * k
        self._add("txp.0.w", (cfg.t_pred, cfg.t_obs, k, k), rng, fan1)
        self._add("txp.0.b", (cfg.t_pred,), rng, fan1)
        self.tensors["txp.0.prelu"] = Var(np.array(PRELU_INIT))
        fan = cfg.t_pred * k * k
        for i in range(1, TXP_LAYERS):
            self._add(f"txp.{i}.w", (cfg.t_pred, cfg.t_pred, k, k), rng, fan)
            self._add(f"txp.{i}.b", (cfg.t_pred,), rng, fan)
            self.tensors[f"txp.{i}.prelu"] = Var(np.array(PRELU_INIT))
        # linear readout keeps the parameter budget near the reference size
        self._add("txp.out.w", (cfg.t_pred, cfg.t_pred, k, k), rng, fan)
        self._add("txp.out.b", (cfg.t_pred,), rng, fan)

    def _add(self, name, shape, rng, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        self.tensors[name] = Var(rng.uniform(-bound, bound, size=shape))

    def __getitem__(self, name: str) -> Var:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def zero_grad(self):
        for v in self.tensors.values():
            v.grad = None

    def summary(self) -> dict:
        per_tensor = {name: int(v.data.size) for name, v in self.tensors.items()}
        return {"per_tensor": per_tensor, "total": sum(per_tensor.values())}

    # ---- checkpoint IO ---------------------------------------------------
    # layout: magic, u32 header length, JSON header (format version, config,
    # tensor table with offsets), then little-endian float64 payload

    def save(self, path, extra_config: dict | None = None) -> None:
        header = {
            "format_version": CHECKPOINT_VERSION,
            "model_config": self.cfg.to_dict(),
            "extra_config": extra_config or {},
            "tensors": _tensor_table(
                (name, v.data.shape) for name, v in self.tensors.items()
            ),
        }
        hbytes = json.dumps(header).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", len(hbytes)))
            fh.write(hbytes)
            for v in self.tensors.values():
                fh.write(np.ascontiguousarray(v.data, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> tuple["ModelParameters", dict]:
        """Parameters and extra config of a checkpoint, checked against the
        fixed architecture; settings it fixes are dropped from the header."""
        with open(path, "rb") as fh:
            if fh.read(4) != CHECKPOINT_MAGIC:
                raise ValueError(f"{path}: not a checkpoint file")
            try:
                (hlen,) = struct.unpack("<I", fh.read(4))
                header = json.loads(fh.read(hlen).decode("utf-8"))
            except (struct.error, ValueError) as exc:  # JSON and UTF-8 errors
                raise ValueError(f"{path}: unreadable checkpoint header: {exc}") from exc
            if header["format_version"] != CHECKPOINT_VERSION:
                raise ValueError(
                    f"{path}: unsupported checkpoint version {header['format_version']}"
                )
            payload = fh.read()
        cfg = ModelConfig(
            **_drop_fixed(
                path, "model_config", header["model_config"], FIXED_MODEL_SETTINGS,
                ModelConfig,
            )
        )
        extra = header["extra_config"]
        if "graph_config" in extra:
            extra["graph_config"] = _drop_fixed(
                path, "graph_config", extra["graph_config"], FIXED_GRAPH_SETTINGS,
                GraphConfig,
            )
        params = cls(cfg)
        want = _tensor_table((name, v.data.shape) for name, v in params.items())
        for got_entry, want_entry in zip_longest(header["tensors"], want):
            if got_entry != want_entry:
                raise ValueError(
                    f"{path}: tensor table entry {got_entry} does not match "
                    f"the model's {want_entry}"
                )
        size = 8 * sum(v.data.size for _, v in params.items())
        if len(payload) != size:
            raise ValueError(
                f"{path}: payload holds {len(payload)} bytes, the tensor table "
                f"needs {size}"
            )
        for entry, v in zip(want, params.tensors.values()):
            v.data = np.frombuffer(
                payload, dtype="<f8", count=v.data.size, offset=entry["offset"]
            ).reshape(v.data.shape).copy()
        return params, extra


def _temporal_conv(x: Var, w: Var, b: Var) -> Var:
    """1D conv over the leading time axis, symmetric zero padding, one tape op.

    x: [T, N, C], w: [K, C, C], b: [C]; stride 1, same output length.
    The K time-shifted copies of x form im2col columns [T*N, K*C], so the
    forward is one matmul against w flattened to [K*C, C].
    """
    k, c_in, c_out = w.shape
    pad = k // 2
    t, n, _ = x.shape
    xp = np.pad(x.data, ((pad, pad), (0, 0), (0, 0)))
    # [T, N, C, K] -> rows (t, n), columns (k, c) in w's flattening order;
    # an even K gives one window more than T, which [:t] drops
    cols = sliding_window_view(xp, k, axis=0)[:t].transpose(0, 1, 3, 2)
    cols = cols.reshape(t * n, k * c_in)
    w2 = w.data.reshape(k * c_in, c_out)
    out = Var((cols @ w2 + b.data).reshape(t, n, c_out), (x, w, b))

    def bw(g):
        g2 = g.reshape(t * n, c_out)
        w._ensure_grad()[...] += (cols.T @ g2).reshape(w.shape)
        b._ensure_grad()[...] += g2.sum(axis=0)
        gcols = (g2 @ w2.T).reshape(t, n, k, c_in)
        gxp = np.zeros_like(xp)
        for j in range(k):
            gxp[j : j + t] += gcols[:, :, j]
        x._ensure_grad()[...] += gxp[pad : pad + t]

    out._backward = bw
    return out


def _plane_conv(x: Var, w: Var, b: Var) -> Var:
    """2D conv over the trailing (N, F) plane with time-as-channels, one tape op.

    x: [C_in, N, F], w: [C_out, C_in, k, k], b: [C_out]; zero padding k//2.
    The k*k shifted copies of x form im2col columns [C_in*k*k, N*F]
    (Chellapilla et al. 2006), so the forward is one matmul against w
    flattened to [C_out, C_in*k*k].
    """
    c_out, c_in, k, _ = w.shape
    pad = k // 2
    _, n, f = x.shape
    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad)))
    # [C_in, N, F, k, k] -> rows (c, dn, df) in w's flattening order;
    # an even k gives one window more than N and F, which [:n, :f] drops
    cols = sliding_window_view(xp, (k, k), axis=(1, 2))[:, :n, :f]
    cols = cols.transpose(0, 3, 4, 1, 2).reshape(c_in * k * k, n * f)
    w2 = w.data.reshape(c_out, c_in * k * k)
    out = Var((w2 @ cols + b.data[:, None]).reshape(c_out, n, f), (x, w, b))

    def bw(g):
        g2 = g.reshape(c_out, n * f)
        w._ensure_grad()[...] += (g2 @ cols.T).reshape(w.shape)
        b._ensure_grad()[...] += g2.sum(axis=1)
        gcols = (w2.T @ g2).reshape(c_in, k, k, n, f)
        gxp = np.zeros_like(xp)
        for dn in range(k):
            for df in range(k):
                gxp[:, dn : dn + n, df : df + f] += gcols[:, dn, df]
        x._ensure_grad()[...] += gxp[:, pad : pad + n, pad : pad + f]

    out._backward = bw
    return out


def st_gcn_forward(v: Var, normalized: np.ndarray, params: ModelParameters) -> Var:
    """v: [T_obs, N, C_in], normalized: [T_obs, N, N] -> [T_obs, N, C]."""
    if v.shape[0] != normalized.shape[0] or v.shape[1] != normalized.shape[1]:
        raise ValueError(
            f"shape mismatch: features {v.shape} vs graphs {normalized.shape}"
        )
    x = v @ params["stgcn.w_spatial"] + params["stgcn.b_spatial"]
    x = Var(normalized) @ x
    x = prelu(x, params["stgcn.prelu"])
    x = _temporal_conv(x, params["stgcn.w_temporal"], params["stgcn.b_temporal"])
    res = v @ params["stgcn.w_residual"] + params["stgcn.b_residual"]
    return x + res


def txp_forward(h: Var, params: ModelParameters) -> Var:
    """h: [T_obs, N, C] -> [T_pred, N, C], time axis treated as channels."""
    t_obs = params.cfg.t_obs
    if h.shape[0] != t_obs:
        raise ValueError(f"expected {t_obs} observed frames, got {h.shape[0]}")
    x = prelu(_plane_conv(h, params["txp.0.w"], params["txp.0.b"]), params["txp.0.prelu"])
    for i in range(1, TXP_LAYERS):
        y = prelu(
            _plane_conv(x, params[f"txp.{i}.w"], params[f"txp.{i}.b"]),
            params[f"txp.{i}.prelu"],
        )
        x = y + x
    return _plane_conv(x, params["txp.out.w"], params["txp.out.b"])


def forward_raw(window, graph_cfg: GraphConfig, params: ModelParameters) -> Var:
    """Window -> raw Gaussian channels [T_pred, N, 5]."""
    seq = build_graph_sequence(window, graph_cfg)
    v = Var(window.displacements[:, : window.t_obs].transpose(1, 0, 2))
    h = st_gcn_forward(v, seq.normalized, params)
    return txp_forward(h, params)

