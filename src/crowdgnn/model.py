"""Network blocks: spatio-temporal graph convolution + time-extrapolator CNN.

Shapes follow [time, pedestrians, channels]. The ST-GCN mixes node features
per frame with the normalized graph matrix, then convolves across observed
frames. The TXP stack treats the time axis as channels and convolves over
the (pedestrian, feature) plane, mapping T_obs frames to T_pred frames.

Several windows run as one chunk: their pedestrians are stacked along the
pedestrian axis with one zero gap row between neighbouring windows. Graph
mixing runs per window; every other op runs once over the stack and writes
zero into the gap rows, so no signal crosses windows and each window sees
exactly the zero padding it would see alone.
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


def _same(a, b) -> bool:
    """`a == b` with JSON types compared too: `true` and `1.0` are not `1`."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _drop_fixed(path, section: str, stored: dict, fixed: dict, cls) -> dict:
    """`stored` without the settings in `fixed`, which must hold their value.

    Any key that is neither fixed nor a field of `cls` is rejected.
    """
    if not isinstance(stored, dict):
        raise ValueError(f"{path}: {section} must be an object, got {stored!r}")
    known = {f.name for f in fields(cls)}
    kept = {}
    for key, value in stored.items():
        if key in known:
            kept[key] = value
        elif key not in fixed:
            raise ValueError(f"{path}: unknown {section} key {key!r} = {value!r}")
        elif not _same(value, fixed[key]):
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
            if not (isinstance(header, dict) and "format_version" in header
                    and isinstance(header.get("extra_config"), dict)
                    and isinstance(header.get("tensors"), list)):
                raise ValueError(f"{path}: checkpoint header needs a format_version, "
                                 "an extra_config object and a tensors list")
            if not _same(header["format_version"], CHECKPOINT_VERSION):
                raise ValueError(
                    f"{path}: unsupported checkpoint version {header['format_version']}"
                )
            payload = fh.read()
        kept = _drop_fixed(path, "model_config", header.get("model_config"),
                           FIXED_MODEL_SETTINGS, ModelConfig)
        cfg = ModelConfig(**kept)
        # bool is an int subclass, so JSON true would pass isinstance(..., int)
        if not (type(cfg.t_obs) is type(cfg.t_pred) is int
                and cfg.t_obs >= 2 and cfg.t_pred >= 1):
            raise ValueError(f"{path}: model_config needs integers t_obs >= 2 and "
                             f"t_pred >= 1, got {cfg.t_obs!r} and {cfg.t_pred!r}")
        extra = header["extra_config"]
        if "graph_config" in extra:
            extra["graph_config"] = _drop_fixed(
                path, "graph_config", extra["graph_config"], FIXED_GRAPH_SETTINGS,
                GraphConfig,
            )
        params = cls(cfg)
        want = _tensor_table((name, v.data.shape) for name, v in params.items())
        for got_entry, want_entry in zip_longest(header["tensors"], want):
            if not _same(got_entry, want_entry):
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
            if not np.all(np.isfinite(v.data)):
                raise ValueError(f"{path}: tensor {entry['name']} holds non-finite values")
        return params, extra


def _correlate(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stride-1, zero-padded "same" correlation as one im2col matmul.

    x: [C_in, H, W], w: [C_out, C_in, kh, kw] with odd kernels only (the
    module constants, 3; `ModelParameters.load` rejects other shapes).
    Returns out [C_out, H, W] and the columns [C_in*kh*kw, H*W]. A conv's
    input gradient is this correlation of the output gradient with w
    flipped in space and in/out channels swapped (Dumoulin & Visin 2016).
    """
    c_out, c_in, kh, kw = w.shape
    _, h, wd = x.shape
    xp = np.zeros((c_in, h + kh - 1, wd + kw - 1))
    xp[:, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + wd] = x
    # [C_in, H, W, kh, kw] -> rows (c, dh, dw) in w's flattening order
    cols = sliding_window_view(xp, (kh, kw), axis=(1, 2))
    cols = cols.transpose(0, 3, 4, 1, 2).reshape(c_in * kh * kw, h * wd)
    out = w.reshape(c_out, c_in * kh * kw) @ cols
    return out.reshape(c_out, h, wd), cols


def _plane_conv(x: Var, w: Var, b: Var, gaps=()) -> Var:
    """2D conv over the trailing (N, F) plane with time-as-channels, one tape op.

    x: [C_in, N, F], w: [C_out, C_in, k, k], b: [C_out]; zero padding k//2.
    The output rows `gaps` (pedestrian indices) are zero, and get no gradient.
    """
    y, cols = _correlate(x.data, w.data)
    y += b.data[:, None, None]
    if gaps:
        y[:, gaps] = 0.0
    out = Var(y, (x, w, b))

    def bw(g):
        if gaps:
            g[:, gaps] = 0.0
        g2 = g.reshape(len(g), -1)
        w._ensure_grad()[...] += (g2 @ cols.T).reshape(w.shape)
        b._ensure_grad()[...] += g2.sum(axis=1)
        x._ensure_grad()[...] += _correlate(g, w.data[:, :, ::-1, ::-1].swapaxes(0, 1))[0]

    out._backward = bw
    return out


def st_gcn_forward(v: np.ndarray, graphs, params: ModelParameters, rows=None) -> Var:
    """v: [T_obs, R, C_in] -> [T_obs, R, C], one tape op.

    `graphs` holds each window's normalized [T_obs, n, n] matrix and `rows`
    its slice of the pedestrian axis; by default one window fills v. Graph
    mixing runs per window, then PReLU, the (K x 1) correlation over the
    (T, R) plane with C as channels and the residual projection run once.
    Rows outside every window (the gaps) are zero. `v` and the graphs are
    constants: the backward reaches only the seven stgcn.* parameters.
    """
    if rows is None:
        graphs, rows = [graphs], [slice(0, v.shape[1])]
    for a, r in zip(graphs, rows):
        n = r.stop - r.start
        if a.shape != (v.shape[0], n, n):
            raise ValueError(
                f"shape mismatch: features {v.shape} rows {r} vs graphs {a.shape}"
            )
    gaps = [r.stop for r in rows[:-1]]
    ws, bs = params["stgcn.w_spatial"], params["stgcn.b_spatial"]
    wt, bt = params["stgcn.w_temporal"], params["stgcn.b_temporal"]
    wr, br = params["stgcn.w_residual"], params["stgcn.b_residual"]
    slope = params["stgcn.prelu"]
    u = v @ ws.data + bs.data
    pre = np.empty_like(u)
    for a, r in zip(graphs, rows):
        np.matmul(a, u[:, r], out=pre[:, r])
    if gaps:
        pre[:, gaps] = 0.0
    pos = pre > 0
    act = np.where(pos, pre, slope.data * pre)
    wk = wt.data.transpose(2, 1, 0)[..., None]  # [C_out, C_in, K, 1]
    y, cols = _correlate(act.transpose(2, 0, 1), wk)
    y = y.transpose(1, 2, 0) + bt.data + (v @ wr.data + br.data)
    if gaps:
        y[:, gaps] = 0.0
    out = Var(y, (ws, bs, wt, bt, wr, br, slope))

    def bw(g):
        if gaps:
            g[:, gaps] = 0.0
        vt = np.swapaxes(v, -1, -2)
        gb = g.sum(axis=(0, 1))
        br._ensure_grad()[...] += gb
        wr._ensure_grad()[...] += (vt @ g).sum(axis=0)
        bt._ensure_grad()[...] += gb
        gw = cols @ g.reshape(-1, g.shape[-1])  # rows (c_in, k), columns c_out
        wt._ensure_grad()[...] += gw.reshape(wt.shape[1], wt.shape[0], -1).swapaxes(0, 1)
        gact = _correlate(g.transpose(2, 0, 1), wk[:, :, ::-1, ::-1].swapaxes(0, 1))[0]
        gact = gact.transpose(1, 2, 0)
        slope._ensure_grad()[...] += np.sum(gact * np.where(pos, 0.0, pre))
        gpre = gact * np.where(pos, 1.0, slope.data)
        gmix = np.empty_like(gpre)
        for a, r in zip(graphs, rows):
            np.matmul(np.swapaxes(a, -1, -2), gpre[:, r], out=gmix[:, r])
        if gaps:
            gmix[:, gaps] = 0.0
        bs._ensure_grad()[...] += gmix.sum(axis=(0, 1))
        ws._ensure_grad()[...] += (vt @ gmix).sum(axis=0)

    out._backward = bw
    return out


def txp_forward(h: Var, params: ModelParameters, gaps=()) -> Var:
    """h: [T_obs, R, C] -> [T_pred, R, C], time axis treated as channels.

    Every conv writes zero into the pedestrian rows `gaps`.
    """
    t_obs = params.cfg.t_obs
    if h.shape[0] != t_obs:
        raise ValueError(f"expected {t_obs} observed frames, got {h.shape[0]}")
    x = prelu(_plane_conv(h, params["txp.0.w"], params["txp.0.b"], gaps),
              params["txp.0.prelu"])
    for i in range(1, TXP_LAYERS):
        y = prelu(
            _plane_conv(x, params[f"txp.{i}.w"], params[f"txp.{i}.b"], gaps),
            params[f"txp.{i}.prelu"],
        )
        x = y + x
    return _plane_conv(x, params["txp.out.w"], params["txp.out.b"], gaps)


def stack_windows(windows) -> tuple[np.ndarray, list[slice]]:
    """Displacements [R, T_total, 2] of the windows stacked along pedestrians,
    one zero gap row between neighbours, and each window's slice of rows."""
    if len(windows) == 1:  # no copy: evaluation runs one window at a time
        return windows[0].displacements, [slice(0, windows[0].n_peds)]
    gap = np.zeros((1,) + windows[0].displacements.shape[1:])
    parts, rows, start = [], [], 0
    for w in windows:
        parts += [gap, w.displacements]
        rows.append(slice(start, start + w.n_peds))
        start += w.n_peds + 1
    return np.concatenate(parts[1:]), rows


def forward_chunk(windows, graph_cfg: GraphConfig, params: ModelParameters):
    """Windows stacked as one chunk -> (raw Gaussian channels [T_pred, R, 5],
    the stacked displacements [R, T_total, 2], each window's rows)."""
    disp, rows = stack_windows(windows)
    graphs = [build_graph_sequence(w, graph_cfg) for w in windows]
    v = disp[:, : windows[0].t_obs].transpose(1, 0, 2)
    h = st_gcn_forward(v, graphs, params, rows)
    return txp_forward(h, params, [r.stop for r in rows[:-1]]), disp, rows


def forward_raw(window, graph_cfg: GraphConfig, params: ModelParameters) -> Var:
    """Window -> raw Gaussian channels [T_pred, N, 5]: a one-window chunk."""
    return forward_chunk([window], graph_cfg, params)[0]
