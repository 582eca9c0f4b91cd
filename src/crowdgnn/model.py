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
from dataclasses import dataclass
from itertools import zip_longest
from types import SimpleNamespace

import numpy as np

from .autodiff import Var
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

# most pedestrians stacked in one chunk (see `chunks`). A chunk's tape
# (activations, conv inputs, graph matrices; about 9.5 kB per stacked row
# of one 32-pedestrian window, as much after its backward) lives until the
# caller drops its output; training keeps one through the next chunk's
# forward, so two are alive at once and the cap bounds memory.
# It also caps the graphs `train()` keeps: one [T_obs, N, N] graph takes
# 2.56 MB at N=200, and keeping those of a split of dense crowds would hold
# tens of MB for the whole run, so larger windows rebuild theirs per forward
CHUNK_PEDESTRIANS = 32


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


def _parameter_specs(cfg: ModelConfig) -> list[tuple[str, tuple, int | None]]:
    """(name, shape, fan_in) of each parameter tensor in checkpoint-table
    order; a PReLU slope has no fan-in and starts at PRELU_INIT."""
    c, kt, k = GAUSSIAN_CHANNELS, STGCN_TEMPORAL_KERNEL, TXP_KERNEL
    specs = [
        ("stgcn.w_spatial", (IN_FEATURES, c), IN_FEATURES),
        ("stgcn.b_spatial", (c,), IN_FEATURES),
        ("stgcn.w_temporal", (kt, c, c), kt * c),
        ("stgcn.b_temporal", (c,), kt * c),
        ("stgcn.w_residual", (IN_FEATURES, c), IN_FEATURES),
        ("stgcn.b_residual", (c,), IN_FEATURES),
        ("stgcn.prelu", (), None),
    ]
    t_in = cfg.t_obs
    for i in range(TXP_LAYERS):
        fan = t_in * k * k
        specs += [(f"txp.{i}.w", (cfg.t_pred, t_in, k, k), fan),
                  (f"txp.{i}.b", (cfg.t_pred,), fan), (f"txp.{i}.prelu", (), None)]
        t_in = cfg.t_pred
    # linear readout keeps the parameter budget near the reference size
    fan = cfg.t_pred * k * k
    specs += [("txp.out.w", (cfg.t_pred, cfg.t_pred, k, k), fan),
              ("txp.out.b", (cfg.t_pred,), fan)]
    return specs


class ModelParameters:
    """Named parameter tensors with uniform +-1/sqrt(fan_in) initialization.

    All parameters live in one float64 vector `theta`, and their gradients
    in one vector `grad`, both in checkpoint-table order. Each named tensor
    is a namespace of two views into them, `.data` and `.grad` (it is not a
    tape node), so an update, a snapshot, zeroing the gradients or a
    checkpoint is one array op. Write into those views in place: rebinding
    `.data` or `.grad` detaches the tensor from `theta`.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        specs = _parameter_specs(cfg)
        size = sum(math.prod(shape) for _, shape, _ in specs)
        self.theta = np.empty(size)
        self.grad = np.zeros(size)
        self.tensors: dict[str, SimpleNamespace] = {}
        rng = np.random.default_rng(seed)
        offset = 0
        for name, shape, fan_in in specs:
            end = offset + math.prod(shape)
            v = SimpleNamespace(data=self.theta[offset:end].reshape(shape),
                                grad=self.grad[offset:end].reshape(shape))
            if fan_in is None:
                v.data[...] = PRELU_INIT
            else:
                bound = 1.0 / np.sqrt(fan_in)
                v.data[...] = rng.uniform(-bound, bound, size=shape)
            self.tensors[name] = v
            offset = end

    def __getitem__(self, name: str) -> SimpleNamespace:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

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
            fh.write(self.theta.astype("<f8", copy=False).tobytes())

    @classmethod
    def load(cls, path) -> tuple["ModelParameters", dict]:
        """Parameters and extra config of a checkpoint, checked against the
        fixed architecture: the header's model_config holds exactly the
        horizons t_obs and t_pred."""
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
        stored = header.get("model_config")
        if not isinstance(stored, dict):
            raise ValueError(f"{path}: model_config must be an object, got {stored!r}")
        odd = [key for key in stored if key not in ("t_obs", "t_pred")]
        if odd:
            raise ValueError(f"{path}: unknown model_config key {odd[0]!r}")
        t_obs, t_pred = stored.get("t_obs"), stored.get("t_pred")  # None if absent
        # bool is an int subclass, so JSON true would pass isinstance(..., int)
        if not (type(t_obs) is type(t_pred) is int and t_obs >= 2 and t_pred >= 1):
            raise ValueError(f"{path}: model_config needs integers t_obs >= 2 and "
                             f"t_pred >= 1, got {t_obs!r} and {t_pred!r}")
        params = cls(ModelConfig(t_obs, t_pred))
        want = _tensor_table((name, v.data.shape) for name, v in params.items())
        for got_entry, want_entry in zip_longest(header["tensors"], want):
            if not _same(got_entry, want_entry):
                raise ValueError(
                    f"{path}: tensor table entry {got_entry} does not match "
                    f"the model's {want_entry}"
                )
        if len(payload) != params.theta.nbytes:
            raise ValueError(
                f"{path}: payload holds {len(payload)} bytes, the tensor table "
                f"needs {params.theta.nbytes}"
            )
        params.theta[...] = np.frombuffer(payload, dtype="<f8")
        for name, v in params.items():
            if not np.all(np.isfinite(v.data)):
                raise ValueError(f"{path}: tensor {name} holds non-finite values")
        return params, header["extra_config"]


def _columns(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """im2col columns [H*W, kh*kw*C] of x [H, W, C], zero-padded "same" for
    odd kernels only (the module constants; `ModelParameters.load` rejects
    other shapes). Column (dh, dw, c) meets row (dh, dw, c_in) of a kernel's
    matrix `w.transpose(2, 3, 1, 0).reshape(-1, C_out)`: a conv is one matmul."""
    h, wd, c = x.shape
    xp = np.zeros((h + kh - 1, wd + kw - 1, c))
    xp[kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + wd] = x
    # one strided view [H, W, kh, kw, C] of xp, element (i, j, dh, dw, c) at
    # xp[i + dh, j + dw, c], so the copy below moves runs of kw*C contiguous
    # doubles. The ndarray constructor skips sliding_window_view's argument
    # handling, which cost several times the copy at these sizes
    s0, s1, s2 = xp.strides
    cols = np.ndarray((h, wd, kh, kw, c), xp.dtype, xp, 0, (s0, s1, s0, s1, s2))
    return cols.reshape(h * wd, kh * kw * c)


def _plane_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, gaps=()) -> np.ndarray:
    """2D conv over the leading (R, F) plane with time-as-channels.

    x: [R, F, C_in], w: [C_out, C_in, k, k], b: [C_out]; zero padding k//2.
    The output rows `gaps` (pedestrian indices) are zero.
    """
    y = _columns(x, *w.shape[2:]) @ w.transpose(2, 3, 1, 0).reshape(-1, len(w))
    y = y.reshape(*x.shape[:2], len(w))
    y += b
    if gaps:
        y[gaps] = 0.0
    return y


def _plane_conv_backward(g: np.ndarray, x: np.ndarray, w: np.ndarray, gaps=()):
    """Gradients (x, w, b) of `_plane_conv(x, w, b, gaps)` whose output
    gradient is `g`; g's gap rows are zeroed in place, so they pass none.

    The input gradient is the conv of g with w flipped in space and its
    input and output channels swapped (Dumoulin & Visin 2016). x's columns
    are rebuilt for the weight gradient, so that no tape, not even an
    evaluation forward's, keeps them (0.86 MB per conv at N=200)."""
    if gaps:
        g[gaps] = 0.0
    c_out, c_in, kh, kw = w.shape
    g2 = g.reshape(-1, c_out)
    flipped = w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, c_in)
    gx = (_columns(g, kh, kw) @ flipped).reshape(x.shape)
    gw = _columns(x, kh, kw).T @ g2  # rows (dh, dw, c_in), columns c_out
    return gx, gw.reshape(kh, kw, c_in, c_out).transpose(3, 2, 0, 1), g2.sum(axis=0)


def st_gcn_forward(v: np.ndarray, graphs, params: ModelParameters, rows=None) -> Var:
    """v: [T_obs, R, C_in] -> [T_obs, R, C], one tape op.

    `graphs` holds each window's normalized [T_obs, n, n] matrix and `rows`
    its slice of the pedestrian axis; by default one window fills v. Graph
    mixing runs per window, then PReLU, the (K x 1) conv over the (T, R)
    plane with C as channels and the residual projection run once.
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
    # w_temporal [K, C_in, C_out] is already in the columns' (k, c) row order
    kt, c_in, c = wt.data.shape
    cols = _columns(act, kt, 1)
    y = (cols @ wt.data.reshape(-1, c)).reshape(act.shape)
    y = y + bt.data + (v @ wr.data + br.data)
    if gaps:
        y[:, gaps] = 0.0

    def bw(g):
        if gaps:
            g[:, gaps] = 0.0
        vt = np.swapaxes(v, -1, -2)
        gb = g.sum(axis=(0, 1))
        br.grad += gb
        wr.grad += (vt @ g).sum(axis=0)
        bt.grad += gb
        wt.grad += (cols.T @ g.reshape(-1, c)).reshape(kt, c_in, c)
        # the same conv of g with the kernel flipped in time, C_in <-> C_out
        flipped = wt.data[::-1].swapaxes(1, 2).reshape(-1, c_in)
        gact = (_columns(g, kt, 1) @ flipped).reshape(g.shape)
        slope.grad += np.sum(gact * np.where(pos, 0.0, pre))
        gpre = gact * np.where(pos, 1.0, slope.data)
        gmix = np.empty_like(gpre)
        for a, r in zip(graphs, rows):
            np.matmul(np.swapaxes(a, -1, -2), gpre[:, r], out=gmix[:, r])
        if gaps:
            gmix[:, gaps] = 0.0
        bs.grad += gmix.sum(axis=(0, 1))
        ws.grad += (vt @ gmix).sum(axis=0)

    return Var(y, None, bw)


def txp_forward(h: Var, params: ModelParameters, gaps=()) -> Var:
    """h: [T_obs, R, C] -> [T_pred, R, C], time axis treated as channels, one
    tape op: PReLU plane convs, each but the first summed with its input,
    then the linear readout conv, every conv zero in the pedestrian rows
    `gaps`. The backward runs them in reverse to h and the txp.* parameters.
    Inside, activations are [R, F, T]: pedestrian row, Gaussian feature,
    then time as the channel axis, so each im2col run is whole channel vectors.
    """
    t_obs = params.cfg.t_obs
    if h.data.shape[0] != t_obs:
        raise ValueError(f"expected {t_obs} observed frames, got {h.data.shape[0]}")
    layers = []  # per PReLU conv: parameters, input, pre-activation
    x = h.data.transpose(1, 2, 0)
    for i in range(TXP_LAYERS):
        w, b, slope = (params[f"txp.{i}.{k}"] for k in ("w", "b", "prelu"))
        pre = _plane_conv(x, w.data, b.data, gaps)
        layers.append((w, b, slope, x, pre))
        y = np.where(pre > 0, pre, slope.data * pre)
        x = y if i == 0 else y + x
    wo, bo = params["txp.out.w"], params["txp.out.b"]
    out = _plane_conv(x, wo.data, bo.data, gaps)

    def bw(g):
        # x: the readout's input
        gx, gw, gb = _plane_conv_backward(g.transpose(1, 2, 0), x, wo.data, gaps)
        wo.grad += gw
        bo.grad += gb
        for i in reversed(range(TXP_LAYERS)):
            w, b, slope, x_in, pre = layers[i]
            pos = pre > 0
            slope.grad += np.sum(gx * np.where(pos, 0.0, pre))
            gin, gw, gb = _plane_conv_backward(
                gx * np.where(pos, 1.0, slope.data), x_in, w.data, gaps
            )
            w.grad += gw
            b.grad += gb
            gx = gin if i == 0 else gx + gin  # the residual passes gx through
        # C-contiguous: the ST-GCN backward's sums follow the memory order
        return np.ascontiguousarray(gx.transpose(2, 0, 1))

    return Var(out.transpose(2, 0, 1), h, bw)


def chunks(windows, cap: int = CHUNK_PEDESTRIANS):
    """Consecutive runs of `windows` with at most `cap` pedestrians each; a
    window with more forms a chunk alone."""
    chunk, size = [], 0
    for w in windows:
        if chunk and size + w.n_peds > cap:
            yield chunk
            chunk, size = [], 0
        chunk.append(w)
        size += w.n_peds
    if chunk:
        yield chunk


def stack_windows(windows) -> tuple[np.ndarray, list[slice]]:
    """Displacements [R, T_total, 2] of the windows stacked along pedestrians,
    one zero gap row between neighbours, and each window's slice of rows."""
    if len(windows) == 1:  # a one-window chunk needs no copy
        return windows[0].displacements, [slice(0, windows[0].n_peds)]
    gap = np.zeros((1,) + windows[0].displacements.shape[1:])
    parts, rows, start = [], [], 0
    for w in windows:
        parts += [gap, w.displacements]
        rows.append(slice(start, start + w.n_peds))
        start += w.n_peds + 1
    return np.concatenate(parts[1:]), rows


def forward_chunk(windows, graph_cfg: GraphConfig, params: ModelParameters,
                  kept: dict | None = None):
    """Windows stacked as one chunk -> (raw Gaussian channels [T_pred, R, 5],
    the stacked displacements [R, T_total, 2], each window's rows).

    `kept` maps id(window) to that window's normalized graph under
    `graph_cfg`, built earlier; the other windows' graphs are built here."""
    disp, rows = stack_windows(windows)
    kept = kept or {}
    graphs = [kept[id(w)] if id(w) in kept else build_graph_sequence(w, graph_cfg)
              for w in windows]
    v = disp[:, : windows[0].t_obs].transpose(1, 0, 2)
    h = st_gcn_forward(v, graphs, params, rows)
    return txp_forward(h, params, [r.stop for r in rows[:-1]]), disp, rows


def forward_raw(window, graph_cfg: GraphConfig, params: ModelParameters) -> Var:
    """Window -> raw Gaussian channels [T_pred, N, 5]: a one-window chunk."""
    return forward_chunk([window], graph_cfg, params)[0]
