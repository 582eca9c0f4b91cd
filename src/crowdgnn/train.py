"""SGD training loop over chunks of stacked windows.

Windows carry heterogeneous pedestrian counts. Each shuffled batch is cut,
in order, into chunks of at most `model.CHUNK_PEDESTRIANS` pedestrians (the
chunk cap, a throughput setting); a chunk is one forward and one backward
over its windows stacked along the pedestrian axis (see `model`). The
gradients of a batch's chunks accumulate into one parameter update at the
scheduled learning rate.

A graph depends only on its window and the `GraphConfig`, so one `train()`
call builds the graph of each train and validation window of at most
`model.KEPT_GRAPH_PEDESTRIANS` pedestrians (the graph cap, a memory
setting) once, before its first epoch, and reuses it in every epoch. A
larger window's graph is built on each of its forwards, in whatever chunk
it runs.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import DatasetSplit
from .gaussian import constrain, mean_nll, nll
from .graphs import GraphConfig, build_graph_sequence
from .model import (
    KEPT_GRAPH_PEDESTRIANS, ModelConfig, ModelParameters, chunks, forward_chunk,
)


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 250
    batch_size: int = 128
    lr_initial: float = 0.01
    lr_after: float = 0.002
    lr_switch_epoch: int = 150
    seed: int = 0
    clip_norm: float | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.clip_norm is not None and not self.clip_norm > 0:  # NaN too
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        if not (0 < self.lr_after <= self.lr_initial < float("inf")):  # NaN too
            raise ValueError(
                f"require finite 0 < lr_after <= lr_initial, got lr_after={self.lr_after}, "
                f"lr_initial={self.lr_initial}")
        if not (1 <= self.lr_switch_epoch <= self.epochs):
            raise ValueError("lr_switch_epoch must be in [1, epochs]")

    def lr_at(self, epoch: int) -> float:
        """Learning rate for a 1-based epoch index."""
        return self.lr_initial if epoch <= self.lr_switch_epoch else self.lr_after

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class EpochRecord:
    epoch: int
    train_nll: float
    val_nll: float
    lr: float


def kept_graphs(windows, graph_cfg: GraphConfig) -> dict[int, np.ndarray]:
    """The normalized graphs under `graph_cfg` of the `windows` with at most
    KEPT_GRAPH_PEDESTRIANS pedestrians (the graph cap), read-only, keyed by
    the window's id (the dataclass is unhashable and window ids can repeat);
    the caller keeps the windows alive while it keeps the dict. The graph
    cap is independent of the chunk cap: a window above it may still share a
    chunk with smaller ones, and its graph is built by that chunk's forward.

    `train()` builds them all before its first epoch. Built on first use
    instead, among the first epoch's dense-crowd temporaries, they left a
    heap on which 200-pedestrian evaluation after training re-faulted its
    pages on every call in some runs.
    """
    kept = {}
    for w in windows:
        if w.n_peds <= KEPT_GRAPH_PEDESTRIANS and id(w) not in kept:
            a = build_graph_sequence(w, graph_cfg)
            a.flags.writeable = False  # shared by every epoch
            kept[id(w)] = a
    return kept


def chunk_nll(windows, graph_cfg: GraphConfig, params: ModelParameters,
              kept: dict | None = None):
    """Loss of `windows` run as one chunk: a tape node whose value is the sum
    of their mean NLLs per (pedestrian, predicted frame), and those means.

    `kept` holds graphs from `kept_graphs`. A non-finite raw output or mean
    NLL raises ValueError naming the first window that has one."""
    raw, disp, rows = forward_chunk(windows, graph_cfg, params, kept)
    target = disp[:, windows[0].t_obs :].transpose(1, 0, 2)  # [T_pred, R, 2]
    try:
        loss, means = mean_nll(raw, target, rows)
    except ValueError as exc:  # constrain found a non-finite raw value
        for w, r in zip(windows, rows):
            part = raw.data[:, r]
            if not np.all(np.isfinite(part)):
                raise ValueError(f"window {w.window_id}: {exc}") from exc
            if not np.isfinite(nll(target[:, r], *constrain(part)).sum()):
                raise ValueError(f"window {w.window_id}: non-finite NLL") from exc
        raise
    for w, m in zip(windows, means):
        if not np.isfinite(m):
            raise ValueError(f"window {w.window_id}: non-finite NLL")
    return loss, means


def window_nll(window, graph_cfg: GraphConfig, params: ModelParameters,
               kept: dict | None = None):
    """Mean NLL per (pedestrian, predicted frame) for one window, as a Var."""
    return chunk_nll([window], graph_cfg, params, kept)[0]


def sgd_step(params: ModelParameters, lr: float, cfg: TrainConfig) -> None:
    """theta <- theta - lr * g, with optional global-norm clipping."""
    g = params.grad
    if cfg.clip_norm is not None:
        # summed per tensor in table order: one `g @ g` sums in another order
        # and moves clipped runs in the last bits
        total = np.sqrt(sum(float(np.sum(v.grad * v.grad)) for _, v in params.items()))
        if total > cfg.clip_norm:
            g = g * (cfg.clip_norm / total)
    params.theta -= lr * g


def evaluate_nll(windows, graph_cfg: GraphConfig, params: ModelParameters,
                 kept: dict | None = None) -> float:
    """Mean over windows of per-window mean NLL (no sampling)."""
    if not windows:
        return float("nan")
    vals = [float(window_nll(w, graph_cfg, params, kept).data) for w in windows]
    return float(np.mean(vals))


def train(
    split: DatasetSplit,
    graph_cfg: GraphConfig,
    cfg: TrainConfig,
    model_cfg: ModelConfig | None = None,
    ckpt_path=None,
    log=None,
) -> tuple[ModelParameters, list[EpochRecord]]:
    """Train on split.train, track validation NLL, keep the best checkpoint.

    Returns the best parameters (by validation NLL; train NLL when the
    validation set is empty) and the per-epoch loss history.
    """
    if not split.train:
        raise ValueError("training split is empty")
    model_cfg = model_cfg or ModelConfig()
    params = ModelParameters(model_cfg, seed=cfg.seed)
    history: list[EpochRecord] = []
    best_nll = np.inf
    best_theta = params.theta.copy()
    kept = kept_graphs(split.train + split.val, graph_cfg)

    extra = {"graph_config": graph_cfg.to_dict(), "train_config": cfg.to_dict()}
    n_train = len(split.train)
    for epoch in range(1, cfg.epochs + 1):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch]))
        order = rng.permutation(n_train)
        lr = cfg.lr_at(epoch)
        epoch_losses = []
        for start in range(0, n_train, cfg.batch_size):
            batch = [split.train[i] for i in order[start : start + cfg.batch_size]]
            params.grad.fill(0.0)
            for chunk in chunks(batch):
                try:
                    loss, nlls = chunk_nll(chunk, graph_cfg, params, kept)
                except ValueError as exc:
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, {exc}"
                    ) from exc
                epoch_losses.extend(nlls.tolist())
                # `loss` keeps this tape alive through the next chunk's
                # forward, as the per-window loop did: freeing it first left
                # the heap top free after every dense-crowd chunk, and glibc
                # trimmed and re-faulted it each time
                loss.backward(1.0 / len(batch))
            sgd_step(params, lr, cfg)

        train_nll = float(np.mean(epoch_losses))
        try:
            val_nll = evaluate_nll(split.val, graph_cfg, params, kept)
        except ValueError as exc:
            raise TrainingDiverged(
                f"non-finite validation loss at epoch {epoch}: {exc}"
            ) from exc
        if split.val and not np.isfinite(val_nll):
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
        history.append(EpochRecord(epoch, train_nll, val_nll, lr))
        select = val_nll if split.val else train_nll
        if select < best_nll:
            best_nll = select
            best_theta = params.theta.copy()
            if ckpt_path is not None:
                params.save(ckpt_path, extra_config=extra)
        if log is not None:
            log(history[-1])

    params.theta[...] = best_theta
    return params, history


def write_history_csv(path, history: list[EpochRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_nll", "val_nll", "lr"])
        for rec in history:
            writer.writerow([rec.epoch, repr(rec.train_nll), repr(rec.val_nll), rec.lr])
