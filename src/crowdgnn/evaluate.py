"""Best-of-k ADE/FDE evaluation and report aggregation."""
from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import numpy as np

from .data import TrajectoryWindow
from .gaussian import GaussianParams, constrain, sample
from .graphs import GraphConfig
from .model import ModelParameters, forward_raw

REPORT_SCHEMA_VERSION = 1


class PredictionDiverged(RuntimeError):
    """The model's raw output for a window is not finite."""


@dataclass
class WindowMetrics:
    window_id: str
    ade: float
    fde: float


@dataclass
class MetricsReport:
    per_window: list[WindowMetrics]
    ade_mean: float
    fde_mean: float
    config_echo: dict
    n_samples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "per_window": [
                {"window_id": m.window_id, "ade": m.ade, "fde": m.fde}
                for m in self.per_window
            ],
            "aggregate": {"ade_mean": self.ade_mean, "fde_mean": self.fde_mean},
            "config_echo": self.config_echo,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


def ade(pred: np.ndarray, truth: np.ndarray):
    """Mean L2 error over all pedestrians and predicted steps: a float for one
    prediction [N, T, 2] and an array [k] for k predictions [k, N, T, 2]."""
    return _mean_error(pred, truth, slice(None))


def fde(pred: np.ndarray, truth: np.ndarray):
    """Mean L2 error at the final predicted step only; shapes as in `ade`."""
    return _mean_error(pred, truth, slice(-1, None))


def _mean_error(pred: np.ndarray, truth: np.ndarray, steps: slice):
    if pred.shape[-3:] != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    err = np.linalg.norm(pred[..., steps, :] - truth[:, steps], axis=-1)
    return float(err.mean()) if err.ndim == 2 else err.mean(axis=(-2, -1))


def predict_gaussians(
    window: TrajectoryWindow, graph_cfg: GraphConfig, params: ModelParameters
) -> GaussianParams:
    """Deterministic forward pass -> displacement-space Gaussians [N, T_pred]."""
    raw = forward_raw(window, graph_cfg, params).data
    try:
        mu, sigma, rho = constrain(raw)
    except ValueError as exc:
        raise PredictionDiverged(f"window {window.window_id}: {exc}") from exc
    # [T_pred, N, ...] -> [N, T_pred, ...]
    return GaussianParams(
        mu=mu.transpose(1, 0, 2),
        sigma=sigma.transpose(1, 0, 2),
        rho=rho.T,
    )


def sample_trajectory(
    g: GaussianParams, last_observed: np.ndarray, rngs
) -> np.ndarray:
    """One absolute-position trajectory sample per generator [k, N, T_pred, 2].

    Samples a displacement per pedestrian per frame, then integrates from
    the last observed position by cumulative summation.
    """
    return last_observed[:, None, :] + np.cumsum(sample(g, rngs), axis=2)


def sample_generators(seed: int, window_id: str, k: int) -> list[np.random.Generator]:
    """The k sample generators of one window, independent of the others."""
    h = zlib.crc32(window_id.encode("utf-8"))
    return [
        np.random.default_rng(np.random.SeedSequence([seed, h, s])) for s in range(k)
    ]


def best_of_k(
    window: TrajectoryWindow,
    graph_cfg: GraphConfig,
    params: ModelParameters,
    k: int = 20,
    seed: int = 0,
    independent_min: bool = False,
) -> tuple[float, float]:
    """Draw k trajectory samples; report the ADE-best sample's (ade, fde).

    With `independent_min`, ADE and FDE are minimized over samples
    independently (the alternative convention some baselines use).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    g = predict_gaussians(window, graph_cfg, params)
    truth = window.future_positions()
    last_obs = window.positions[:, window.t_obs - 1]
    preds = sample_trajectory(g, last_obs, sample_generators(seed, window.window_id, k))
    ades, fdes = ade(preds, truth), fde(preds, truth)
    if independent_min:
        return float(ades.min()), float(fdes.min())
    best = int(np.argmin(ades))
    return float(ades[best]), float(fdes[best])


def evaluate(
    windows: list[TrajectoryWindow],
    graph_cfg: GraphConfig,
    params: ModelParameters,
    k: int = 20,
    seed: int = 0,
    independent_min: bool = False,
    config_echo: dict | None = None,
) -> MetricsReport:
    per_window = []
    for w in windows:
        a, f = best_of_k(w, graph_cfg, params, k=k, seed=seed,
                         independent_min=independent_min)
        per_window.append(WindowMetrics(w.window_id, a, f))
    ade_mean = float(np.mean([m.ade for m in per_window])) if per_window else float("nan")
    fde_mean = float(np.mean([m.fde for m in per_window])) if per_window else float("nan")
    echo = dict(config_echo or {})
    echo.setdefault("graph_config", graph_cfg.to_dict())
    return MetricsReport(
        per_window=per_window,
        ade_mean=ade_mean,
        fde_mean=fde_mean,
        config_echo=echo,
        n_samples=k,
        seed=seed,
    )
