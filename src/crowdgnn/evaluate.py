"""Best-of-k ADE/FDE evaluation and report aggregation."""
from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import numpy as np

from .data import TrajectoryWindow
from .gaussian import GaussianParams, constrain, sample
from .graphs import GraphConfig
from .model import ModelParameters, chunks, forward_chunk, forward_raw

REPORT_SCHEMA_VERSION = 1


class PredictionDiverged(RuntimeError):
    """The model's raw output, samples or scores for a window are not finite."""


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


def _gaussians(raw: np.ndarray, window: TrajectoryWindow) -> GaussianParams:
    """One window's raw channels [T_pred, N, 5] -> its Gaussians [N, T_pred]."""
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


def predict_gaussians(
    window: TrajectoryWindow, graph_cfg: GraphConfig, params: ModelParameters
) -> GaussianParams:
    """Deterministic forward pass -> displacement-space Gaussians [N, T_pred]."""
    return _gaussians(forward_raw(window, graph_cfg, params).data, window)


def sample_trajectory(
    g: GaussianParams, last_observed: np.ndarray, rngs
) -> np.ndarray:
    """One absolute-position trajectory sample per generator [k, N, T_pred, 2].

    Samples a displacement per pedestrian per frame, then integrates from
    the last observed position by cumulative summation.
    """
    return last_observed[:, None, :] + np.cumsum(sample(g, rngs), axis=2)


# SeedSequence's output hash (numpy.random.bit_generator, after O'Neill's
# seed_seq_fe) turns its entropy pool into state words: word i is pool word
# i % 4, xor the i-th constant, times the next one, then xor itself shifted
# right by 16. PCG64 seeds from 4 uint64, that is 8 uint32 words
_POOL_WORDS = 4  # SeedSequence's default pool size
_PCG64_WORDS = 8
_HASH_CONSTS = np.array(
    [0x8B51F9DD * 0x58F38DED**i & 0xFFFFFFFF for i in range(_PCG64_WORDS + 1)],
    np.uint32,
)


class _SeedWords:
    """Hands PCG64 the state words a SeedSequence would generate; registered
    as a numpy `ISeedSequence` when `sample_generators` first runs."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _uint32_words(n: int) -> list[int]:
    """n as SeedSequence splits an integer: little-endian 32-bit words."""
    words = [n & 0xFFFFFFFF]
    while n > 0xFFFFFFFF:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def sample_generators(seed: int, window_id: str, k: int) -> list[np.random.Generator]:
    """The k sample generators of one window, independent of the others.

    Generator s draws the stream of
    `default_rng(SeedSequence([seed, crc32(window_id), s]))`. numpy mixes
    each entropy pool in C; the output hash that turns a pool into PCG64's
    seed words then runs once over all k pools instead of once per sample.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # imported on first use, as numpy itself does: imported with this
    # module, numpy.random's allocations moved the heap layout, and with it
    # whether glibc trims and re-faults the heap on every 200-pedestrian
    # call after dense-crowd training
    from numpy.random import PCG64, SeedSequence
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)
    prefix = _uint32_words(seed) + [zlib.crc32(window_id.encode("utf-8"))]
    # row s: the words SeedSequence makes of [seed, crc32, s]; s < 2**32 is
    # one word
    entropy = np.empty((k, len(prefix) + 1), np.uint32)
    entropy[:, :-1] = prefix
    entropy[:, -1] = np.arange(k)
    pools = np.array([SeedSequence(row).pool for row in entropy], np.uint32)
    pools = pools.reshape(k, _POOL_WORDS)
    words = np.tile(pools, _PCG64_WORDS // _POOL_WORDS) ^ _HASH_CONSTS[:-1]
    words *= _HASH_CONSTS[1:]
    words ^= words >> 16
    state = words.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(PCG64(_SeedWords(row))) for row in state]


def _score(window, g: GaussianParams, k: int, seed: int,
           independent_min: bool) -> tuple[float, float]:
    """Draw k trajectory samples from `g`; the ADE-best sample's (ade, fde),
    or with `independent_min` the minimum of each over the samples; both
    finite, or PredictionDiverged names the window."""
    truth = window.future_positions()
    last_obs = window.positions[:, window.t_obs - 1]
    preds = sample_trajectory(g, last_obs, sample_generators(seed, window.window_id, k))
    ades, fdes = ade(preds, truth), fde(preds, truth)
    best = int(np.argmin(ades))
    a, f = (ades.min(), fdes.min()) if independent_min else (ades[best], fdes[best])
    if not (np.isfinite(a) and np.isfinite(f)):
        raise PredictionDiverged(f"window {window.window_id}: non-finite ADE {a} or FDE {f}")
    return float(a), float(f)


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
    return _score(window, g, k, seed, independent_min)


def evaluate(
    windows: list[TrajectoryWindow],
    graph_cfg: GraphConfig,
    params: ModelParameters,
    k: int = 20,
    seed: int = 0,
    independent_min: bool = False,
    config_echo: dict | None = None,
) -> MetricsReport:
    """`best_of_k` of every window, with the windows run as chunks (see
    `model.chunks`): one forward per chunk, each window scored from its rows."""
    if k < 1:
        raise ValueError("k must be >= 1")
    per_window = []
    for chunk in chunks(windows):
        raw, _, rows = forward_chunk(chunk, graph_cfg, params)
        # as in best_of_k, the forward's tape goes before sampling and
        # nothing of a chunk outlives it: holding the tape through sampling
        # raises a 200-pedestrian window's heap peak above best_of_k's
        raw = raw.data
        for w, r in zip(chunk, rows):
            a, f = _score(w, _gaussians(raw[:, r], w), k, seed, independent_min)
            per_window.append(WindowMetrics(w.window_id, a, f))
        del raw
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
