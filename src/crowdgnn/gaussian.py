"""Bivariate-Gaussian output head: parameter constraints, NLL, the fused
training loss and sampling.

The network emits 5 raw channels per pedestrian per predicted frame
(mu_x, mu_y, log sigma_x, log sigma_y, pre-tanh rho). Gaussians live in
displacement space; the evaluator integrates samples back to absolute
positions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Var

RHO_MAX = 1.0 - 1e-6
LOG_TWO_PI = math.log(2.0 * math.pi)


@dataclass
class GaussianParams:
    mu: np.ndarray  # [..., 2]
    sigma: np.ndarray  # [..., 2], positive
    rho: np.ndarray  # [...], in (-1, 1)


def constrain(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map raw [..., 5] outputs to (mu [..., 2], sigma [..., 2], rho [...]).

    sigma via exp, rho via tanh clipped to |rho| <= 1 - 1e-6 so the
    log-determinant stays finite.
    """
    if not np.all(np.isfinite(raw)):
        raise ValueError("non-finite raw Gaussian parameters")
    rho = np.clip(np.tanh(raw[..., 4]), -RHO_MAX, RHO_MAX)
    return raw[..., 0:2], np.exp(raw[..., 2:4]), rho


def nll(
    target: np.ndarray, mu: np.ndarray, sigma: np.ndarray, rho: np.ndarray
) -> np.ndarray:
    """Elementwise negative log-likelihood, shape [...] (nats per point)."""
    target = np.asarray(target)
    dx = target[..., 0] - mu[..., 0]
    dy = target[..., 1] - mu[..., 1]
    sx = sigma[..., 0]
    sy = sigma[..., 1]
    one_minus_r2 = 1.0 - rho * rho
    z = (dx / sx) ** 2 + (dy / sy) ** 2 - 2.0 * rho * dx * dy / (sx * sy)
    return (
        LOG_TWO_PI
        + np.log(sx)
        + np.log(sy)
        + 0.5 * np.log(one_minus_r2)
        + z / (2.0 * one_minus_r2)
    )


def mean_nll(raw: Var, target: np.ndarray, rows=None) -> tuple[Var, np.ndarray]:
    """Per-window mean of `nll` over raw [..., R, 5], as one tape node.

    `rows` are the windows' slices of the pedestrian axis R; by default one
    window holds every point. Returns the node, whose value is the sum of
    the per-window means, and those means. Each point weighs 1/(its
    window's point count); points outside every window (gap rows) weigh 0.

    The backward is the closed-form gradient of nll(constrain(raw)) per
    point, times its weight. With sx = e^raw2, sy = e^raw3,
    a = (tx - raw0) / sx, b = (ty - raw1) / sy, q = 1 - rho^2,
    z = a^2 + b^2 - 2 rho a b, ua = (a - rho b) / q and ub = (b - rho a) / q:
    d raw0 = -ua / sx, d raw1 = -ub / sy, d raw2 = 1 - a ua,
    d raw3 = 1 - b ub and d raw4 = (rho z / q - rho - a b) / q * tanh'.
    Where rho is not clipped, tanh' = 1 - rho^2 = q cancels the division;
    where it is (|tanh| >= RHO_MAX), d raw4 is 0.
    """
    target = np.asarray(target)
    mu, sigma, rho = constrain(raw.data)
    per_point = nll(target, mu, sigma, rho)
    windows = [Ellipsis] if rows is None else [(..., r) for r in rows]
    weight = np.zeros_like(per_point)
    means = np.empty(len(windows))
    for i, idx in enumerate(windows):
        points = per_point[idx]
        scale = 1.0 / points.size
        means[i] = points.sum() * scale
        weight[idx] = scale

    def bw(g):
        sx, sy = sigma[..., 0], sigma[..., 1]
        a = (target[..., 0] - mu[..., 0]) / sx
        b = (target[..., 1] - mu[..., 1]) / sy
        q = 1.0 - rho * rho
        ua = (a - rho * b) / q
        ub = (b - rho * a) / q
        z = a * a + b * b - 2.0 * rho * a * b
        d_rho = np.where(np.abs(rho) < RHO_MAX, rho * z / q - rho - a * b, 0.0)
        grad = np.stack(
            [-ua / sx, -ub / sy, 1.0 - a * ua, 1.0 - b * ub, d_rho], axis=-1
        )
        return grad * (g * weight)[..., None]

    return Var(means.sum(), raw, bw), means


def sample(g: GaussianParams, rngs) -> np.ndarray:
    """Draw one point per Gaussian from each generator: mu + L z.

    z ~ N(0, I) of shape mu.shape is drawn from each generator in turn into
    one [len(rngs), *mu.shape] array. L is the lower Cholesky factor of
    [[sx^2, r sx sy], [r sx sy, sy^2]]: L00 = sx, L10 = r sy and
    L11 = sy sqrt(1 - r^2), applied entry by entry.
    """
    z = np.empty((len(rngs),) + g.mu.shape)
    for rng, out in zip(rngs, z):
        rng.standard_normal(out=out)
    sx, sy = g.sigma[..., 0], g.sigma[..., 1]
    z0, z1 = z[..., 0], z[..., 1]
    z[..., 1] = g.rho * sy * z0 + sy * np.sqrt(1.0 - g.rho * g.rho) * z1
    z[..., 0] = sx * z0
    z += g.mu
    return z
