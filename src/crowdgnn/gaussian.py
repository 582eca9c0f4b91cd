"""Bivariate-Gaussian output head: parameter constraints, NLL, sampling.

The network emits 5 raw channels per pedestrian per predicted frame
(mu_x, mu_y, log sigma_x, log sigma_y, pre-tanh rho). Gaussians live in
displacement space; the evaluator integrates samples back to absolute
positions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Var, clamp

RHO_MAX = 1.0 - 1e-6
LOG_TWO_PI = math.log(2.0 * math.pi)


@dataclass
class GaussianParams:
    mu: np.ndarray  # [..., 2]
    sigma: np.ndarray  # [..., 2], positive
    rho: np.ndarray  # [...], in (-1, 1)


def constrain(raw: Var) -> tuple[Var, Var, Var]:
    """Map raw [..., 5] outputs to (mu [..., 2], sigma [..., 2], rho [...]).

    sigma via exp, rho via tanh clamped to |rho| <= 1 - 1e-6 so the
    log-determinant stays finite.
    """
    if not np.all(np.isfinite(raw.data)):
        raise ValueError("non-finite raw Gaussian parameters")
    mu = raw[..., 0:2]
    sigma = raw[..., 2:4].exp()
    rho = clamp(raw[..., 4].tanh(), -RHO_MAX, RHO_MAX)
    return mu, sigma, rho


def nll(target: np.ndarray, mu: Var, sigma: Var, rho: Var) -> Var:
    """Elementwise negative log-likelihood, shape [...] (nats per point)."""
    dx = Var(np.asarray(target)[..., 0]) - mu[..., 0]
    dy = Var(np.asarray(target)[..., 1]) - mu[..., 1]
    sx = sigma[..., 0]
    sy = sigma[..., 1]
    one_minus_r2 = 1.0 - rho * rho
    z = (dx / sx) ** 2 + (dy / sy) ** 2 - 2.0 * rho * dx * dy / (sx * sy)
    return (
        LOG_TWO_PI
        + sx.log()
        + sy.log()
        + 0.5 * one_minus_r2.log()
        + z / (2.0 * one_minus_r2)
    )


def cholesky_factor(sigma: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of [[sx^2, r sx sy], [r sx sy, sy^2]], shape [..., 2, 2]."""
    sx, sy = sigma[..., 0], sigma[..., 1]
    zeros = np.zeros_like(sx)
    row0 = np.stack([sx, zeros], axis=-1)
    row1 = np.stack([rho * sy, sy * np.sqrt(1.0 - rho * rho)], axis=-1)
    return np.stack([row0, row1], axis=-2)


def sample(g: GaussianParams, rng: np.random.Generator) -> np.ndarray:
    """Draw one point per Gaussian: mu + Chol(Sigma) z, z ~ N(0, I)."""
    chol = cholesky_factor(g.sigma, g.rho)
    z = rng.standard_normal(g.mu.shape)
    return g.mu + np.einsum("...ij,...j->...i", chol, z)
