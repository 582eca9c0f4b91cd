"""Kernel-weighted interaction graphs over pedestrian scenes.

Each observed frame gets a weighted adjacency matrix: a distance kernel
(inverse norm or exponential decay) gated by a neighborhood predicate
(field-of-view dot product, 5 m distance threshold, approach dynamics, or
the complete-graph baseline), then degree and normalized-Laplacian
matrices for the graph convolution.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import TrajectoryWindow


class Neighborhood(str, Enum):
    VIEW = "view"
    VIEW_THRESH = "view-thresh"
    APPROACH = "approach"
    VIEW_APPROACH = "view-approach"
    COMPLETE = "complete"


class Kernel(str, Enum):
    INVERSE_NORM = "inv"
    EXP_DECAY = "exp"


class ApproachSense(str, Enum):
    # prose semantics: connected when the pairwise distance is decreasing
    AS_PROSE = "prose"
    # the typeset inequality: connected when the distance is increasing
    AS_PRINTED = "printed"


class Normalization(str, Enum):
    PAPER_LAPLACIAN = "laplacian"  # D^{-1/2} (D - A) D^{-1/2}
    SYMMETRIC_ADJACENCY = "sym-adj"  # D^{-1/2} A D^{-1/2}


@dataclass
class GraphConfig:
    neighborhood: Neighborhood = Neighborhood.VIEW
    kernel: Kernel = Kernel.INVERSE_NORM
    epsilon: float = 5.0
    approach_sense: ApproachSense = ApproachSense.AS_PROSE
    self_loops: bool = False
    normalization: Normalization = Normalization.PAPER_LAPLACIAN

    def __post_init__(self):
        self.neighborhood = Neighborhood(self.neighborhood)
        self.kernel = Kernel(self.kernel)
        self.approach_sense = ApproachSense(self.approach_sense)
        self.normalization = Normalization(self.normalization)
        if not self.epsilon > 0:  # also rejects NaN
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    def to_dict(self) -> dict:
        return {
            "neighborhood": self.neighborhood.value,
            "kernel": self.kernel.value,
            "epsilon": self.epsilon,
            "approach_sense": self.approach_sense.value,
            "self_loops": self.self_loops,
            "normalization": self.normalization.value,
        }


@dataclass
class GraphSequence:
    adjacency: np.ndarray  # [T_obs, N, N]
    degree: np.ndarray  # [T_obs, N]
    normalized: np.ndarray  # [T_obs, N, N]


def social_stgcnn_baseline_config() -> GraphConfig:
    """Complete graph + inverse-norm kernel, self-loops, normalized adjacency."""
    return GraphConfig(
        neighborhood=Neighborhood.COMPLETE,
        kernel=Kernel.INVERSE_NORM,
        self_loops=True,
        normalization=Normalization.SYMMETRIC_ADJACENCY,
    )


def _approach_frames(t: int, t_obs: int) -> tuple[int, int]:
    """Frame pair (later, earlier) whose distances the approach gate compares.

    The last observed frame has no observable successor, so it falls back
    to the change from the previous frame.
    """
    if t + 1 <= t_obs - 1:
        return t + 1, t
    return t, t - 1


def adjacency_at_frame(
    window: TrajectoryWindow, t: int, cfg: GraphConfig
) -> np.ndarray:
    """Full [N, N] weighted adjacency at one observed frame."""
    dist = _pairwise_dist(window.positions[:, t])
    nonzero = dist != 0.0
    if cfg.kernel is Kernel.INVERSE_NORM:
        with np.errstate(divide="ignore"):
            weights = np.where(nonzero, 1.0 / dist, 0.0)
    else:
        weights = np.where(nonzero, np.exp(-dist), 0.0)

    gate = ~np.eye(window.n_peds, dtype=bool)
    nb = cfg.neighborhood
    if nb in (Neighborhood.VIEW, Neighborhood.VIEW_THRESH, Neighborhood.VIEW_APPROACH):
        v = window.displacements[:, t]  # [N, 2]
        gate &= (v[:, None, 0] * v[None, :, 0] + v[:, None, 1] * v[None, :, 1]) > 0
    if nb is Neighborhood.VIEW_THRESH:
        gate &= dist < cfg.epsilon
    if nb in (Neighborhood.APPROACH, Neighborhood.VIEW_APPROACH):
        t_later, t_earlier = _approach_frames(t, window.t_obs)
        d_later = _pairwise_dist(window.positions[:, t_later])
        d_earlier = _pairwise_dist(window.positions[:, t_earlier])
        if cfg.approach_sense is ApproachSense.AS_PROSE:
            gate &= d_later < d_earlier
        else:
            gate &= d_later > d_earlier

    return np.where(gate, weights, 0.0)


def _pairwise_dist(pos: np.ndarray) -> np.ndarray:
    diff = pos[:, None, :] - pos[None, :, :]
    return np.sqrt(diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1])


def normalize_adjacency(adjacency: np.ndarray, cfg: GraphConfig):
    """Degree vector and normalized mixing matrix for one frame."""
    degree = adjacency.sum(axis=1)
    # zero-degree guard: isolated nodes keep their (zero or self-loop) row
    safe = np.where(degree > 0, degree, 1.0)
    d_inv_sqrt = 1.0 / np.sqrt(safe)
    if cfg.normalization is Normalization.PAPER_LAPLACIAN:
        lap = np.diag(degree) - adjacency
        normalized = d_inv_sqrt[:, None] * lap * d_inv_sqrt[None, :]
    else:
        normalized = d_inv_sqrt[:, None] * adjacency * d_inv_sqrt[None, :]
    return degree, normalized


def build_graph_sequence(window: TrajectoryWindow, cfg: GraphConfig) -> GraphSequence:
    n, t_obs = window.n_peds, window.t_obs
    adjacency = np.empty((t_obs, n, n))
    degree = np.empty((t_obs, n))
    normalized = np.empty((t_obs, n, n))
    eye = np.eye(n)
    for t in range(t_obs):
        a = adjacency_at_frame(window, t, cfg)
        if cfg.self_loops:
            a = a + eye
        adjacency[t] = a
        degree[t], normalized[t] = normalize_adjacency(a, cfg)
    return GraphSequence(adjacency=adjacency, degree=degree, normalized=normalized)
