"""Kernel-weighted interaction graphs over pedestrian scenes.

Each observed frame gets a weighted adjacency matrix: a distance kernel
(inverse norm or exponential decay) gated by a neighborhood predicate
(field-of-view dot product, 5 m distance threshold, approach dynamics, or
the complete-graph baseline), then normalized in place (Laplacian or
adjacency) for the graph convolution.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import InputError, TrajectoryWindow

# most entries in one pairwise float temporary of `graph_adjacency` (0.5 MB):
# two whole [T_obs, N, N] ones (2.56 MB each at N=200) took an evaluation
# call past glibc's 5.12 MB heap trim threshold, so each call re-faulted
PAIRWISE_BLOCK = 1 << 16


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
        # bool is an int subclass, so JSON true would pass as a number
        if (isinstance(self.epsilon, bool) or not isinstance(self.epsilon, (int, float))
                or not self.epsilon > 0):  # also rejects NaN
            raise InputError(f"epsilon must be a positive number, got {self.epsilon!r}")
        if not isinstance(self.self_loops, bool):
            raise InputError(f"self_loops must be a bool, got {self.self_loops!r}")

    def to_dict(self) -> dict:
        return {k: v.value if isinstance(v, Enum) else v for k, v in self.__dict__.items()}


def social_stgcnn_baseline_config() -> GraphConfig:
    """Complete graph + inverse-norm kernel, self-loops, normalized adjacency."""
    return GraphConfig(
        neighborhood=Neighborhood.COMPLETE,
        kernel=Kernel.INVERSE_NORM,
        self_loops=True,
        normalization=Normalization.SYMMETRIC_ADJACENCY,
    )


def graph_adjacency(window: TrajectoryWindow, cfg: GraphConfig) -> np.ndarray:
    """Gated, kernel-weighted adjacency [T_obs, N, N], self-loops included."""
    n, t_obs = window.n_peds, window.t_obs
    nb = cfg.neighborhood
    step = max(1, PAIRWISE_BLOCK // (n * n))
    blocks = [slice(t, t + step) for t in range(0, t_obs, step)]
    # a C-contiguous [T_obs, N, 2] copy keeps every later buffer C-ordered,
    # so each degree row sum adds in the same order as one frame summed alone
    pos = np.ascontiguousarray(window.positions[:, :t_obs].transpose(1, 0, 2))
    x, y = pos[..., 0], pos[..., 1]
    dist = x[..., :, None] - x[..., None, :]
    dist *= dist
    for b in blocks:
        dy = y[b, :, None] - y[b, None, :]
        dy *= dy
        dist[b] += dy
    np.sqrt(dist, out=dist)
    # the diagonal distance is exactly 0, so this drops self-edges and
    # coincident pedestrians, whose kernel weight is undefined
    gate = dist != 0.0
    if nb in (Neighborhood.VIEW, Neighborhood.VIEW_THRESH, Neighborhood.VIEW_APPROACH):
        v = window.displacements[:, :t_obs].transpose(1, 0, 2)  # [T_obs, N, 2]
        for b in blocks:  # walking directions with a positive dot product
            dot = v[b, :, None, 0] * v[b, None, :, 0]
            dot += v[b, :, None, 1] * v[b, None, :, 1]
            gate[b] &= dot > 0
    if nb is Neighborhood.VIEW_THRESH:
        gate &= dist < cfg.epsilon
    if nb in (Neighborhood.APPROACH, Neighborhood.VIEW_APPROACH):
        # distance change to the next frame; the last observed frame has no
        # observable successor, so it reuses the change from its predecessor
        if cfg.approach_sense is ApproachSense.AS_PROSE:
            change = dist[1:] < dist[:-1]
        else:
            change = dist[1:] > dist[:-1]
        gate[:-1] &= change
        gate[-1] &= change[-1]

    if cfg.kernel is Kernel.INVERSE_NORM:
        with np.errstate(divide="ignore"):
            adjacency = np.divide(1.0, dist, out=dist)
    else:
        adjacency = np.exp(np.negative(dist, out=dist), out=dist)
    np.copyto(adjacency, 0.0, where=~gate)
    if cfg.self_loops:
        adjacency[:, np.arange(n), np.arange(n)] += 1.0
    return adjacency


def build_graph_sequence(window: TrajectoryWindow, cfg: GraphConfig) -> np.ndarray:
    """Normalized graph matrices [T_obs, N, N] of every observed frame, built
    in place in the `graph_adjacency` buffer."""
    normalized = graph_adjacency(window, cfg)
    degree = normalized.sum(axis=2)
    # zero-degree guard: isolated nodes keep their (zero or self-loop) row
    d_inv_sqrt = 1.0 / np.sqrt(np.where(degree > 0, degree, 1.0))
    if cfg.normalization is Normalization.PAPER_LAPLACIAN:
        # D - A: subtracting from +0.0 keeps the off-diagonal zeros +0.0
        np.subtract(0.0, normalized, out=normalized)
        i = np.arange(window.n_peds)
        normalized[:, i, i] += degree
    normalized *= d_inv_sqrt[..., :, None]
    normalized *= d_inv_sqrt[..., None, :]
    return normalized
