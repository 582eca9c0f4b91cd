"""Seeded dense-crowd scene generator for the ``dense-train`` workload.

Writes ETH/UCY text (``frame_id ped_id x y``, frame stride 10) so the
benchmark's set-up runs the real parser. Each scene is a run of segments
separated by a one-frame gap, which the windowing skips. Within a segment
a fixed crowd of ``n`` pedestrians is present at every frame, so every
window cut from it has exactly ``n`` pedestrians. The crowd sizes are
fixed and the seed only moves people, so the work per epoch barely depends
on the seed.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

SCENES = ("plaza_a", "plaza_b", "plaza_c", "plaza_d")
HELD_OUT = "plaza_d"
# one segment per size; an odd count keeps the median latency inside one
# size instead of between two
CROWD_SIZES = (10, 25, 50, 100, 200)
WINDOWS_PER_SEGMENT = 3
T_TOTAL = 20  # T_obs + T_pred of the default model
FRAME_STRIDE = 10
DT = 0.4  # seconds per frame
DENSITY = 0.5  # pedestrians per square meter


def simulate_segment(n: int, n_frames: int, rng: np.random.Generator) -> np.ndarray:
    """Positions [n_frames, n, 2] of ``n`` walkers in four crossing flows."""
    side = np.sqrt(n / DENSITY)
    pos = rng.uniform(0.0, side, size=(n, 2))
    heading = rng.integers(0, 4, size=n) * (np.pi / 2) + rng.normal(0.0, 0.3, size=n)
    speed = rng.uniform(0.8, 1.5, size=n) * DT
    vel = speed[:, None] * np.stack([np.cos(heading), np.sin(heading)], axis=1)
    out = np.empty((n_frames, n, 2))
    for f in range(n_frames):
        out[f] = pos
        diff = pos[:, None, :] - pos[None, :, :]
        d2 = np.maximum(np.sum(diff * diff, axis=-1), 0.09)
        np.fill_diagonal(d2, np.inf)
        push = np.sum(diff / d2[..., None], axis=1)  # ~1/d repulsion
        vel = vel + 0.01 * push + rng.normal(0.0, 0.01, size=(n, 2))
        pos = pos + vel
    return out


def scene_rows(scene_index: int, seed: int) -> list[tuple]:
    rng = np.random.default_rng([seed, scene_index])
    n_frames = T_TOTAL + WINDOWS_PER_SEGMENT - 1
    rows = []
    frame0 = 0
    ped0 = 0
    for n in CROWD_SIZES:
        traj = simulate_segment(n, n_frames, rng)
        for f in range(n_frames):
            frame_id = (frame0 + f) * FRAME_STRIDE
            for p in range(n):
                rows.append((frame_id, ped0 + p, traj[f, p, 0], traj[f, p, 1]))
        frame0 += n_frames + 1  # the skipped frame splits the segments
        ped0 += n
    return rows


def write_scenes(out_dir, seed: int) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, name in enumerate(SCENES):
        with (out_dir / f"{name}.txt").open("w") as fh:
            for frame, pid, x, y in scene_rows(i, seed):
                fh.write(f"{frame} {pid} {x:.6f} {y:.6f}\n")

