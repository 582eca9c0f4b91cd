"""ETH/UCY-format trajectory parsing, windowing, and leave-one-out splits.

Scene files are plain text, one record per line: ``frame_id ped_id x y``
(whitespace separated, positions in world meters, frames at 0.4 s
intervals).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

# largest |x| or |y| a scene file may hold, in meters. Scenes span tens of
# meters; near the float64 limit a finite coordinate makes the model's
# sums and the ADE's squared errors overflow, which would surface as a
# model failure rather than as bad input
MAX_COORDINATE = 1e6


class InputError(ValueError):
    """Bad outside input (a flag, config, scene file or checkpoint): exit 2."""


class RawTrack(NamedTuple):
    frame_id: int
    ped_id: int
    x: float
    y: float


@dataclass(eq=False)  # hashed and compared by identity, as a dict key
class TrajectoryWindow:
    """One scene slice: N pedestrians present at every frame of the window,
    whose displacements are derived from the positions."""

    scene_id: str
    start_frame: int
    positions: np.ndarray  # [N, T_total, 2] absolute, meters
    t_obs: int
    t_pred: int
    displacements: np.ndarray = field(init=False)  # [N, T_total, 2] meters/frame

    def __post_init__(self):
        self.displacements = compute_displacements(self.positions)

    @property
    def n_peds(self) -> int:
        return self.positions.shape[0]

    @property
    def window_id(self) -> str:
        return f"{self.scene_id}:{self.start_frame}"

    def future_positions(self) -> np.ndarray:
        return self.positions[:, self.t_obs :]


@dataclass
class DatasetSplit:
    train: list
    val: list
    test: list
    held_out_scene: str


def parse_trajectory_file(path) -> list[RawTrack]:
    """Parse one scene file into records sorted by (frame_id, ped_id)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:  # e.g. a directory named x.txt
        raise InputError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None
    tracks = []
    seen = set()
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise InputError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        try:
            frame_f, ped_f = float(parts[0]), float(parts[1])
            x, y = float(parts[2]), float(parts[3])
            frame_id, ped_id = int(frame_f), int(ped_f)
        except (ValueError, OverflowError) as exc:  # int(inf) overflows
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        if frame_id != frame_f or ped_id != ped_f:  # "780.0" is fine, "10.5" is not
            raise InputError(f"{path}:{lineno}: non-integral id in {line!r}")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InputError(
                f"{path}:{lineno}: non-finite coordinate ({parts[2]}, {parts[3]})"
            )
        if abs(x) > MAX_COORDINATE or abs(y) > MAX_COORDINATE:
            raise InputError(
                f"{path}:{lineno}: coordinate ({parts[2]}, {parts[3]}) is beyond "
                f"{MAX_COORDINATE:g} m in magnitude"
            )
        key = (frame_id, ped_id)
        if key in seen:
            raise InputError(
                f"{path}:{lineno}: duplicate record for frame {frame_id}, "
                f"pedestrian {ped_id}"
            )
        seen.add(key)
        tracks.append(RawTrack(frame_id, ped_id, x, y))
    tracks.sort()  # (frame, ped) is unique, so x and y are never compared
    return tracks


def compute_displacements(positions: np.ndarray) -> np.ndarray:
    """Per-step walking direction features.

    The backward difference p_t - p_{t-1} (zero at the first frame), which
    is computable at the last observed frame.
    """
    disp = np.zeros_like(positions)
    disp[:, 1:] = positions[:, 1:] - positions[:, :-1]
    return disp


def make_windows(
    tracks: list[RawTrack],
    t_obs: int,
    t_pred: int,
    stride: int = 1,
    scene_id: str = "scene",
) -> list[TrajectoryWindow]:
    """Slide fixed-length windows over a scene.

    Only pedestrians present at all T_obs + T_pred consecutive frames of a
    window are kept; windows with fewer than 2 such pedestrians are dropped.
    """
    if t_obs < 2 or t_pred < 1 or stride < 1:
        raise ValueError("require t_obs >= 2, t_pred >= 1, stride >= 1")
    if not tracks:
        return []

    frames = sorted({r.frame_id for r in tracks})
    by_frame: dict[int, dict[int, tuple[float, float]]] = {}
    for r in tracks:
        by_frame.setdefault(r.frame_id, {})[r.ped_id] = (r.x, r.y)

    t_total = t_obs + t_pred
    windows = []
    for start in range(0, len(frames) - t_total + 1, stride):
        span = frames[start : start + t_total]
        # require consecutive frames: constant stride within the span
        strides = {b - a for a, b in zip(span, span[1:])}
        if len(strides) != 1:
            continue
        peds = set(by_frame[span[0]])
        for f in span[1:]:
            peds &= set(by_frame[f])
        peds = sorted(peds)
        if len(peds) < 2:
            continue
        pos = np.array(
            [[by_frame[f][p] for f in span] for p in peds], dtype=np.float64
        )
        windows.append(TrajectoryWindow(scene_id, span[0], pos, t_obs, t_pred))
    return windows


def leave_one_out_split(
    scenes: dict[str, list[TrajectoryWindow]],
    held_out: str,
    val_fraction: float = 0.1,
    seed: int = 0,
) -> DatasetSplit:
    """Test on `held_out`, shuffle the rest deterministically into train/val."""
    if held_out not in scenes:
        raise InputError(f"unknown scene {held_out!r}; have {sorted(scenes)}")
    if not (0 <= val_fraction < 1):
        raise InputError("val_fraction must be in [0, 1)")
    test = list(scenes[held_out])
    rest = []
    for name in sorted(scenes):
        if name != held_out:
            rest.extend(scenes[name])
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(rest))
    rest = [rest[i] for i in order]
    n_val = int(round(val_fraction * len(rest)))
    return DatasetSplit(
        train=rest[n_val:], val=rest[:n_val], test=test, held_out_scene=held_out
    )


def _scene_id_fault(scene_id: str) -> str | None:
    """What makes a scene id unusable (`dump-graph` names files after it), or None."""
    if any(c in scene_id for c in "/\\\0"):
        return f"scene id {scene_id!r} holds a path separator or NUL"
    return None


def load_scene(path, t_obs: int, t_pred: int, stride: int) -> list[TrajectoryWindow]:
    """The windows of one scene file, whose stem is their scene id."""
    path = Path(path)
    if (fault := _scene_id_fault(path.stem)) is not None:
        raise InputError(f"{path}: {fault}")
    tracks = parse_trajectory_file(path)
    return make_windows(tracks, t_obs, t_pred, stride, scene_id=path.stem)


def load_scene_dir(
    scene_dir,
    t_obs: int = 8,
    t_pred: int = 12,
    stride: int = 1,
) -> dict[str, list[TrajectoryWindow]]:
    """Parse every `.txt` file in a directory into windows, keyed by stem."""
    return {
        f.stem: load_scene(f, t_obs, t_pred, stride)
        for f in sorted(Path(scene_dir).glob("*.txt"))
    }
