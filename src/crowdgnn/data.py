"""ETH/UCY-format trajectory parsing, windowing, and leave-one-out splits.

Scene files are plain text, one record per line: ``frame_id ped_id x y``
(whitespace separated, positions in world meters, frames at 0.4 s
intervals).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ARCHIVE_FORMAT_VERSION = 1


class TrajectoryParseError(ValueError):
    pass


@dataclass(frozen=True)
class RawTrack:
    frame_id: int
    ped_id: int
    x: float
    y: float


@dataclass
class TrajectoryWindow:
    """One scene slice: N pedestrians present at every frame of the window."""

    scene_id: str
    start_frame: int
    positions: np.ndarray  # [N, T_total, 2] absolute, meters
    displacements: np.ndarray  # [N, T_total, 2] meters/frame
    t_obs: int
    t_pred: int

    @property
    def n_peds(self) -> int:
        return self.positions.shape[0]

    @property
    def window_id(self) -> str:
        return f"{self.scene_id}:{self.start_frame}"

    def future_positions(self) -> np.ndarray:
        return self.positions[:, self.t_obs :]

    def future_displacements(self) -> np.ndarray:
        return self.displacements[:, self.t_obs :]


@dataclass
class DatasetSplit:
    train: list
    val: list
    test: list
    held_out_scene: str


def parse_trajectory_file(path) -> list[RawTrack]:
    """Parse one scene file into records sorted by (frame_id, ped_id)."""
    tracks = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise TrajectoryParseError(
                    f"{path}:{lineno}: expected 4 fields, got {len(parts)}"
                )
            try:
                frame_id = int(float(parts[0]))
                ped_id = int(float(parts[1]))
                x, y = float(parts[2]), float(parts[3])
            except (ValueError, OverflowError) as exc:  # int(inf) overflows
                raise TrajectoryParseError(f"{path}:{lineno}: {exc}") from exc
            if not (math.isfinite(x) and math.isfinite(y)):
                raise TrajectoryParseError(
                    f"{path}:{lineno}: non-finite coordinate ({parts[2]}, {parts[3]})"
                )
            key = (frame_id, ped_id)
            if key in seen:
                raise TrajectoryParseError(
                    f"{path}:{lineno}: duplicate record for frame {frame_id}, "
                    f"pedestrian {ped_id}"
                )
            seen.add(key)
            tracks.append(RawTrack(frame_id, ped_id, x, y))
    tracks.sort(key=lambda r: (r.frame_id, r.ped_id))
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
        windows.append(
            TrajectoryWindow(
                scene_id=scene_id,
                start_frame=span[0],
                positions=pos,
                displacements=compute_displacements(pos),
                t_obs=t_obs,
                t_pred=t_pred,
            )
        )
    return windows


def leave_one_out_split(
    scenes: dict[str, list[TrajectoryWindow]],
    held_out: str,
    val_fraction: float = 0.1,
    seed: int = 0,
) -> DatasetSplit:
    """Test on `held_out`, shuffle the rest deterministically into train/val."""
    if held_out not in scenes:
        raise KeyError(f"unknown scene {held_out!r}; have {sorted(scenes)}")
    if not (0 <= val_fraction < 1):
        raise ValueError("val_fraction must be in [0, 1)")
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


def load_scene_dir(
    scene_dir,
    t_obs: int = 8,
    t_pred: int = 12,
    stride: int = 1,
) -> dict[str, list[TrajectoryWindow]]:
    """Parse every `.txt` file in a directory into windows, keyed by stem."""
    scene_dir = Path(scene_dir)
    files = sorted(scene_dir.glob("*.txt"))
    scenes = {}
    for f in files:
        tracks = parse_trajectory_file(f)
        scenes[f.stem] = make_windows(tracks, t_obs, t_pred, stride, scene_id=f.stem)
    return scenes


# ---- window archives -------------------------------------------------------


def save_windows(path, windows: list[TrajectoryWindow]) -> None:
    arrays = {
        "format_version": np.array(ARCHIVE_FORMAT_VERSION),
        "n_windows": np.array(len(windows)),
    }
    for i, w in enumerate(windows):
        arrays[f"w{i}_positions"] = w.positions
        arrays[f"w{i}_meta"] = np.array([w.start_frame, w.t_obs, w.t_pred])
        arrays[f"w{i}_scene"] = np.array(w.scene_id)
        arrays[f"w{i}_disp"] = w.displacements
    np.savez(path, **arrays)


def load_windows(path) -> list[TrajectoryWindow]:
    with np.load(path, allow_pickle=False) as z:
        version = int(z["format_version"])
        if version != ARCHIVE_FORMAT_VERSION:
            raise ValueError(f"unsupported archive format version {version}")
        out = []
        for i in range(int(z["n_windows"])):
            start_frame, t_obs, t_pred = (int(v) for v in z[f"w{i}_meta"])
            out.append(
                TrajectoryWindow(
                    scene_id=str(z[f"w{i}_scene"]),
                    start_frame=start_frame,
                    positions=z[f"w{i}_positions"],
                    displacements=z[f"w{i}_disp"],
                    t_obs=t_obs,
                    t_pred=t_pred,
                )
            )
    return out
