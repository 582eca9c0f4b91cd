"""ETH/UCY-format trajectory parsing, windowing, and leave-one-out splits.

Scene files are plain text, one record per line: ``frame_id ped_id x y``
(whitespace separated, positions in world meters, frames at 0.4 s
intervals).
"""
from __future__ import annotations

import math
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

ARCHIVE_FORMAT_VERSION = 2


class TrajectoryParseError(ValueError):
    pass


class RawTrack(NamedTuple):
    frame_id: int
    ped_id: int
    x: float
    y: float


@dataclass
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
    tracks = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise TrajectoryParseError(f"{path}: {exc}") from None
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise TrajectoryParseError(
                    f"{path}:{lineno}: expected 4 fields, got {len(parts)}"
                )
            try:
                frame_f, ped_f = float(parts[0]), float(parts[1])
                x, y = float(parts[2]), float(parts[3])
                frame_id, ped_id = int(frame_f), int(ped_f)
            except (ValueError, OverflowError) as exc:  # int(inf) overflows
                raise TrajectoryParseError(f"{path}:{lineno}: {exc}") from exc
            if frame_id != frame_f or ped_id != ped_f:  # "780.0" is fine, "10.5" is not
                raise TrajectoryParseError(f"{path}:{lineno}: non-integral id in {line!r}")
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
        raise ValueError(f"unknown scene {held_out!r}; have {sorted(scenes)}")
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
        if (fault := _scene_id_fault(f.stem)) is not None:
            raise ValueError(f"{f}: {fault}")
        tracks = parse_trajectory_file(f)
        scenes[f.stem] = make_windows(tracks, t_obs, t_pred, stride, scene_id=f.stem)
    return scenes


# ---- window archives -------------------------------------------------------


# what np.load and reading the arrays raise for a file that is not a
# readable window archive: empty, truncated, not a zip, pickled, a bare .npy,
# missing or mis-shaped entries
_ARCHIVE_READ_ERRORS = (
    OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile, zlib.error
)


def save_windows(path, windows: list[TrajectoryWindow]) -> None:
    arrays = {
        "format_version": np.array(ARCHIVE_FORMAT_VERSION),
        "n_windows": np.array(len(windows)),
    }
    for i, w in enumerate(windows):
        arrays[f"w{i}_positions"] = w.positions
        arrays[f"w{i}_meta"] = np.array([w.start_frame, w.t_obs, w.t_pred])
        arrays[f"w{i}_scene"] = np.array(w.scene_id)
    np.savez(path, **arrays)


def _scene_id_fault(scene_id: str) -> str | None:
    """What makes a scene id unusable (`dump-graph` names files after it), or None."""
    if any(c in scene_id for c in "/\\\0"):
        return f"scene id {scene_id!r} holds a path separator or NUL"
    return None


def _window_fault(scene_id: str, positions: np.ndarray,
                  t_obs: int, t_pred: int) -> str | None:
    """What makes an archived window unusable, or None."""
    if (fault := _scene_id_fault(scene_id)) is not None:
        return fault
    if t_obs < 2 or t_pred < 1:
        return f"need t_obs >= 2 and t_pred >= 1, got {t_obs} and {t_pred}"
    n = positions.shape[0] if positions.ndim == 3 else 0
    if n < 2 or positions.shape != (n, t_obs + t_pred, 2):
        return f"positions of shape {positions.shape}, want [N >= 2, {t_obs + t_pred}, 2]"
    if positions.dtype.kind not in "fiu":
        return f"positions of dtype {positions.dtype}, want numbers"
    if not np.all(np.isfinite(positions)):
        return "non-finite positions"
    return None


def load_windows(path) -> list[TrajectoryWindow]:
    """The checked windows of an archive written by `save_windows`, with
    float64 positions.

    Any failure to read the archive is a ValueError naming it; a missing
    file stays a FileNotFoundError.
    """
    entries = []
    try:
        with np.load(path, allow_pickle=False) as z:
            version = int(z["format_version"])
            n_windows = int(z["n_windows"]) if version == ARCHIVE_FORMAT_VERSION else 0
            for i in range(n_windows):
                start_frame, t_obs, t_pred = (int(v) for v in z[f"w{i}_meta"])
                entries.append(
                    (str(z[f"w{i}_scene"]), start_frame, z[f"w{i}_positions"], t_obs, t_pred)
                )
    except FileNotFoundError:
        raise
    except _ARCHIVE_READ_ERRORS as exc:
        raise ValueError(f"{path}: unreadable archive: {exc}") from exc
    if version != ARCHIVE_FORMAT_VERSION:
        raise ValueError(
            f"{path}: archive format version {version}, this version reads only "
            f"{ARCHIVE_FORMAT_VERSION}; re-run `crowdgnn prep` to rewrite it"
        )
    windows = []
    for i, (scene_id, start_frame, pos, t_obs, t_pred) in enumerate(entries):
        # every later stage computes in float64 (the graph builder writes
        # square roots into a buffer of the positions' dtype), so numeric
        # archives of another dtype load as float64 before the checks
        if pos.dtype.kind in "fiu":
            pos = pos.astype(np.float64, copy=False)
        fault = _window_fault(scene_id, pos, t_obs, t_pred)
        if fault is not None:
            raise ValueError(f"{path}: window {i}: {fault}")
        windows.append(TrajectoryWindow(scene_id, start_frame, pos, t_obs, t_pred))
    return windows
