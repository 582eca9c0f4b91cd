"""ETH/UCY-format trajectory parsing, windowing, and leave-one-out splits.

Scene files are plain text, one record per line: ``frame_id ped_id x y``
(whitespace separated, positions in world meters, frames at 0.4 s
intervals).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

# largest |x| or |y| a scene file may hold, in meters. Scenes span tens of
# meters; near the float64 limit a finite coordinate makes the model's
# sums and the ADE's squared errors overflow, which would surface as a
# model failure rather than as bad input
MAX_COORDINATE = 1e6
PIECE_CHARS = 1 << 12  # characters split and converted at a time: few token strings live at once
# 1 where `str.split` splits at an ASCII byte, else 0 (bytes from 128 are in multi-byte chars)
_ASCII_SPACE = bytes(b < 128 and chr(b).isspace() for b in range(256))


class InputError(ValueError):
    """Bad outside input (a flag, config, scene file or checkpoint): exit 2."""


class Tracks(NamedTuple):
    """A scene's records, one per line of its file."""
    frame: np.ndarray  # [n] int64
    ped: np.ndarray  # [n] int64
    xy: np.ndarray  # [n, 2] float64 meters


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


def parse_trajectory_file(path) -> Tracks:
    """Parse one scene file into records sorted by (frame, ped); the first faulty
    line in file order raises. Pieces of lines are split and converted by numpy
    one at a time, as one file's tokens at once would raise set-up's memory peak."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:  # e.g. a directory named x.txt
        raise InputError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None
    counts = _field_counts(text)
    first = np.cumsum(counts) - counts  # of each line, its first token
    faults = []  # (line, order of the check on a line, message); the least is raised
    if (odd := np.flatnonzero((counts != 0) & (counts != 4))).size:
        faults.append((odd[0] + 1, 0, f"expected 4 fields, got {counts[odd[0]]}"))
    pieces, start = [np.empty(0)], 0
    while start < len(text):
        end = text.find("\n", start + PIECE_CHARS) + 1 or len(text)
        tokens, start = text[start:end].split(), end
        try:
            pieces.append(np.array(tokens, dtype=np.float64))
        except ValueError:  # numpy applies float(), so float() finds the token
            i, why = next((i, w) for i, t in enumerate(tokens) if (w := _refusal(float, t)))
            pieces.append(np.array(tokens[:i], dtype=np.float64))
            i = sum(map(len, pieces))  # the bad token's index in the whole text
            faults.append((int(np.searchsorted(first, i, side="right")), 1, why))
            break
    records = np.concatenate(pieces)[: first[min(faults)[0] - 1] if faults else None]
    ids, xy = np.split(records.reshape(-1, 4), 2, axis=1)
    order = np.lexsort((ids[:, 1], ids[:, 0]))
    key = ids[order]
    duplicate = np.zeros(len(ids), dtype=bool)
    duplicate[order[1:]] = (key[1:] == key[:-1]).all(axis=1)
    beyond = np.abs(ids) > 2**53  # float64 holds every integer up to 2**53, not beyond
    if (edge := np.abs(ids) == 2**53).any():  # float() rounds 9007199254740993 onto it
        from decimal import Decimal  # here, as importing it costs 0.3 MB of RSS
        written = np.array(text.split()[: records.size], dtype=object).reshape(-1, 4)[:, :2]
        beyond[edge] = [abs(Decimal(t)) > 2**53 for t in written[edge]]
    checks = (~np.isfinite(ids).all(axis=1), (np.trunc(ids) != ids).any(axis=1),
              beyond.any(axis=1), ~np.isfinite(xy).all(axis=1),
              (np.abs(xy) > MAX_COORDINATE).any(axis=1), duplicate)
    if (bad := np.flatnonzero(np.logical_or.reduce(checks))).size:
        r, check = bad[0], next(c for c, mask in enumerate(checks) if mask[bad[0]])
        lineno = int(np.searchsorted(first, 4 * r, side="right"))
        f, p, x, y = text.split()[4 * r : 4 * r + 4]
        faults.append((lineno, 2, _refusal(int, *ids[r]) if check == 0 else (
            f"non-integral id in {text.split(chr(10))[lineno - 1].strip()!r}",
            f"id {f if beyond[r, 0] else p} is beyond 2**53 in magnitude",
            f"non-finite coordinate ({x}, {y})",
            f"coordinate ({x}, {y}) is beyond {MAX_COORDINATE:g} m in magnitude",
            f"duplicate record for frame {int(ids[r, 0])}, pedestrian {int(ids[r, 1])}",
        )[check - 1]))
    if faults:
        lineno, _, message = min(faults)
        raise InputError(f"{path}:{lineno}: {message}")
    frame, ped = key.astype(np.int64).T
    return Tracks(frame, ped, xy[order])


def _field_counts(text: str) -> np.ndarray:
    """The number of `text.split()` tokens on each line ("\\n" ends one)."""
    if not text.isascii():  # `str.split`'s other whitespace as ASCII spaces
        text = text.translate({ord(c): " " for c in set(text) if c.isspace() and not c.isascii()})
    raw = b"\n" + text.encode()
    space = np.frombuffer(raw.translate(_ASCII_SPACE), dtype=bool)
    # the whitespace byte before each token, on the token's line or its newline
    before = np.flatnonzero(space[:-1] > space[1:])
    newlines = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == 10)
    return np.diff(np.searchsorted(before, newlines), append=len(before))


def _refusal(convert, *tokens) -> str | None:
    """What `convert` raises on the first of `tokens` it refuses, or None."""
    try:
        list(map(convert, tokens))
    except (ValueError, OverflowError) as exc:  # int(inf) overflows
        return str(exc)


def compute_displacements(positions: np.ndarray) -> np.ndarray:
    """Per-step walking direction features.

    The backward difference p_t - p_{t-1} (zero at the first frame), which
    is computable at the last observed frame.
    """
    disp = np.zeros_like(positions)
    disp[:, 1:] = positions[:, 1:] - positions[:, :-1]
    return disp


def make_windows(tracks: Tracks, t_obs: int, t_pred: int, stride: int = 1,
                 scene_id: str = "scene") -> list[TrajectoryWindow]:
    """Slide fixed-length windows over a scene's records, in any order.

    Only pedestrians present at all T_obs + T_pred consecutive frames of a
    window are kept; windows with fewer than 2 such pedestrians are dropped.
    """
    if t_obs < 2 or t_pred < 1 or stride < 1:
        raise ValueError("require t_obs >= 2, t_pred >= 1, stride >= 1")
    t_total = t_obs + t_pred
    frames, index = np.unique(tracks.frame, return_inverse=True)
    order = np.lexsort((index, tracks.ped))  # by pedestrian, then frame
    ped, index = tracks.ped[order], index[order]
    k, m = t_total - 1, max(len(order) - t_total + 1, 0)
    # record j spans t_total frames when record j + k is its pedestrian's, k frames on
    covers = (ped[k:] == ped[:m]) & (index[k:] - index[:m] == k)
    # window starts at `stride` whose span has one frame spacing
    changes = np.concatenate(([0], np.cumsum(np.diff(frames, 2) != 0)))
    starts = np.arange(0, len(frames) - t_total + 1, stride)
    starts = starts[changes[starts + k - 1] == changes[starts]]
    first = np.flatnonzero(covers & np.isin(index[:m], starts))
    first = first[np.argsort(index[first], kind="stable")]  # by start, then ped
    starts, split = np.unique(index[first], return_index=True)
    positions = tracks.xy[order[first[:, None] + np.arange(t_total)]]
    return [TrajectoryWindow(scene_id, int(frames[s]), pos, t_obs, t_pred)
            for s, pos in zip(starts, np.split(positions, split[1:])) if len(pos) >= 2]


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
    return make_windows(parse_trajectory_file(path), t_obs, t_pred, stride, scene_id=path.stem)


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
