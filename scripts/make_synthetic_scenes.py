#!/usr/bin/env python3
"""Generate synthetic ETH/UCY-format scene files for pipeline smoke runs.

Pedestrians spawn in overlapping groups and walk roughly straight with
small heading noise and a weak mutual-avoidance nudge, so every window of
the output contains at least two fully present pedestrians. Output format:
``frame_id ped_id x y`` per line, frame stride 10 (0.4 s).
"""
from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

SCENES = ["eth", "hotel", "univ", "zara01", "zara02"]
FRAME_STRIDE = 10
DT = 0.4  # seconds per frame


def simulate_scene(name: str, n_frames: int, rng: np.random.Generator) -> list[tuple]:
    rows = []
    ped_id = 0
    frame = 0
    active: list[dict] = []
    while frame < n_frames:
        # keep 3-6 pedestrians alive at all times
        while len(active) < int(rng.integers(3, 7)):
            speed = rng.uniform(0.8, 1.6) * DT  # meters per frame
            heading = rng.uniform(0, 2 * np.pi)
            active.append(
                {
                    "id": ped_id,
                    "pos": rng.uniform(0, 12, size=2),
                    "vel": speed * np.array([np.cos(heading), np.sin(heading)]),
                    "ttl": int(rng.integers(60, 120)),
                }
            )
            ped_id += 1
        for ped in active:
            rows.append((frame * FRAME_STRIDE, ped["id"], ped["pos"][0], ped["pos"][1]))
        for ped in active:
            # weak avoidance of the nearest other pedestrian
            others = [p for p in active if p is not ped]
            if others:
                nearest = min(others, key=lambda p: np.sum((p["pos"] - ped["pos"]) ** 2))
                delta = ped["pos"] - nearest["pos"]
                d = np.linalg.norm(delta)
                if 0 < d < 2.0:
                    ped["vel"] = ped["vel"] + 0.02 * delta / d
            ped["vel"] = ped["vel"] + rng.normal(0, 0.005, size=2)
            ped["pos"] = ped["pos"] + ped["vel"]
            ped["ttl"] -= 1
        active = [p for p in active if p["ttl"] > 0]
        frame += 1
    return rows


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("data/synthetic"))
    ap.add_argument("--frames", type=int, default=900, help="frames per scene")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    for i, name in enumerate(SCENES):
        rng = np.random.default_rng([args.seed, i])
        rows = simulate_scene(name, args.frames, rng)
        path = args.out / f"{name}.txt"
        with path.open("w") as fh:
            for frame, pid, x, y in rows:
                fh.write(f"{frame} {pid} {x:.6f} {y:.6f}\n")
        print(f"{path}: {len(rows)} records")


if __name__ == "__main__":
    main()
