#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py --seeds 0-63

For each workload and seed, runs one cycle (set-up, a train() round on
the train workloads, evaluation) and stores the final train/val NLL and the ADE/FDE
means in ``perfbench/reference.json``. Re-record only when the workloads'
inputs or schedule change, never to make a failing check pass.
"""
from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def reference_values(wl, seed: int, work: Path) -> dict:
    run = workloads.Run(wl, workloads.make_inputs(wl, seed, ROOT, work), {})
    run.cycle()
    if run.failed:
        raise RuntimeError(f"{wl.name} seed {seed}: {run.problems}")
    return run.first_values


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-63"))
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args()

    table = json.loads(workloads.REFERENCE_FILE.read_text())
    work = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    try:
        for name in args.workload or sorted(workloads.WORKLOADS):
            wl = workloads.WORKLOADS[name]
            for seed in args.seeds:
                values = reference_values(wl, seed, work / f"{name}-{seed}")
                table["values"].setdefault(name, {})[str(seed)] = values
                print(name, seed, values, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        workloads.REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
