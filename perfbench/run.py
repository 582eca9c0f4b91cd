#!/usr/bin/env python3
"""crowdgnn benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload synthetic-train --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout. The inputs are generated from
``--seed`` into a scratch directory of the checkout, which is removed at
the end. With ``--trace 0`` the run measures the end-to-end metrics for
about ``--seconds``; with ``--trace 1`` it runs a fixed amount of work with
every layer wrapped and reports per-layer metrics instead. The line before
the result records the environment, sample counts and ``failed_frac``.
"""
from __future__ import annotations

import os

# one single-threaded process: pin BLAS before numpy is imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/crowdgnn/__init__.py", "scripts/make_synthetic_scenes.py")


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np_version: str, workload: str, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np_version,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(ROOT),
        "workload": workload,
        "seed": seed,
    }


def main() -> int:
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"run.py: not a crowdgnn checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    wl = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs = workloads.make_inputs(wl, args.seed, ROOT, work)
        reference = workloads.load_reference(wl.name, args.seed)
        if args.trace:
            run, metrics = workloads.run_traced(wl, inputs, reference)
        else:
            run = workloads.run_untraced(wl, inputs, reference, args.seconds)
            metrics = run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {section}")
    record = {
        "environment": environment(np.__version__, wl.name, args.seed),
        "trace": args.trace,
        "inputs": run.describe_inputs(),
        "reference_recorded": bool(reference),
        "samples": {} if args.trace else run.samples(),
        "speed_factor": run.speed_factor(),
        "unscaled": {} if args.trace else run.end_to_end(scaled=False),
        "failed_frac": run.failed / max(run.attempted, 1),
        "problems": run.problems,
    }
    print(json.dumps(record))
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
