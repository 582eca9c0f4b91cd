#!/usr/bin/env python3
"""Quick self-test of the benchmark (about a minute on two cores).

    python3 perfbench/selftest.py

One tiny run of each workload, untraced and traced, must exit 0, pass its
output checks and emit exactly the metrics BENCHMARK.json names. A copy
of the benchmark without the crowdgnn sources must exit non-zero without
printing a result.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(proc, names: set[str], label: str) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"{label}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise SystemExit(f"{label}: output checks failed: {record['problems']}")
    if not record["reference_recorded"]:
        raise SystemExit(f"{label}: no reference recorded for seed {SEED}")
    if set(result["metrics"]) != names:
        raise SystemExit(f"{label}: metrics {sorted(result['metrics'])}, want {sorted(names)}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            raise SystemExit(f"{label}: {name} = {m['value']!r}")
    return result["metrics"]


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for wl in spec["workloads"]:
        name = wl["name"]
        metrics = check_result(run(ROOT, name, 0), end_to_end, f"{name} untraced")
        if any(m["value"] <= 0 for m in metrics.values()):
            raise SystemExit(f"{name}: an end-to-end metric is not positive: {metrics}")
        layers = check_result(run(ROOT, name, 1), per_layer, f"{name} traced")
        for count in ("graphs.builds", "model.forwards", "autodiff.nodes_per_forward"):
            if layers[count]["value"] <= 0:
                raise SystemExit(f"{name}: {count} is zero")
        print(f"ok  {name}")

    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok  bare directory exits", proc.returncode)


if __name__ == "__main__":
    main()
