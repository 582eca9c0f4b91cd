"""Each command writes the same bytes in two fresh processes.

A seed or hash order that changes between processes stays fixed within one,
so only separate `python -m crowdgnn.cli` runs can show it.
"""
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import crowdgnn

TRAIN = ["train", "--held-out", "zara01", "--epochs", "1", "--quiet"]


def strict_json(text):
    """json.loads refusing NaN and Infinity: json.dump writes them, JSON has neither."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "scenes"
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_scenes.py"
    runpy.run_path(str(script))["main"](["--out", str(out), "--frames", "200"])
    return out


def two_runs(scenes, name, argv):
    """The files that `crowdgnn <argv> PATH` writes at PATH in each of two fresh
    processes. Each reads `scenes` by default, imports crowdgnn from where
    this process does and hashes strings with its own random seed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    env.update(PYTHONPATH=str(Path(crowdgnn.__file__).resolve().parents[1]),
               CROWDGNN_DATA_DIR=str(scenes))
    paths = [scenes.parent / f"{i}-{name}" for i in (1, 2)]
    for path in paths:
        proc = subprocess.run([sys.executable, "-m", "crowdgnn.cli", *argv, str(path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    return paths


@pytest.fixture(scope="module")
def checkpoints(scenes):
    return two_runs(scenes, "model.ckpt", TRAIN + ["--out"])


def test_train(checkpoints):
    first, second = checkpoints
    assert first.read_bytes() == second.read_bytes()


def test_train_clipped(scenes):
    # the clipping norm is summed tensor by tensor
    first, second = two_runs(scenes, "clip.ckpt", TRAIN + [
        "--graph", "view-approach", "--kernel", "exp", "--clip-norm", "1.0", "--out"])
    assert first.read_bytes() == second.read_bytes()


def test_eval(scenes, checkpoints):
    first, second = two_runs(scenes, "report.json", [
        "eval", "--ckpt", str(checkpoints[0]), "--held-out", "zara01", "--report"])
    assert first.read_bytes() == second.read_bytes()
    strict_json(first.read_text())


def test_export_plot(scenes, checkpoints):
    # frames are 10 apart: zara01:1230 starts the 124th window of the scene
    first, second = two_runs(scenes, "plot.csv", [
        "export-plot", "--ckpt", str(checkpoints[0]), "--window-id", "zara01:1230",
        "--samples", "20", "--out"])
    assert first.read_bytes() == second.read_bytes()
