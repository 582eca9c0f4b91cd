"""The benchmark's tracer contract, read from `perfbench/` and not changed.

`perfbench/tracing.py` wraps functions by module and name. A function that
is renamed, or a caller that stops going through the module global, leaves
its span silent, and the benchmark's traced run fails. This runs a tiny
split traced: one epoch of `train()` with validation windows, one
`evaluate()` and one `best_of_k()`.
"""
import importlib
import pkgutil
import sys
from pathlib import Path

import numpy as np

import crowdgnn
from crowdgnn import data
from crowdgnn import evaluate as evaluate_mod
from crowdgnn import train as train_mod
from crowdgnn.autodiff import Var
from crowdgnn.graphs import GraphConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def write_scenes(scene_dir: Path) -> None:
    """Three scenes of 3 straight walkers over 24 frames."""
    rng = np.random.default_rng(0)
    for name in ("a", "b", "c"):
        lines = []
        for ped in range(3):
            pos, vel = rng.uniform(0, 10, 2), rng.uniform(-0.4, 0.4, 2)
            for f in range(24):
                x, y = pos + f * vel
                lines.append(f"{f * 10} {ped} {float(x)!r} {float(y)!r}")
        (scene_dir / f"{name}.txt").write_text("\n".join(lines) + "\n")


def test_every_traced_function_fires(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays as it is
    tracing = importlib.import_module("tracing")
    modules = [crowdgnn] + [importlib.import_module(f"crowdgnn.{info.name}")
                            for info in pkgutil.iter_modules(crowdgnn.__path__)]
    names = {attr for _, attr in tracing.FUNCTIONS.values()}
    originals = [(m, attr, getattr(m, attr)) for m in modules for attr in names
                 if hasattr(m, attr)]
    originals += [(Var, "backward", Var.backward), (Var, "__init__", Var.__init__)]
    write_scenes(tmp_path)
    cfg = GraphConfig()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        scenes = data.load_scene_dir(tmp_path, stride=2)
        split = data.leave_one_out_split(scenes, "a", val_fraction=0.3)
        assert split.val and split.test
        params, _ = train_mod.train(split, cfg, train_mod.TrainConfig(
            epochs=1, batch_size=4, lr_switch_epoch=1))
        evaluate_mod.evaluate(split.test, cfg, params, k=2)
        evaluate_mod.best_of_k(split.test[0], cfg, params, k=2)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
    tracer.check_fired(set(tracing.FUNCTIONS) | {"autodiff.backward"})
    windows = sum(len(ws) for ws in scenes.values())
    metrics = tracing.layer_metrics(tracer, windows, 1.0)
    for count in ("model.forwards", "graphs.builds", "autodiff.nodes_per_forward"):
        assert metrics[count] > 0, count
