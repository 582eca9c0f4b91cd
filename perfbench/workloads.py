"""The benchmark's workloads: inputs, set-up, timed phases and output checks.

The system is driven only through the entry points the CLI uses:
``data.load_scene_dir``, ``data.leave_one_out_split``,
``ModelParameters.save/load``, ``train.train``, ``evaluate.evaluate`` and
``evaluate.best_of_k``. They are looked up on their modules at call time,
so the traced run's wrappers see every call.
"""
from __future__ import annotations

import json
import math
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from crowdgnn import data
from crowdgnn import evaluate as evaluate_mod
from crowdgnn import train as train_mod
from crowdgnn.graphs import GraphConfig
from crowdgnn.model import ModelConfig, ModelParameters

import dense_scenes
import tracing
from speed import Speed

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# the generator's full-length scenes, windowed every 20th frame (windows
# do not overlap), so set-up parses realistic files and an epoch stays short
SYNTHETIC_STRIDE = 20
EPOCHS_PER_ROUND = 3  # one train() call; its first epoch also pays train()'s set-up
EVAL_PASSES = 4  # evaluate() passes per cycle; the first also pays evaluation's set-up
BEST_OF_K_PASSES = 4  # sweeps of single-window best_of_k calls over the test windows per cycle
BATCH = 128
K = 20
# the split, initialisation and sampling seed passed to crowdgnn; fixed, so the
# val windows sit in the same slots for every workload seed and the amount
# of work per epoch depends on the generated scenes alone
PROGRAM_SEED = 0
# outputs must match the recorded reference, and repeats within a run must
# match each other, to this relative tolerance (absolute below 1)
REL_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    scenes: str  # "synthetic" or "dense"
    graph: dict = field(default_factory=dict)  # GraphConfig arguments
    trains: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        # ~4.7 pedestrians per window: per-node tape overhead dominates and
        # graph build is a few percent
        Workload("synthetic-train", "synthetic"),
        # 10-200 pedestrians: the O(T N^2) graph build and the TXP arithmetic
        # dominate, while the tape node count does not grow with N
        Workload(
            "dense-train", "dense", {"neighborhood": "view-approach", "kernel": "exp"}
        ),
        # forward and sampling only, the model read-only: no backward, no SGD
        Workload("synthetic-eval", "synthetic", trains=False),
    )
}


@dataclass
class Inputs:
    scene_dir: Path
    held_out: str
    stride: int
    ckpt: Path


def make_inputs(wl: Workload, seed: int, root: Path, work: Path) -> Inputs:
    """Generate the workload's scene files (and checkpoint) from the seed."""
    scene_dir = work / "scenes"
    if wl.scenes == "synthetic":
        subprocess.run(
            [sys.executable, str(root / "scripts" / "make_synthetic_scenes.py"),
             "--out", str(scene_dir), "--seed", str(seed)],
            check=True, capture_output=True,
        )
        held_out, stride = "zara01", SYNTHETIC_STRIDE
    else:
        dense_scenes.write_scenes(scene_dir, seed)
        held_out, stride = dense_scenes.HELD_OUT, 1
    ckpt = work / "model.ckpt"
    if not wl.trains:
        ModelParameters(ModelConfig(), seed=seed).save(
            ckpt, extra_config={"graph_config": GraphConfig(**wl.graph).to_dict()}
        )
    return Inputs(scene_dir, held_out, stride, ckpt)


def load_reference(name: str, seed: int) -> dict:
    with open(REFERENCE_FILE) as fh:
        table = json.load(fh)
    return table["values"].get(name, {}).get(str(seed), {})


def _median(xs) -> float:
    return float(np.median(xs)) if len(xs) else float("nan")


def _excess(first, later) -> float:
    """How much longer the median first pass took than the median later one."""
    if not first or not later:
        return 0.0
    return max(0.0, _median(first) - _median(later))


# one timed span: (wall seconds as measured, speed factor)
Timed = tuple[float, float]


@dataclass
class Cycle:
    setup: Timed
    epochs: list[Timed] = field(default_factory=list)
    eval_passes: list[Timed] = field(default_factory=list)


class Run:
    """One benchmark run of one workload: timings, counts and check results."""

    def __init__(self, wl: Workload, inputs: Inputs, reference: dict):
        self.wl = wl
        self.inputs = inputs
        self.reference = reference
        self.graph = GraphConfig(**wl.graph)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_values: dict[str, float] = {}
        self.windows_made = 0
        self.split = None
        self.params = None
        self.cycles: list[Cycle] = []
        self.latency_passes: list[tuple[list[float], float]] = []  # (ms per call, factor)
        self.speed = Speed()
        self.per_window: dict[str, tuple[float, float]] = {}

    # ---- checks ------------------------------------------------------------

    def _close(self, value: float, expected: float) -> bool:
        return abs(value - expected) <= REL_TOL * max(1.0, abs(expected))

    def check(self, values: dict[str, float], n_windows: int) -> None:
        """Count n_windows attempted; fail them all if any value is off."""
        self.attempted += n_windows
        for key, value in values.items():
            first = self.first_values.setdefault(key, value)
            expected = self.reference.get(key)
            ok = math.isfinite(value) and self._close(value, first)
            if expected is not None:
                ok = ok and self._close(value, expected)
            if not ok:
                self.failed += n_windows
                self.problems.append(
                    f"{key}={value!r}, first {first!r}, reference {expected!r}"
                )
                return

    def _crashed(self, what: str, n_windows: int) -> None:
        self.attempted += n_windows
        self.failed += n_windows
        self.problems.append(f"{what} raised:\n{traceback.format_exc()}")

    # ---- one cycle: set up, train, evaluate -----------------------------------

    def cycle(self) -> None:
        """Set up, train one round (train workloads), then evaluate.

        Cycles repeat until the run's time is up, so every metric samples
        the whole run rather than one stretch of it.
        """
        t0 = time.perf_counter()
        self.set_up()
        c = Cycle(setup=(time.perf_counter() - t0, self.speed.factor()))
        self.cycles.append(c)
        if self.wl.trains:
            if not self.train_round(c):
                return
            self.params, _ = ModelParameters.load(self.inputs.ckpt)
        self.speed.rebase()
        for _ in range(EVAL_PASSES):
            self.eval_pass(c)
        for _ in range(BEST_OF_K_PASSES):
            self.best_of_k_pass()

    def set_up(self) -> None:
        """Parse, window and split the scenes (and load the checkpoint)."""
        inp = self.inputs
        scenes = data.load_scene_dir(inp.scene_dir, stride=inp.stride)
        self.split = data.leave_one_out_split(scenes, inp.held_out, seed=PROGRAM_SEED)
        if not self.wl.trains:
            self.params, extra = ModelParameters.load(inp.ckpt)
            self.graph = GraphConfig(**extra["graph_config"])
        self.windows_made = sum(len(ws) for ws in scenes.values())

    def train_round(self, c: "Cycle") -> bool:
        """One train() call of EPOCHS_PER_ROUND epochs, timed by its log callback."""
        split = self.split
        cfg = train_mod.TrainConfig(
            epochs=EPOCHS_PER_ROUND, batch_size=BATCH,
            lr_switch_epoch=EPOCHS_PER_ROUND, seed=PROGRAM_SEED,
        )
        n_windows = (len(split.train) + len(split.val)) * EPOCHS_PER_ROUND

        def on_epoch(rec):
            c.epochs.append((time.perf_counter() - start[0], self.speed.factor()))
            start[0] = time.perf_counter()

        self.speed.rebase()
        start = [time.perf_counter()]
        try:
            _, history = train_mod.train(
                split, self.graph, cfg, ModelConfig(), ckpt_path=self.inputs.ckpt,
                log=on_epoch,
            )
        except Exception:
            self._crashed("train()", n_windows)
            return False
        final = history[-1]
        self.check({"train_nll": final.train_nll, "val_nll": final.val_nll}, n_windows)
        return True

    def eval_pass(self, c: "Cycle") -> None:
        """evaluate() at k=20 over the test windows."""
        test = self.split.test
        t0 = time.perf_counter()
        try:
            report = evaluate_mod.evaluate(
                test, self.graph, self.params, k=K, seed=PROGRAM_SEED
            )
        except Exception:
            self._crashed("evaluate()", len(test))
            return
        c.eval_passes.append((time.perf_counter() - t0, self.speed.factor()))
        self.check({"ade_mean": report.ade_mean, "fde_mean": report.fde_mean}, len(test))
        self.per_window = {m.window_id: (m.ade, m.fde) for m in report.per_window}

    def best_of_k_pass(self) -> None:
        """Single-window best_of_k calls over the test windows, one caller."""
        raw_ms = []
        for w in self.split.test:
            t0 = time.perf_counter()
            try:
                a, f = evaluate_mod.best_of_k(
                    w, self.graph, self.params, k=K, seed=PROGRAM_SEED
                )
            except Exception:
                self._crashed("best_of_k()", 1)
                continue
            self.attempted += 1
            raw_ms.append(1000.0 * (time.perf_counter() - t0))
            ref = self.per_window.get(w.window_id)
            if ref is None or not (self._close(a, ref[0]) and self._close(f, ref[1])):
                self.failed += 1
                self.problems.append(
                    f"best_of_k({w.window_id}) = {(a, f)}, evaluate() gave {ref}"
                )
        self.latency_passes.append((raw_ms, self.speed.factor()))

    # ---- results -------------------------------------------------------------

    def speed_factor(self) -> float:
        """Median scale of the run's timed spans."""
        return _median(self.speed.factors)

    def _spans(self, scaled: bool) -> dict[str, list[float]]:
        """Set-ups, first and later epochs and evaluate() passes, in seconds."""
        t = (lambda x: x[0] * x[1]) if scaled else (lambda x: x[0])
        cs = self.cycles
        return {
            "setups": [t(c.setup) for c in cs],
            "first_epochs": [t(c.epochs[0]) for c in cs if c.epochs],
            "later_epochs": [t(x) for c in cs for x in c.epochs[1:]],
            "first_evals": [t(c.eval_passes[0]) for c in cs if c.eval_passes],
            "later_evals": [t(x) for c in cs for x in c.eval_passes[1:]],
        }

    def _latency_ms(self, q: float, scaled: bool) -> float:
        """Median over passes of the pass's q-th percentile call latency.

        A pass is one sweep of the test windows, so its percentiles describe
        the spread over windows; the median over passes drops the passes a
        mid-pass slowdown of the host distorted.
        """
        return _median([np.percentile(ms, q) * (f if scaled else 1.0)
                        for ms, f in self.latency_passes if ms])

    def end_to_end(self, scaled: bool = True) -> dict[str, float]:
        """The end-to-end metrics; ``scaled=False`` gives the raw wall times.

        ``setup_s`` is the median set-up plus how much longer the median
        first epoch and first evaluate() pass of a cycle take than the
        median later one, all taken over the whole run.
        ``epoch_s`` is the median later epoch of train(); on eval-only
        workloads, the median later evaluate() pass.
        """
        s = self._spans(scaled)
        one_time = (_median(s["setups"]) + _excess(s["first_epochs"], s["later_epochs"])
                    + _excess(s["first_evals"], s["later_evals"]))
        return {
            "setup_s": one_time,
            "epoch_s": _median(s["later_epochs"] if self.wl.trains else s["later_evals"]),
            "eval_windows_per_s": len(self.split.test) / _median(s["later_evals"]),
            "window_ms_p50": self._latency_ms(50, scaled),
            "window_ms_p95": self._latency_ms(95, scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def samples(self) -> dict[str, int]:
        s = self._spans(False)
        calls = sum(len(ms) for ms, _ in self.latency_passes)
        return {
            "setup_s": len(s["setups"]),
            "epoch_s": len(s["later_epochs"] if self.wl.trains else s["later_evals"]),
            "eval_windows_per_s": len(s["later_evals"]),
            "window_ms_p50": calls,
            "window_ms_p95": calls,
            "peak_rss_mb": 1,
        }

    def describe_inputs(self) -> dict:
        split = self.split
        n = lambda ws: float(np.mean([w.n_peds for w in ws])) if ws else 0.0
        return {
            "windows": {"train": len(split.train), "val": len(split.val),
                        "test": len(split.test)},
            "mean_peds": {"train": n(split.train), "test": n(split.test)},
            "test_peds_by_bucket": {
                b: sum(tracing.bucket_of(w.n_peds) == b for w in split.test)
                for b, _ in tracing.BUCKETS
            },
            "graph_config": self.graph.to_dict(),
        }


def run_untraced(wl: Workload, inputs: Inputs, reference: dict, seconds: float) -> Run:
    """Whole cycles until `seconds` is up (within half a cycle), at least one."""
    run = Run(wl, inputs, reference)
    start = time.perf_counter()
    last = 0.0
    while not run.cycles or time.perf_counter() - start + last / 2 <= seconds:
        t0 = time.perf_counter()
        run.cycle()
        last = time.perf_counter() - t0
    return run


def run_traced(wl: Workload, inputs: Inputs, reference: dict) -> tuple[Run, dict]:
    """One cycle untraced, then one traced: fixed work, so counts repeat exactly."""
    plain = Run(wl, inputs, reference)
    plain.cycle()
    traced = Run(wl, inputs, reference)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced.cycle()
    finally:
        tracer.uninstall()
    expected = set(tracing.FUNCTIONS) | {"autodiff.backward"}
    if not wl.trains:
        expected -= tracing.TRAIN_ONLY
    tracer.check_fired(expected)

    metrics = tracing.layer_metrics(tracer, traced.windows_made, traced.speed_factor())
    metrics["trace.overhead_frac"] = (
        traced.end_to_end()["epoch_s"] / plain.end_to_end()["epoch_s"] - 1.0
    )
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.problems += plain.problems
    return traced, metrics
