"""Span tracer that wraps crowdgnn's public functions from outside.

Each wrapped function records a span (name, start, end, parent) plus the
pedestrian count of the window being processed, so self times can be
split by crowd size. Spans stay in memory until the run ends. A function
is patched in every crowdgnn module that binds it, because ``from .x
import y`` copies the name into the importing module.
"""
from __future__ import annotations

import importlib
import pkgutil
import time
from collections import defaultdict

import crowdgnn
from crowdgnn import autodiff, data, evaluate, gaussian, graphs, model, train

BUCKETS = (("n2-10", 10), ("n11-50", 50), ("n51-200", None))

# span name -> (defining module, attribute)
FUNCTIONS = {
    "data.parse": (data, "parse_trajectory_file"),
    "data.window": (data, "make_windows"),
    "data.split": (data, "leave_one_out_split"),
    "graphs.build": (graphs, "build_graph_sequence"),
    "model.forward": (model, "forward_raw"),
    "model.stgcn": (model, "st_gcn_forward"),
    "model.txp": (model, "txp_forward"),
    "gaussian.constrain": (gaussian, "constrain"),
    "gaussian.nll": (gaussian, "nll"),
    "train.train": (train, "train"),
    "train.window_nll": (train, "window_nll"),
    "train.val_nll": (train, "evaluate_nll"),
    "train.sgd_step": (train, "sgd_step"),
    "evaluate.evaluate": (evaluate, "evaluate"),
    "evaluate.best_of_k": (evaluate, "best_of_k"),
    "evaluate.predict": (evaluate, "predict_gaussians"),
    "evaluate.sample": (evaluate, "sample_trajectory"),
}
# spans that only training reaches
TRAIN_ONLY = {"gaussian.nll", "train.train", "train.window_nll", "train.val_nll",
              "train.sgd_step", "autodiff.backward"}
# per pedestrian-count bucket: the baseline table's columns
BUCKET_METRICS = ("graphs.build_ms", "model.stgcn_ms", "model.txp_ms",
                  "model.forward_ms", "fwd_bwd_ms", "best_of_20_ms")
# functions whose first argument is the window being processed
WINDOW_ARG = {"model.forward", "train.window_nll", "evaluate.best_of_k"}


def bucket_of(n_peds: int) -> str:
    for name, upper in BUCKETS:
        if upper is None or n_peds <= upper:
            return name
    raise AssertionError("unreachable")


def _crowdgnn_modules():
    mods = [crowdgnn]
    for info in pkgutil.iter_modules(crowdgnn.__path__):
        mods.append(importlib.import_module(f"crowdgnn.{info.name}"))
    return mods


class Tracer:
    """Install with ``install()``, run the workload, then ``uninstall()``."""

    def __init__(self):
        # [name, start, end, parent index, n_peds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.n_peds = 0
        self.vars_created = 0
        self.forward_vars = 0
        self.graph_keys: set = set()
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        takes_window = name in WINDOW_ARG
        is_forward = name == "model.forward"
        is_graph = name == "graphs.build"

        def wrapper(*args, **kwargs):
            if takes_window:
                self.n_peds = args[0].n_peds
            if is_graph:
                window, cfg = args[0], args[1]
                self.graph_keys.add((window.window_id, repr(cfg.to_dict())))
            vars_before = self.vars_created
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.n_peds])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
                if is_forward:
                    self.forward_vars += self.vars_created - vars_before

        return wrapper

    def install(self) -> None:
        modules = _crowdgnn_modules()
        for name, (owner, attr) in FUNCTIONS.items():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            bound = [m for m in modules if getattr(m, attr, None) is original]
            for m in bound:
                self._patches.append((m, attr, original))
                setattr(m, attr, wrapper)

        Var = autodiff.Var
        backward = Var.backward
        self._patches.append((Var, "backward", backward))
        Var.backward = self._wrap("autodiff.backward", backward)

        init = Var.__init__

        def counting_init(var, *args, **kwargs):
            self.vars_created += 1
            init(var, *args, **kwargs)

        self._patches.append((Var, "__init__", init))
        Var.__init__ = counting_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def check_fired(self, expected) -> None:
        """Fail loudly if a wrapper never ran: its target was renamed or bypassed."""
        fired = {s[0] for s in self.spans}
        missing = sorted(set(expected) - fired)
        if missing:
            raise RuntimeError(f"traced functions never called: {missing}")

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]


def layer_metrics(tracer: Tracer, windows_made: int, scale: float) -> dict[str, float]:
    """Per-layer self times in ms per window through the layer, plus counts.

    Times are multiplied by `scale`, the run's machine-speed factor.
    ``data.*`` times are per window the set-up produced; ``train.sgd_step_ms``
    is per trained window (one backward each); the others are per call of
    the layer, and each call handles one window.
    """
    total = defaultdict(float)  # name -> self seconds
    count = defaultdict(int)
    by_bucket = defaultdict(float)  # (bucket, metric) -> seconds
    by_bucket_n = defaultdict(int)
    spans = tracer.spans
    for span, self_s in zip(spans, tracer.self_times()):
        name, start, end, parent, n_peds = span
        total[name] += self_s
        count[name] += 1
        b = bucket_of(n_peds) if n_peds else None
        if b is None:
            continue
        if name in ("graphs.build", "model.stgcn", "model.txp"):
            by_bucket[b, name + "_ms"] += self_s
            by_bucket_n[b, name + "_ms"] += 1
        elif name == "model.forward":
            by_bucket[b, "model.forward_ms"] += end - start
            by_bucket_n[b, "model.forward_ms"] += 1
        elif name == "train.window_nll" and spans[parent][0] != "train.val_nll":
            by_bucket[b, "fwd_bwd_ms"] += end - start
        elif name == "autodiff.backward":
            by_bucket[b, "fwd_bwd_ms"] += end - start
            by_bucket_n[b, "fwd_bwd_ms"] += 1
        elif name == "evaluate.best_of_k":
            by_bucket[b, "best_of_20_ms"] += end - start
            by_bucket_n[b, "best_of_20_ms"] += 1

    def per(seconds, n):
        return 1000.0 * scale * seconds / n if n else 0.0

    builds = count["graphs.build"]
    forwards = count["model.forward"]
    backwards = count["autodiff.backward"]
    best_of = count["evaluate.best_of_k"]
    out = {
        "data.parse_ms": per(total["data.parse"], windows_made),
        "data.window_ms": per(total["data.window"], windows_made),
        "data.split_ms": per(total["data.split"], windows_made),
        "graphs.build_ms": per(total["graphs.build"], builds),
        "graphs.builds": builds,
        "graphs.distinct_per_build": len(tracer.graph_keys) / builds if builds else 0.0,
        "model.stgcn_ms": per(total["model.stgcn"], count["model.stgcn"]),
        "model.txp_ms": per(total["model.txp"], count["model.txp"]),
        "model.forwards": forwards,
        "gaussian.constrain_ms": per(total["gaussian.constrain"], count["gaussian.constrain"]),
        "gaussian.nll_ms": per(total["gaussian.nll"], count["gaussian.nll"]),
        "autodiff.backward_ms": per(total["autodiff.backward"], backwards),
        "autodiff.backwards": backwards,
        "autodiff.nodes_per_forward": tracer.forward_vars / forwards if forwards else 0.0,
        "train.sgd_step_ms": per(total["train.sgd_step"], backwards),
        "train.steps": count["train.sgd_step"],
        "evaluate.predict_ms": per(total["evaluate.predict"], best_of),
        "evaluate.sample_ms": per(total["evaluate.sample"], best_of),
        "evaluate.samples": count["evaluate.sample"],
    }
    for b, _ in BUCKETS:
        for metric in BUCKET_METRICS:
            out[f"{b}.{metric}"] = per(by_bucket[b, metric], by_bucket_n[b, metric])
    return out
