"""Command-line entry point: prep, dump-graph, train, eval, sweep, export-plot.

Exit codes: 0 success, 1 runtime failure, 2 usage/input error. The default
scene directory can be set with the CROWDGNN_DATA_DIR environment variable;
a JSON config file (--config) provides flag defaults, flags override it.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import data as data_mod
from .data import DatasetSplit, leave_one_out_split, load_scene_dir
from .evaluate import evaluate, predict_gaussians, sample_generators, sample_trajectory
from .graphs import (
    ApproachSense,
    GraphConfig,
    Kernel,
    Neighborhood,
    Normalization,
    build_graph_sequence,
    graph_adjacency,
    social_stgcnn_baseline_config,
)
from .model import ModelConfig, ModelParameters
from .train import TrainConfig, train, write_history_csv


class UsageError(Exception):
    pass


def _int_at_least(low: int):
    """An argparse type: an integer >= `low`. argparse exits 2 and names the
    flag when it fails, before any command runs."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value: 'x'"
    return parse


def _add_data_flags(p, split: bool = True):
    """--scene-dir and --stride; with `split`, the horizons and --val-fraction too."""
    p.add_argument(
        "--scene-dir",
        default=os.environ.get("CROWDGNN_DATA_DIR"),
        help="directory of per-scene .txt trajectory files",
    )
    p.add_argument("--stride", type=_int_at_least(1), default=1)
    if split:
        p.add_argument("--t-obs", type=_int_at_least(2), default=8)
        p.add_argument("--t-pred", type=_int_at_least(1), default=12)
        p.add_argument("--val-fraction", type=float, default=0.1)


def _add_graph_flags(p):
    p.add_argument("--graph", choices=[n.value for n in Neighborhood], default="view")
    p.add_argument("--kernel", choices=[k.value for k in Kernel], default="inv")
    p.add_argument("--epsilon", type=float, default=5.0)
    p.add_argument(
        "--approach-sense",
        choices=[s.value for s in ApproachSense],
        default="prose",
    )
    p.add_argument("--self-loops", action="store_true")
    p.add_argument(
        "--normalization",
        choices=[n.value for n in Normalization],
        default="laplacian",
    )


def _add_train_flags(p):
    p.add_argument("--epochs", type=int, default=250)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--lr-initial", type=float, default=0.01)
    p.add_argument("--lr-after", type=float, default=0.002)
    p.add_argument("--lr-switch-epoch", type=int, default=150)
    p.add_argument("--clip-norm", type=float, default=None)


def _graph_cfg(args) -> GraphConfig:
    return GraphConfig(
        neighborhood=args.graph,
        kernel=args.kernel,
        epsilon=args.epsilon,
        approach_sense=args.approach_sense,
        self_loops=args.self_loops,
        normalization=args.normalization,
    )


def _train_cfg(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        lr_initial=args.lr_initial,
        lr_after=args.lr_after,
        lr_switch_epoch=min(args.lr_switch_epoch, args.epochs),
        seed=args.seed,
        clip_norm=args.clip_norm,
    )


def _scene_dir(args) -> Path:
    if not args.scene_dir:
        raise UsageError("--scene-dir (or CROWDGNN_DATA_DIR) is required")
    scene_dir = Path(args.scene_dir)
    if not scene_dir.is_dir():
        raise UsageError(f"scene directory not found: {scene_dir}")
    return scene_dir


def _require_test(test: list, held_out: str, t_total: int) -> list:
    if not test:  # fail before anything is trained or evaluated
        raise UsageError(
            f"held-out scene {held_out!r} has no {t_total}-frame window to evaluate"
        )
    return test


def _load_split(args) -> tuple[dict, DatasetSplit]:
    """(windows per scene, leave-one-out split) of the scene directory."""
    scenes = load_scene_dir(
        _scene_dir(args), t_obs=args.t_obs, t_pred=args.t_pred, stride=args.stride
    )
    if not scenes:
        raise UsageError("no scene files")
    split = leave_one_out_split(
        scenes, args.held_out, val_fraction=args.val_fraction, seed=args.seed
    )
    return scenes, split


def _load_held_out(args, t_obs: int, t_pred: int) -> list:
    """The windows of <scene-dir>/<held-out>.txt alone, cut with the given horizons."""
    scene_dir = _scene_dir(args)
    path = scene_dir / f"{args.held_out}.txt"
    if path.parent != scene_dir or not path.is_file():
        raise UsageError(f"held-out scene file not found: {path}")
    tracks = data_mod.parse_trajectory_file(path)
    windows = data_mod.make_windows(tracks, t_obs, t_pred, args.stride, args.held_out)
    return _require_test(windows, args.held_out, t_obs + t_pred)


def _load_checkpoint(path) -> tuple[ModelParameters, GraphConfig, dict]:
    """(parameters, stored graph config, extra config) of a checkpoint."""
    params, extra = ModelParameters.load(path)
    if "graph_config" not in extra:
        raise UsageError(f"{path}: checkpoint stores no graph config")
    try:
        return params, GraphConfig(**extra["graph_config"]), extra
    except (TypeError, ValueError) as exc:  # e.g. an unknown enum value
        raise ValueError(f"{path}: invalid graph_config: {exc}") from None


# ---- subcommands ------------------------------------------------------------


def cmd_prep(args) -> int:
    scenes, split = _load_split(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, windows in [("train", split.train), ("val", split.val), ("test", split.test)]:
        data_mod.save_windows(out / f"{name}.npz", windows)
    manifest = {
        "format_version": data_mod.ARCHIVE_FORMAT_VERSION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scenes": {name: len(w) for name, w in sorted(scenes.items())},
        "held_out": args.held_out,
        "window_counts": {
            "train": len(split.train),
            "val": len(split.val),
            "test": len(split.test),
        },
        "config_echo": {
            k: getattr(args, k)
            for k in ["scene_dir", "held_out", "t_obs", "t_pred", "stride",
                      "val_fraction", "seed"]
        },
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"wrote {out}/{{train,val,test}}.npz + manifest.json")
    return 0


def cmd_dump_graph(args) -> int:
    windows = data_mod.load_windows(args.archive)
    cfg = _graph_cfg(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    selected = [
        w for w in windows if args.window_id is None or w.window_id == args.window_id
    ]
    if args.window_id is not None and not selected:
        raise UsageError(f"unknown window id {args.window_id!r}")
    for w in selected:
        adjacency = graph_adjacency(w, cfg)
        doc = {
            "window_id": w.window_id,
            "config_echo": cfg.to_dict(),
            "adjacency": adjacency.tolist(),
            "degree": adjacency.sum(axis=2).tolist(),
            "normalized": build_graph_sequence(w, cfg).tolist(),
        }
        fname = w.window_id.replace(":", "_") + ".json"
        with open(out / fname, "w") as fh:
            json.dump(doc, fh)
    print(f"wrote {len(selected)} graph document(s) to {out}")
    return 0


def cmd_train(args) -> int:
    _, split = _load_split(args)
    graph_cfg = _graph_cfg(args)
    train_cfg = _train_cfg(args)
    model_cfg = ModelConfig(t_obs=args.t_obs, t_pred=args.t_pred)

    def log(rec):
        print(
            f"epoch {rec.epoch:4d}  train_nll {rec.train_nll:+.4f}  "
            f"val_nll {rec.val_nll:+.4f}  lr {rec.lr:g}"
        )

    # train() writes the best state to args.out whenever it improves
    _, history = train(
        split, graph_cfg, train_cfg, model_cfg, ckpt_path=args.out,
        log=log if not args.quiet else None,
    )
    if args.history:
        write_history_csv(args.history, history)
    print(f"saved checkpoint to {args.out}")
    return 0


def cmd_eval(args) -> int:
    params, graph_cfg, extra = _load_checkpoint(args.ckpt)
    test = _load_held_out(args, params.cfg.t_obs, params.cfg.t_pred)
    report = evaluate(
        test,
        graph_cfg,
        params,
        k=args.samples,
        seed=args.seed,
        independent_min=args.independent_min,
        config_echo={
            "checkpoint": str(args.ckpt),
            "held_out": args.held_out,
            "t_obs": params.cfg.t_obs,
            "t_pred": params.cfg.t_pred,
            "stride": args.stride,
            "independent_min": args.independent_min,
            "train_config": extra.get("train_config", {}),
        },
    )
    report.save(args.report)
    print(f"ADE {report.ade_mean:.4f}  FDE {report.fde_mean:.4f} -> {args.report}")
    return 0


SWEEP_GRID = [("social-stgcnn-baseline", social_stgcnn_baseline_config())] + [
    (neighborhood.value, GraphConfig(neighborhood=neighborhood, kernel=kernel))
    for kernel in (Kernel.INVERSE_NORM, Kernel.EXP_DECAY)
    for neighborhood in (Neighborhood.VIEW, Neighborhood.VIEW_THRESH,
                         Neighborhood.APPROACH, Neighborhood.VIEW_APPROACH)
]


def cmd_sweep(args) -> int:
    if not 0 < args.subsample <= 1:  # NaN too
        raise UsageError(f"--subsample must be in (0, 1], got {args.subsample}")
    _, split = _load_split(args)
    _require_test(split.test, args.held_out, args.t_obs + args.t_pred)
    if args.subsample < 1.0:
        rng = np.random.default_rng(args.seed)

        def sub(ws):
            n = max(1, int(round(args.subsample * len(ws)))) if ws else 0
            idx = rng.choice(len(ws), size=n, replace=False) if ws else []
            return [ws[i] for i in sorted(idx)]

        split = DatasetSplit(
            train=sub(split.train), val=sub(split.val), test=sub(split.test),
            held_out_scene=split.held_out_scene,
        )
    train_cfg = _train_cfg(args)
    model_cfg = ModelConfig(t_obs=args.t_obs, t_pred=args.t_pred)
    rows = []
    for name, graph_cfg in SWEEP_GRID:
        params, _ = train(split, graph_cfg, train_cfg, model_cfg)
        report = evaluate(split.test, graph_cfg, params, k=args.samples, seed=args.seed)
        rows.append((name, graph_cfg.kernel.value, report.ade_mean, report.fde_mean))
        if not args.quiet:
            print(
                f"{name:24s} kernel={graph_cfg.kernel.value:4s} "
                f"ADE {report.ade_mean:.3f}  FDE {report.fde_mean:.3f}"
            )
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "kernel", f"{args.held_out}_ade", f"{args.held_out}_fde"])
        for name, kernel_name, a, f in rows:
            writer.writerow([name, kernel_name, f"{a:.6f}", f"{f:.6f}"])
    print(f"wrote sweep table to {args.out}")
    return 0


def cmd_export_plot(args) -> int:
    params, graph_cfg, _ = _load_checkpoint(args.ckpt)
    windows = data_mod.load_windows(args.archive)
    matches = [w for w in windows if w.window_id == args.window_id]
    if not matches:
        raise UsageError(f"unknown window id {args.window_id!r}")
    w = matches[0]
    if (w.t_obs, w.t_pred) != (params.cfg.t_obs, params.cfg.t_pred):
        raise UsageError(
            f"{args.archive}: window {w.window_id} has t_obs={w.t_obs}, "
            f"t_pred={w.t_pred}, but {args.ckpt} was trained with "
            f"t_obs={params.cfg.t_obs}, t_pred={params.cfg.t_pred}"
        )
    rows = []
    for i in range(w.n_peds):
        for t in range(w.t_obs):
            rows.append((i, t, "observed", -1, w.positions[i, t, 0], w.positions[i, t, 1]))
        for t in range(w.t_pred):
            rows.append(
                (i, w.t_obs + t, "truth", -1,
                 w.positions[i, w.t_obs + t, 0], w.positions[i, w.t_obs + t, 1])
            )
    if args.samples > 0:
        g = predict_gaussians(w, graph_cfg, params)
        preds = sample_trajectory(
            g, w.positions[:, w.t_obs - 1],
            sample_generators(args.seed, w.window_id, args.samples),
        )
        for s, pred in enumerate(preds):
            for i in range(w.n_peds):
                for t in range(w.t_pred):
                    rows.append((i, w.t_obs + t, "sample", s, pred[i, t, 0], pred[i, t, 1]))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ped_id", "frame", "kind", "sample_idx", "x", "y"])
        for r in rows:
            writer.writerow([r[0], r[1], r[2], r[3], repr(float(r[4])), repr(float(r[5]))])
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---- parser ------------------------------------------------------------------


class _FlagParser(argparse.ArgumentParser):
    """An ArgumentParser that records the flags added to it."""

    def __init__(self, *args, **kwargs):
        self.flags: set[str] = set()  # the base __init__ adds --help
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags.update(action.option_strings)
        return action


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, _FlagParser]]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="crowdgnn", description="Pedestrian trajectory prediction toolkit",
        allow_abbrev=False,  # "--conf" must not be taken as "--config"
    )
    parser.add_argument("--config", help="JSON file of flag defaults")
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_FlagParser
    )

    p = sub.add_parser("prep", help="parse scenes, window, split, and archive")
    _add_data_flags(p)
    p.add_argument("--held-out", required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True, help="output directory for archives")
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("dump-graph", help="emit adjacency JSON per window")
    _add_graph_flags(p)
    p.add_argument("--archive", required=True, help="window archive (.npz)")
    p.add_argument("--window-id", default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_dump_graph)

    p = sub.add_parser("train", help="train a model")
    _add_data_flags(p)
    _add_graph_flags(p)
    p.add_argument("--held-out", required=True)
    _add_train_flags(p)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", default=None, help="loss history CSV path")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="best-of-k ADE/FDE on the held-out scene")
    _add_data_flags(p, split=False)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--held-out", required=True)
    p.add_argument("--samples", type=_int_at_least(1), default=20)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--independent-min", action="store_true")
    p.add_argument("--report", required=True, help="output JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train/eval the neighborhood x kernel grid")
    _add_data_flags(p)
    p.add_argument("--held-out", required=True)
    _add_train_flags(p)
    p.add_argument("--samples", type=_int_at_least(1), default=20)
    p.add_argument("--subsample", type=float, default=1.0,
                   help="fraction of windows to keep in each split")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-plot", help="CSV of observed/truth/sampled points")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--archive", required=True)
    p.add_argument("--window-id", required=True)
    p.add_argument("--samples", type=_int_at_least(0), default=20)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_plot)

    return parser, sub.choices


def _apply_config_file(commands: dict[str, _FlagParser], argv: list[str]) -> list[str]:
    """Use a JSON config file as flag defaults; command-line flags override.

    One file can serve several subcommands: each takes the keys that are
    its flags and skips the rest. A key that no subcommand has is an error.
    """
    # "--config PATH" or "--config=PATH"
    i = next((i for i, tok in enumerate(argv) if tok.partition("=")[0] == "--config"), None)
    if i is None:
        return argv
    _, inline, path = argv[i].partition("=")
    if inline:
        rest = argv[:i] + argv[i + 1 :]
    elif i + 1 == len(argv):
        raise UsageError("--config needs a JSON file path")
    else:
        path, rest = argv[i + 1], argv[:i] + argv[i + 2 :]
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # e.g. a directory, bad UTF-8 or JSON
        raise UsageError(f"{path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    known = set().union(*(p.flags for p in commands.values()))
    flags = {}
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if flag not in known:
            raise UsageError(f"{path}: unknown config key {key!r}")
        flags[flag] = value
    # the subcommand is the first token that is not a flag
    j = next((j for j, tok in enumerate(rest) if not tok.startswith("-")), None)
    if j is None or rest[j] not in commands:
        return rest  # argparse reports the missing or unknown subcommand
    extra = []
    for flag, value in flags.items():
        if flag not in commands[rest[j]].flags or flag in rest:
            continue
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        else:
            extra.extend([flag, str(value)])
    return rest[: j + 1] + extra + rest[j + 1 :]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        argv = _apply_config_file(commands, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    # TrajectoryParseError is a ValueError
    except (UsageError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
