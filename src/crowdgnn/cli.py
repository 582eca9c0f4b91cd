"""Command-line entry point: dump-graph, train, eval, sweep, export-plot.

Exit codes: 0 success, 2 bad input (`data.InputError`), 1 anything else.
The default scene directory can be set with the CROWDGNN_DATA_DIR environment
variable; a JSON config file (--config) provides flag defaults, flags override it.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from .data import DatasetSplit, InputError, leave_one_out_split, load_scene_dir
from .evaluate import PredictionDiverged, draw_samples, evaluate, predict_gaussians
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


def _add_scene_dir_flag(p):
    p.add_argument(
        "--scene-dir",
        default=os.environ.get("CROWDGNN_DATA_DIR"),
        help="directory of per-scene .txt trajectory files",
    )


def _add_horizon_flags(p):
    p.add_argument("--t-obs", type=_int_at_least(2), default=8)
    p.add_argument("--t-pred", type=_int_at_least(1), default=12)


def _add_data_flags(p, split: bool = True):
    """--scene-dir and --stride; with `split`, the horizons and --val-fraction too."""
    _add_scene_dir_flag(p)
    p.add_argument("--stride", type=_int_at_least(1), default=1)
    if split:
        _add_horizon_flags(p)
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
        raise InputError("--scene-dir (or CROWDGNN_DATA_DIR) is required")
    scene_dir = Path(args.scene_dir)
    if not scene_dir.is_dir():
        raise InputError(f"scene directory not found: {scene_dir}")
    return scene_dir


def _check_out_paths(args, *flags: str) -> None:
    """Refuse, before any work, an output file path that is a directory, whose
    directory is missing, that names the checkpoint or another output, or that
    names a scene file, or a `.txt` file in the scene directory, which the next
    run would read as a scene: the file is written only once the work is done."""
    taken = {}  # resolved path -> the flag that names it
    if getattr(args, "ckpt", None) is not None:
        taken[Path(args.ckpt).resolve()] = "--ckpt"
    scene_dir = Path(args.scene_dir).resolve() if args.scene_dir else None
    scene_files = {f.resolve() for f in scene_dir.glob("*.txt")} if scene_dir else set()
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        path = Path(value)
        if not path.parent.is_dir():
            raise InputError(f"{flag}: directory not found: {path.parent}")
        if path.is_dir():
            raise InputError(f"{flag}: is a directory: {path}")
        resolved = path.resolve()
        if resolved in scene_files or (path.parent.resolve() == scene_dir
                                       and path.name.endswith(".txt")):
            raise InputError(f"{flag}: names a scene file in the scene directory: {path}")
        other = taken.setdefault(resolved, flag)
        if other != flag:
            raise InputError(f"{flag}: names the same file as {other}: {path}")


def _require_windows(windows: list, scene: str, t_total: int) -> list:
    if not windows:  # fail before anything is trained, evaluated or written
        raise InputError(f"scene {scene!r} has no {t_total}-frame window")
    return windows


def _load_split(args) -> tuple[dict, DatasetSplit]:
    """(windows per scene, leave-one-out split) of the scene directory."""
    scenes = load_scene_dir(
        _scene_dir(args), t_obs=args.t_obs, t_pred=args.t_pred, stride=args.stride
    )
    if not scenes:
        raise InputError("no scene files")
    split = leave_one_out_split(
        scenes, args.held_out, val_fraction=args.val_fraction, seed=args.seed
    )
    return scenes, split


def _load_scene(args, scene: str, t_obs: int, t_pred: int, stride: int) -> list:
    """The windows of <scene-dir>/<scene>.txt alone; there must be one."""
    scene_dir = _scene_dir(args)
    path = scene_dir / f"{scene}.txt"
    if path.parent != scene_dir or not path.is_file():
        raise InputError(f"scene file not found: {path}")
    windows = data_mod.load_scene(path, t_obs, t_pred, stride)
    return _require_windows(windows, scene, t_obs + t_pred)


def _window_scene(window_id: str) -> str:
    """The scene of a `<scene>:<start frame>` window id (a scene id may hold ':')."""
    scene, _, start = window_id.rpartition(":")
    if not scene or not start.isdigit():
        raise InputError(f"malformed window id {window_id!r}: want <scene>:<start frame>")
    if (fault := data_mod._scene_id_fault(scene)) is not None:
        raise InputError(f"window id {window_id!r}: {fault}")
    return scene


def _find_window(windows: list, window_id: str):
    for w in windows:
        if w.window_id == window_id:
            return w
    raise InputError(f"unknown window id {window_id!r}")


def _load_checkpoint(path) -> tuple[ModelParameters, GraphConfig, dict]:
    """(parameters, stored graph config, extra config) of a checkpoint."""
    params, extra = ModelParameters.load(path)
    if "graph_config" not in extra:
        raise InputError(f"{path}: checkpoint stores no graph config")
    try:
        return params, GraphConfig(**extra["graph_config"]), extra
    except (TypeError, ValueError) as exc:  # e.g. an unknown enum value
        raise InputError(f"{path}: invalid graph_config: {exc}") from None


# ---- subcommands ------------------------------------------------------------


def cmd_dump_graph(args) -> int:
    out = Path(args.out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():  # mkdir below would fail once the scene is cut
        raise InputError(f"--out: not a directory: {existing}")
    cfg = _graph_cfg(args)
    windows = _load_scene(args, args.scene, args.t_obs, args.t_pred, stride=1)
    if args.window_id is not None:
        windows = [_find_window(windows, args.window_id)]
    out.mkdir(parents=True, exist_ok=True)
    for w in windows:
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
    print(f"wrote {len(windows)} graph document(s) to {out}")
    return 0


def cmd_train(args) -> int:
    _check_out_paths(args, "--out", "--history")
    graph_cfg = _graph_cfg(args)
    train_cfg = _train_cfg(args)
    model_cfg = ModelConfig(t_obs=args.t_obs, t_pred=args.t_pred)
    _, split = _load_split(args)

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
    _check_out_paths(args, "--report")
    params, graph_cfg, extra = _load_checkpoint(args.ckpt)
    test = _load_scene(args, args.held_out, params.cfg.t_obs, params.cfg.t_pred,
                       args.stride)
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
    _check_out_paths(args, "--out")
    train_cfg = _train_cfg(args)
    model_cfg = ModelConfig(t_obs=args.t_obs, t_pred=args.t_pred)
    if not 0 < args.subsample <= 1:  # NaN too
        raise InputError(f"--subsample must be in (0, 1], got {args.subsample}")
    _, split = _load_split(args)
    _require_windows(split.test, args.held_out, args.t_obs + args.t_pred)
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
    _check_out_paths(args, "--out")
    params, graph_cfg, _ = _load_checkpoint(args.ckpt)
    # stride 1 reaches every start frame
    scene = _window_scene(args.window_id)
    windows = _load_scene(args, scene, params.cfg.t_obs, params.cfg.t_pred, stride=1)
    w = _find_window(windows, args.window_id)
    rows = []
    for i in range(w.n_peds):
        for t in range(w.t_obs + w.t_pred):
            kind = "observed" if t < w.t_obs else "truth"
            rows.append((i, t, kind, -1, w.positions[i, t, 0], w.positions[i, t, 1]))
    if args.samples > 0:
        preds = draw_samples(w, predict_gaussians(w, graph_cfg, params), args.samples,
                             args.seed)
        if not np.all(np.isfinite(preds)):
            raise PredictionDiverged(f"window {w.window_id}: non-finite trajectory sample")
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

    p = sub.add_parser("dump-graph", help="emit adjacency JSON per window of a scene")
    _add_scene_dir_flag(p)
    p.add_argument("--scene", required=True, help="scene id: the file stem in --scene-dir")
    p.add_argument("--window-id", default=None, help="<scene>:<start frame>")
    _add_horizon_flags(p)
    _add_graph_flags(p)
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
    _add_scene_dir_flag(p)
    p.add_argument("--window-id", required=True, help="<scene>:<start frame>")
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
        raise InputError("--config needs a JSON file path")
    else:
        path, rest = argv[i + 1], argv[:i] + argv[i + 2 :]
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # e.g. a directory, bad UTF-8 or JSON
        raise InputError(f"{path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise InputError(f"{path}: config must be a JSON object")
    known = set().union(*(p.flags for p in commands.values()))
    flags = {}
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if flag not in known:
            raise InputError(f"{path}: unknown config key {key!r}")
        if value is None or isinstance(value, (list, dict)):
            raise InputError(f"{path}: config key {key!r} needs a number, string or bool, "
                             f"got {json.dumps(value)}")
        flags[flag] = value
    # the subcommand is the first token that is not a flag
    j = next((j for j, tok in enumerate(rest) if not tok.startswith("-")), None)
    if j is None or rest[j] not in commands:
        return rest  # argparse reports the missing or unknown subcommand
    # right after the subcommand, so a command-line flag, in either spelling,
    # comes later and wins; an invalid config value still exits 2
    extra = []
    for flag, value in flags.items():
        if flag not in commands[rest[j]].flags:
            continue
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        else:  # one token, so a value such as "-scenes" is not read as a flag
            extra.append(f"{flag}={value}")
    return rest[: j + 1] + extra + rest[j + 1 :]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        argv = _apply_config_file(commands, argv)
        args = parser.parse_args(argv)
        # every non-finite result is checked and named, so numpy's floating
        # point warnings would only print ahead of that one line
        with np.errstate(all="ignore"):
            return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a diverged model or a program fault
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
