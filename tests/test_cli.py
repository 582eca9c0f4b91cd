import csv
import json
import shutil

import numpy as np
import pytest

import crowdgnn.cli as cli_mod
from crowdgnn.cli import main
from crowdgnn.data import (
    TrajectoryWindow, leave_one_out_split, load_scene_dir,
    load_windows, save_windows,
)
from crowdgnn.graphs import GraphConfig, build_graph_sequence, graph_adjacency
from crowdgnn.model import ModelConfig, ModelParameters, chunks
from conftest import random_window
from test_data import _faulty, write_format_1_archive
from test_model import rewrite_header


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("scenes")
    rng = np.random.default_rng(0)
    for name in ["eth", "hotel", "univ", "zara01", "zara02"]:
        lines = []
        for ped in range(3):
            pos = rng.uniform(0, 10, 2)
            vel = rng.uniform(-0.4, 0.4, 2)
            for f in range(30):
                x, y = pos + f * vel
                lines.append(f"{f * 10} {ped} {float(x)!r} {float(y)!r}")
        (d / f"{name}.txt").write_text("\n".join(lines) + "\n")
    return d


@pytest.fixture
def short_scene_dir(scene_dir, tmp_path):
    """The scenes plus "short": 3 pedestrians over 12 frames, too few for a
    window of the default t_obs + t_pred = 20."""
    d = tmp_path / "scenes"
    shutil.copytree(scene_dir, d)
    lines = [f"{f * 10} {ped} {0.3 * f} {float(ped)}" for f in range(12) for ped in range(3)]
    (d / "short.txt").write_text("\n".join(lines) + "\n")
    return d


@pytest.fixture(scope="module")
def prep_dir(scene_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("prep")
    rc = main(
        ["prep", "--scene-dir", str(scene_dir), "--held-out", "eth",
         "--out", str(out), "--seed", "0"]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def ckpt(scene_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    rc = main(
        ["train", "--scene-dir", str(scene_dir), "--held-out", "eth",
         "--graph", "view", "--kernel", "inv", "--epochs", "2", "--batch", "8",
         "--lr-switch-epoch", "1", "--seed", "0", "--out", str(out), "--quiet"]
    )
    assert rc == 0
    return out


class TestPrep:
    def test_manifest_and_archives(self, prep_dir):
        manifest = json.loads((prep_dir / "manifest.json").read_text())
        assert manifest["held_out"] == "eth"
        assert manifest["config_echo"]["t_obs"] == 8
        assert manifest["config_echo"]["t_pred"] == 12
        assert set(manifest["scenes"]) == {"eth", "hotel", "univ", "zara01", "zara02"}
        test_windows = load_windows(prep_dir / "test.npz")
        assert test_windows
        assert all(w.scene_id == "eth" for w in test_windows)

    def test_custom_horizons_echoed(self, scene_dir, tmp_path):
        rc = main(
            ["prep", "--scene-dir", str(scene_dir), "--held-out", "eth",
             "--t-obs", "6", "--t-pred", "4", "--out", str(tmp_path)]
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_echo"]["t_obs"] == 6
        assert manifest["config_echo"]["t_pred"] == 4

    def test_empty_directory_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(
            ["prep", "--scene-dir", str(empty), "--held-out", "eth",
             "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "no scene files" in capsys.readouterr().err

    def test_missing_dir_exit_2(self, tmp_path):
        rc = main(
            ["prep", "--scene-dir", str(tmp_path / "nope"), "--held-out", "eth",
             "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_non_utf8_scene_file_names_file(self, scene_dir, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        shutil.copytree(scene_dir, scenes)
        bad = scenes / "bad.txt"
        bad.write_bytes(b"\xff0 1 2.0 3.0\n")
        rc = main(
            ["prep", "--scene-dir", str(scenes), "--held-out", "eth",
             "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert f"error: {bad}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_backslash_scene_stem_exit_2(self, scene_dir, tmp_path, capsys):
        # legal in a Linux file name, but no archived window may hold it
        scenes = tmp_path / "scenes"
        shutil.copytree(scene_dir, scenes)
        bad = scenes / "a\\b.txt"
        bad.write_text((scenes / "eth.txt").read_text())
        rc = main(
            ["prep", "--scene-dir", str(scenes), "--held-out", "a\\b",
             "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: scene id 'a\\\\b' holds a path separator or NUL" in err
        assert not (tmp_path / "o").exists()

    def test_unknown_held_out_scene_exit_2(self, scene_dir, tmp_path, capsys):
        rc = main(
            ["prep", "--scene-dir", str(scene_dir), "--held-out", "x",
             "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: unknown scene 'x'; have ['eth', ")
        assert not (tmp_path / "o").exists()

    def test_key_error_is_a_runtime_failure(self, scene_dir, tmp_path, capsys, monkeypatch):
        def fault(*args, **kwargs):
            raise KeyError("w0_positions")

        monkeypatch.setattr(cli_mod.data_mod, "save_windows", fault)
        rc = main(
            ["prep", "--scene-dir", str(scene_dir), "--held-out", "eth",
             "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        assert capsys.readouterr().err == "failure: 'w0_positions'\n"


class TestDumpGraph:
    def test_documents_written(self, prep_dir, tmp_path):
        out = tmp_path / "graphs"
        rc = main(
            ["dump-graph", "--archive", str(prep_dir / "test.npz"),
             "--graph", "view-thresh", "--kernel", "exp", "--out", str(out)]
        )
        assert rc == 0
        docs = list(out.glob("*.json"))
        assert docs
        doc = json.loads(docs[0].read_text())
        assert doc["config_echo"]["neighborhood"] == "view-thresh"
        assert doc["config_echo"]["kernel"] == "exp"
        adj = np.array(doc["adjacency"])
        assert adj.shape[0] == 8  # observed frames
        assert np.allclose(adj, np.transpose(adj, (0, 2, 1)))
        (w,) = [w for w in load_windows(prep_dir / "test.npz")
                if w.window_id == doc["window_id"]]
        cfg = GraphConfig(neighborhood="view-thresh", kernel="exp")
        want = graph_adjacency(w, cfg)
        assert np.array_equal(adj, want)
        assert np.array_equal(doc["degree"], want.sum(axis=2))
        assert np.array_equal(doc["normalized"], build_graph_sequence(w, cfg))

    def test_unknown_window_id_errors(self, prep_dir, tmp_path):
        rc = main(
            ["dump-graph", "--archive", str(prep_dir / "test.npz"),
             "--window-id", "nope:999", "--out", str(tmp_path / "g")]
        )
        assert rc == 2

    @pytest.mark.parametrize("fault", ["t_obs=1", "nan-position"])
    def test_faulty_archive_exit_2(self, tmp_path, rng, fault, capsys):
        archive = tmp_path / "bad.npz"
        save_windows(archive, [_faulty(random_window(rng), fault)])
        rc = main(
            ["dump-graph", "--archive", str(archive), "--graph", "approach",
             "--out", str(tmp_path / "g")]
        )
        assert rc == 2
        assert f"{archive}: window 0: " in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_scene_id_path_writes_nothing(self, tmp_path, rng, capsys):
        archive = tmp_path / "bad.npz"
        bad = _faulty(random_window(rng), "scene-id-slash")
        save_windows(archive, [random_window(rng), bad])
        out = tmp_path / "inside" / "out"
        rc = main(["dump-graph", "--archive", str(archive), "--out", str(out)])
        assert rc == 2
        assert (f"error: {archive}: window 1: scene id '../escaped' holds a path "
                "separator or NUL") in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.npz"]

    def test_format_1_archive_exit_2(self, tmp_path, rng, capsys):
        archive = tmp_path / "old.npz"
        write_format_1_archive(archive, random_window(rng))
        rc = main(["dump-graph", "--archive", str(archive), "--out", str(tmp_path / "g")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {archive}: archive format version 1, ")
        assert "re-run `crowdgnn prep`" in err
        assert not (tmp_path / "g").exists()

    def test_integer_archive_same_documents(self, tmp_path, rng):
        # whole-meter positions: the same values as int64 and as float64
        pos = rng.integers(-20, 20, size=(3, 20, 2))
        docs = {}
        for dtype in ("int64", "float64"):
            p = pos.astype(dtype)
            w = TrajectoryWindow("ints", 40, p, 8, 12)
            assert w.positions.dtype == w.displacements.dtype == dtype
            archive = tmp_path / f"{dtype}.npz"
            save_windows(archive, [w])
            out = tmp_path / f"graphs-{dtype}"
            rc = main(["dump-graph", "--archive", str(archive), "--graph", "view-approach",
                       "--kernel", "exp", "--out", str(out)])
            assert rc == 0
            docs[dtype] = {f.name: f.read_bytes() for f in out.glob("*.json")}
        assert list(docs["int64"]) == ["ints_40.json"]
        assert docs["int64"] == docs["float64"]

    @pytest.mark.parametrize("content", [b"", b"frame ped x y\n"], ids=["empty", "text"])
    def test_unreadable_archive_exit_2(self, tmp_path, content, capsys):
        archive = tmp_path / "bad.npz"
        archive.write_bytes(content)
        rc = main(
            ["dump-graph", "--archive", str(archive), "--out", str(tmp_path / "g")]
        )
        assert rc == 2
        assert f"{archive}: unreadable archive: " in capsys.readouterr().err
        assert not (tmp_path / "g").exists()


@pytest.fixture(scope="module")
def overflow_ckpt(ckpt, tmp_path_factory):
    """The trained checkpoint with every tensor times 1e150: finite weights
    whose forward overflows to non-finite raw outputs."""
    params, extra = ModelParameters.load(ckpt)
    params.theta *= 1e150
    path = tmp_path_factory.mktemp("overflow") / "big.ckpt"
    params.save(path, extra_config=extra)
    return path


def drop_graph_config(header):
    del header["extra_config"]["graph_config"]


class TestTrainEval:
    def test_eval_writes_report(self, scene_dir, ckpt, tmp_path):
        report = tmp_path / "report.json"
        rc = main(
            ["eval", "--ckpt", str(ckpt), "--scene-dir", str(scene_dir),
             "--held-out", "eth", "--samples", "3", "--seed", "1",
             "--report", str(report)]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["n_samples"] == 3
        assert doc["aggregate"]["ade_mean"] >= 0
        assert doc["config_echo"]["graph_config"]["neighborhood"] == "view"

    def test_eval_report_echoes_stride_min_and_horizons(self, scene_dir, ckpt, tmp_path):
        report = tmp_path / "report.json"
        rc = main(
            ["eval", "--ckpt", str(ckpt), "--scene-dir", str(scene_dir),
             "--held-out", "eth", "--samples", "2", "--stride", "3",
             "--independent-min", "--report", str(report)]
        )
        assert rc == 0
        echo = json.loads(report.read_text())["config_echo"]
        assert {k: echo[k] for k in ("t_obs", "t_pred", "stride", "independent_min")} == {
            "t_obs": 8, "t_pred": 12, "stride": 3, "independent_min": True}

    def test_eval_held_out_scene_without_windows_exit_2(self, short_scene_dir, ckpt,
                                                        tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(
            ["eval", "--ckpt", str(ckpt), "--scene-dir", str(short_scene_dir),
             "--held-out", "short", "--report", str(report)]
        )
        assert rc == 2
        assert "held-out scene 'short' has no 20-frame window" in capsys.readouterr().err
        assert not report.exists()

    def test_eval_deterministic(self, scene_dir, ckpt, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            main(
                ["eval", "--ckpt", str(ckpt), "--scene-dir", str(scene_dir),
                 "--held-out", "eth", "--samples", "3", "--seed", "1",
                 "--report", str(path)]
            )
            reports.append(json.loads(path.read_text()))
        assert reports[0]["aggregate"] == reports[1]["aggregate"]

    def test_earlier_checkpoint_header(self, scene_dir, ckpt, tmp_path, capsys):
        # headers written before the architecture was fixed stored its
        # settings beside the horizons; such a header is rejected
        def add_earlier_settings(h):
            h["model_config"] = {
                "t_obs": 8, "t_pred": 12, "in_features": 2, "gaussian_channels": 5,
                "stgcn_temporal_kernel": 3, "txp_layers": 5, "txp_kernel": 3,
                "stgcn_residual": True, "stgcn_bias": True, "txp_residual": True,
                "prelu_init": 0.25,
            }
            h["extra_config"]["graph_config"]["bearing_gate"] = False

        earlier = tmp_path / "earlier.ckpt"
        earlier.write_bytes(ckpt.read_bytes())
        rewrite_header(earlier, add_earlier_settings)
        rc = main(
            ["eval", "--ckpt", str(earlier), "--scene-dir", str(scene_dir),
             "--held-out", "eth", "--samples", "3", "--report", str(tmp_path / "r.json")]
        )
        assert rc == 2
        assert (f"error: {earlier}: unknown model_config key 'in_features'"
                in capsys.readouterr().err)
        assert not (tmp_path / "r.json").exists()

    def test_non_finite_checkpoint_exit_2(self, scene_dir, ckpt, tmp_path, capsys):
        params, extra = ModelParameters.load(ckpt)
        params["txp.out.b"].data[0] = np.nan
        bad = tmp_path / "nan.ckpt"
        params.save(bad, extra_config=extra)
        rc = main(
            ["eval", "--ckpt", str(bad), "--scene-dir", str(scene_dir),
             "--held-out", "eth", "--samples", "3", "--report", str(tmp_path / "r.json")]
        )
        assert rc == 2
        assert f"{bad}: tensor txp.out.b holds non-finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_overflowing_forward_exit_1(self, scene_dir, prep_dir, ckpt, overflow_ckpt,
                                        tmp_path, capsys):
        # a runtime failure that names the window, not an input error
        first = load_windows(prep_dir / "test.npz")[0].window_id
        rc = main(
            ["eval", "--ckpt", str(overflow_ckpt), "--scene-dir", str(scene_dir),
             "--held-out", "eth", "--samples", "3", "--report", str(tmp_path / "r.json")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert f"failure: window {first}: non-finite raw Gaussian parameters" in err
        assert not (tmp_path / "r.json").exists()

        # the trained model on scenes where pedestrian 0 of the held-out scene
        # is at 1.7e308 in frame 80. The first test window only predicts that
        # frame: its raw output is finite and its ADE overflows. The second
        # observes it, and its raw output overflows. Both run in the first
        # chunk. Without pedestrian 0's frame 0, the first window lacks them
        # and the second is named
        for drop, named, fault in [((), 0, "non-finite ADE inf"),
                                   (("0 0 ",), 1, "non-finite raw Gaussian parameters")]:
            spiked = tmp_path / f"spiked-{named}"
            spiked.mkdir()
            for path in scene_dir.glob("*.txt"):
                (spiked / path.name).write_text(path.read_text())
            eth = spiked / "eth.txt"
            eth.write_text("".join(
                "80 0 1.7e308 1.7e308\n" if line.startswith("80 0 ") else line
                for line in eth.read_text().splitlines(keepends=True)
                if not line.startswith(drop)
            ))
            windows = leave_one_out_split(load_scene_dir(spiked), "eth").test
            assert len(next(chunks(windows))) > 2
            assert [w.n_peds for w in windows[:2]] == [3 - named, 3]
            rc = main(
                ["eval", "--ckpt", str(ckpt), "--scene-dir", str(spiked),
                 "--held-out", "eth", "--samples", "3", "--report", str(tmp_path / "r.json")]
            )
            assert rc == 1
            err = capsys.readouterr().err
            assert f"failure: window {windows[named].window_id}: {fault}" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    @pytest.mark.parametrize("bias", [800.0, 400.0])
    def test_overflowing_sigma_exit_1(self, scene_dir, prep_dir, ckpt, tmp_path, capsys,
                                      bias):
        # finite raw outputs: at 800 sigma = e^800 overflows and the samples
        # are NaN, at 400 the samples are finite and the ADE norm overflows
        params, extra = ModelParameters.load(ckpt)
        params["txp.out.b"].data[...] = bias
        big = tmp_path / "sigma.ckpt"
        params.save(big, extra_config=extra)
        rc = main(
            ["eval", "--ckpt", str(big), "--scene-dir", str(scene_dir),
             "--held-out", "eth", "--samples", "3", "--report", str(tmp_path / "r.json")]
        )
        assert rc == 1
        first = load_windows(prep_dir / "test.npz")[0].window_id
        assert f"failure: window {first}: non-finite ADE" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "mutate",
        [lambda h: {k: v for k, v in h.items() if k != "format_version"},
         lambda h: {k: v for k, v in h.items() if k != "tensors"},
         lambda h: [h], lambda h: h["model_config"].update(t_obs="8"),
         lambda h: h.update(model_config=None),
         lambda h: h["extra_config"]["graph_config"].update(neighborhood="bogus"),
         # JSON true and 1.0 compare equal to 1, and 0 to false, in Python
         lambda h: h.update(format_version=True),
         lambda h: h.update(format_version=1.0),
         lambda h: h["tensors"][1].update(offset=float(h["tensors"][1]["offset"])),
         lambda h: h["tensors"][0].update(shape=[2.0, 5.0]),
         lambda h: h["model_config"].update(txp_layers=5.0),
         lambda h: h["model_config"].update(stgcn_residual=1),
         lambda h: h["extra_config"]["graph_config"].update(bearing_gate=0),
         lambda h: h["extra_config"]["graph_config"].update(epsilon=True),
         lambda h: h["extra_config"]["graph_config"].update(self_loops=1),
         lambda h: h.update(model_config={}),
         lambda h: h.update(model_config={"t_obs": 8}),
         drop_graph_config],
        ids=["no-format-version", "no-tensors", "list", "t_obs-string",
             "model_config-null", "bogus-neighborhood", "format_version-true",
             "format_version-float", "offset-float", "shape-float", "txp_layers-float",
             "stgcn_residual-int", "bearing_gate-int", "epsilon-true", "self_loops-int",
             "model_config-empty", "no-t_pred", "no-graph_config"],
    )
    def test_malformed_header_names_file(self, scene_dir, ckpt, tmp_path, mutate, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(ckpt.read_bytes())
        rewrite_header(bad, mutate)
        rc = main(
            ["eval", "--ckpt", str(bad), "--scene-dir", str(scene_dir),
             "--held-out", "eth", "--samples", "3", "--report", str(tmp_path / "r.json")]
        )
        assert rc == 2
        assert f"error: {bad}: " in capsys.readouterr().err

    def test_eval_reads_only_the_held_out_scene(self, scene_dir, ckpt, tmp_path):
        # a malformed file beside the scenes is not read, so the report is
        # the same as without it
        scenes = tmp_path / "scenes"
        shutil.copytree(scene_dir, scenes)
        (scenes / "zz.txt").write_text("not a trajectory record\n")
        reports = []
        for d, name in ((scene_dir, "clean.json"), (scenes, "zz.json")):
            path = tmp_path / name
            rc = main(
                ["eval", "--ckpt", str(ckpt), "--scene-dir", str(d),
                 "--held-out", "eth", "--samples", "3", "--report", str(path)]
            )
            assert rc == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("held_out", ["nope", "../{scenes}/eth"],
                             ids=["missing", "outside-scene-dir"])
    def test_eval_missing_held_out_file_exit_2(self, scene_dir, ckpt, tmp_path, capsys,
                                               held_out):
        # a held-out name is a file stem in --scene-dir, never a path out of it
        held_out = held_out.format(scenes=scene_dir.name)
        report = tmp_path / "r.json"
        rc = main(
            ["eval", "--ckpt", str(ckpt), "--scene-dir", str(scene_dir),
             "--held-out", held_out, "--report", str(report)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: held-out scene file not found: {scene_dir / held_out}.txt" in err
        assert not report.exists()

    @pytest.mark.parametrize("command", ["eval", "export-plot"])
    def test_checkpoint_without_graph_config_exit_2(self, scene_dir, prep_dir, ckpt,
                                                    tmp_path, capsys, command):
        bad = tmp_path / "nograph.ckpt"
        bad.write_bytes(ckpt.read_bytes())
        rewrite_header(bad, drop_graph_config)
        out = tmp_path / "out"
        first = load_windows(prep_dir / "test.npz")[0].window_id
        rc = main({
            "eval": ["eval", "--ckpt", str(bad), "--scene-dir", str(scene_dir),
                     "--held-out", "eth", "--report", str(out)],
            "export-plot": ["export-plot", "--ckpt", str(bad), "--archive",
                            str(prep_dir / "test.npz"), "--window-id", first,
                            "--out", str(out)],
        }[command])
        assert rc == 2
        assert f"error: {bad}: checkpoint stores no graph config" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_train_config_exit_2(self, scene_dir, tmp_path, capsys):
        for flag, value in (("--batch", "0"), ("--clip-norm", "-1")):
            rc = main(
                ["train", "--scene-dir", str(scene_dir), "--held-out", "eth",
                 "--epochs", "1", "--lr-switch-epoch", "1", flag, value,
                 "--out", str(tmp_path / "m.ckpt"), "--quiet"]
            )
            assert rc == 2
        err = capsys.readouterr().err
        assert "batch_size must be >= 1" in err
        assert "clip_norm must be positive" in err

    def test_history_csv_written(self, scene_dir, tmp_path):
        out = tmp_path / "m.ckpt"
        hist = tmp_path / "hist.csv"
        rc = main(
            ["train", "--scene-dir", str(scene_dir), "--held-out", "hotel",
             "--epochs", "1", "--batch", "16", "--lr-switch-epoch", "1",
             "--out", str(out), "--history", str(hist), "--quiet"]
        )
        assert rc == 0
        rows = list(csv.reader(hist.open()))
        assert rows[0] == ["epoch", "train_nll", "val_nll", "lr"]
        assert len(rows) == 2


class TestExportPlot:
    def test_row_counts_and_truth_roundtrip(self, prep_dir, ckpt, tmp_path):
        windows = load_windows(prep_dir / "test.npz")
        w = windows[0]
        out = tmp_path / "plot.csv"
        rc = main(
            ["export-plot", "--ckpt", str(ckpt), "--archive",
             str(prep_dir / "test.npz"), "--window-id", w.window_id,
             "--samples", "20", "--out", str(out)]
        )
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        n = w.n_peds
        assert sum(r["kind"] == "observed" for r in rows) == n * 8
        assert sum(r["kind"] == "truth" for r in rows) == n * 12
        assert sum(r["kind"] == "sample" for r in rows) == n * 12 * 20
        # truth rows reproduce archive positions bit-exactly
        for r in rows:
            if r["kind"] == "truth":
                i, t = int(r["ped_id"]), int(r["frame"])
                assert float(r["x"]) == w.positions[i, t, 0]
                assert float(r["y"]) == w.positions[i, t, 1]

    def test_samples_zero_boundary(self, prep_dir, ckpt, tmp_path):
        windows = load_windows(prep_dir / "test.npz")
        out = tmp_path / "plot0.csv"
        rc = main(
            ["export-plot", "--ckpt", str(ckpt), "--archive",
             str(prep_dir / "test.npz"), "--window-id", windows[0].window_id,
             "--samples", "0", "--out", str(out)]
        )
        assert rc == 0
        kinds = {r["kind"] for r in csv.DictReader(out.open())}
        assert kinds == {"observed", "truth"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_overflowing_forward_exit_1(self, prep_dir, overflow_ckpt, tmp_path, capsys):
        w = load_windows(prep_dir / "test.npz")[-1]
        rc = main(
            ["export-plot", "--ckpt", str(overflow_ckpt), "--archive",
             str(prep_dir / "test.npz"), "--window-id", w.window_id,
             "--samples", "2", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert f"failure: window {w.window_id}: non-finite raw Gaussian parameters" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_overflowing_sigma_exit_1(self, prep_dir, ckpt, tmp_path, capsys):
        # finite raw outputs whose sigma = e^800 overflows: the samples are NaN
        params, extra = ModelParameters.load(ckpt)
        params["txp.out.b"].data[...] = 800.0
        big = tmp_path / "sigma.ckpt"
        params.save(big, extra_config=extra)
        w = load_windows(prep_dir / "test.npz")[0]
        rc = main(
            ["export-plot", "--ckpt", str(big), "--archive", str(prep_dir / "test.npz"),
             "--window-id", w.window_id, "--samples", "2", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert f"failure: window {w.window_id}: non-finite trajectory sample" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "window_horizons, ckpt_horizons",
        [((8, 12), (8, 4)), ((8, 4), (8, 12)), ((5, 12), (8, 12))],
        ids=["window-t_pred-longer", "window-t_pred-shorter", "t_obs"],
    )
    def test_horizon_mismatch_exit_2(self, tmp_path, rng, capsys, window_horizons,
                                     ckpt_horizons):
        ckpt = tmp_path / "m.ckpt"
        ModelParameters(ModelConfig(*ckpt_horizons)).save(
            ckpt, extra_config={"graph_config": GraphConfig().to_dict()}
        )
        archive = tmp_path / "w.npz"
        w = random_window(rng, t_obs=window_horizons[0], t_pred=window_horizons[1])
        save_windows(archive, [w])
        out = tmp_path / "x.csv"
        rc = main(
            ["export-plot", "--ckpt", str(ckpt), "--archive", str(archive),
             "--window-id", w.window_id, "--samples", "2", "--out", str(out)]
        )
        assert rc == 2
        assert (f"{archive}: window {w.window_id} has t_obs={window_horizons[0]}, "
                f"t_pred={window_horizons[1]}, but {ckpt} was trained with "
                f"t_obs={ckpt_horizons[0]}, t_pred={ckpt_horizons[1]}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_window_exit_2(self, prep_dir, ckpt, tmp_path):
        rc = main(
            ["export-plot", "--ckpt", str(ckpt), "--archive",
             str(prep_dir / "test.npz"), "--window-id", "zzz:1",
             "--samples", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2

    def test_faulty_archive_exit_2(self, ckpt, tmp_path, rng, capsys):
        archive = tmp_path / "bad.npz"
        w = _faulty(random_window(rng), "t_pred-past-arrays")
        save_windows(archive, [w])
        rc = main(
            ["export-plot", "--ckpt", str(ckpt), "--archive", str(archive),
             "--window-id", w.window_id, "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2
        assert f"{archive}: window 0: " in capsys.readouterr().err

    def test_format_1_archive_exit_2(self, ckpt, tmp_path, rng, capsys):
        archive = tmp_path / "old.npz"
        w = random_window(rng)
        write_format_1_archive(archive, w)
        rc = main(
            ["export-plot", "--ckpt", str(ckpt), "--archive", str(archive),
             "--window-id", w.window_id, "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {archive}: archive format version 1, ")
        assert "re-run `crowdgnn prep`" in err
        assert not (tmp_path / "x.csv").exists()


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, scene_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t-obs": 6, "t-pred": 4, "held-out": "eth"}))
        out = tmp_path / "prep"
        rc = main(
            ["prep", "--config", str(cfg), "--scene-dir", str(scene_dir),
             "--t-pred", "5", "--out", str(out)]
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_echo"]["t_obs"] == 6
        assert manifest["config_echo"]["t_pred"] == 5  # flag wins

    def test_unknown_key_rejected(self, scene_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus-key": 1}))
        rc = main(
            ["prep", "--config", str(cfg), "--scene-dir", str(scene_dir),
             "--held-out", "eth", "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_one_file_serves_prep_and_train(self, scene_dir, tmp_path):
        # "epochs" and "lr-switch-epoch" are train flags; prep skips them
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"epochs": 1, "lr-switch-epoch": 1, "held-out": "zara01",
             "scene-dir": str(scene_dir)}
        ))
        out = tmp_path / "prep"
        assert main(["prep", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["held_out"] == "zara01"
        hist = tmp_path / "hist.csv"
        rc = main(
            ["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt"),
             "--history", str(hist), "--quiet"]
        )
        assert rc == 0
        assert len(list(csv.reader(hist.open()))) == 2  # header + 1 epoch

    def test_one_file_serves_train_and_eval(self, scene_dir, tmp_path):
        # graph and horizon keys are train flags; eval skips them and takes
        # both from the checkpoint
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"graph": "view-approach", "kernel": "exp", "t-obs": 6, "t-pred": 4,
             "epochs": 1, "batch": 16, "lr-switch-epoch": 1, "held-out": "eth",
             "scene-dir": str(scene_dir)}
        ))
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt), "--quiet"]) == 0
        report = tmp_path / "r.json"
        rc = main(["eval", "--config", str(cfg), "--ckpt", str(ckpt), "--samples", "2",
                   "--report", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["config_echo"]["graph_config"]["neighborhood"] == "view-approach"
        assert doc["config_echo"]["graph_config"]["kernel"] == "exp"
        assert (doc["config_echo"]["t_obs"], doc["config_echo"]["t_pred"]) == (6, 4)
        want = load_scene_dir(scene_dir, t_obs=6, t_pred=4)["eth"]
        assert [m["window_id"] for m in doc["per_window"]] == [w.window_id for w in want]

    @pytest.mark.parametrize("content, message", [
        ('{"epochs": 3\n', "Expecting ',' delimiter"),
        (None, "Is a directory"),
        (b'\xff{"epochs": 3}', "can't decode byte 0xff"),
    ], ids=["malformed", "directory", "not-utf8"])
    def test_malformed_json_names_file(self, scene_dir, tmp_path, capsys,
                                       content, message):
        cfg = tmp_path / "cfg.json"
        if content is None:
            cfg.mkdir()
        elif isinstance(content, bytes):
            cfg.write_bytes(content)
        else:
            cfg.write_text(content)
        rc = main(
            ["prep", "--config", str(cfg), "--scene-dir", str(scene_dir),
             "--held-out", "eth", "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}: " in err
        assert message in err

    def test_config_equals_form(self, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"t-obs": 6, "held-out": "eth", "scene-dir": str(scene_dir)}
        ))
        out = tmp_path / "prep"
        assert main(["prep", f"--config={cfg}", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_echo"]["t_obs"] == 6
        cfg.write_text(json.dumps({"bogus-key": 1}))
        assert main(["prep", f"--config={cfg}", "--out", str(tmp_path / "o")]) == 2
        assert f"{cfg}: unknown config key 'bogus-key'" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["--conf", "--con="])
    def test_abbreviated_config_flag_exit_2(self, scene_dir, tmp_path, capsys, form):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus-key": 1}))
        flag = [form + str(cfg)] if form.endswith("=") else [form, str(cfg)]
        out = tmp_path / "prep"
        with pytest.raises(SystemExit) as exc:
            main(flag + ["prep", "--scene-dir", str(scene_dir), "--held-out", "eth",
                         "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()  # prep did not run
        assert "crowdgnn: error:" in capsys.readouterr().err

    def test_bare_config_flag_exit_2(self, capsys):
        rc = main(["train", "--config"])
        assert rc == 2
        assert "--config needs a JSON file path" in capsys.readouterr().err


def test_sweep_small(scene_dir, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(
        ["sweep", "--scene-dir", str(scene_dir), "--held-out", "zara01",
         "--epochs", "1", "--batch", "16", "--samples", "2",
         "--subsample", "0.5", "--out", str(out), "--quiet"]
    )
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["method", "kernel", "zara01_ade", "zara01_fde"]
    assert len(rows) == 10  # baseline + 4 neighborhoods x 2 kernels


def test_sweep_held_out_scene_without_windows_exit_2(short_scene_dir, tmp_path,
                                                     monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli_mod, "train", lambda *a, **k: calls.append(a))
    out = tmp_path / "sweep.csv"
    rc = main(
        ["sweep", "--scene-dir", str(short_scene_dir), "--held-out", "short",
         "--epochs", "1", "--out", str(out), "--quiet"]
    )
    assert rc == 2
    assert "held-out scene 'short' has no 20-frame window" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1", "1.5", "nan"])
def test_sweep_subsample_out_of_range_exit_2(scene_dir, tmp_path, value, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(
        ["sweep", "--scene-dir", str(scene_dir), "--held-out", "zara01",
         "--epochs", "1", "--subsample", value, "--out", str(out), "--quiet"]
    )
    assert rc == 2
    assert f"--subsample must be in (0, 1], got {float(value)}" in capsys.readouterr().err
    assert not out.exists()


class TestSeedAndSamplesFlags:
    """Bad --seed/--samples/--t-obs/--t-pred/--stride exit 2 at parse time,
    naming the flag, before any scene is parsed or any model is trained."""

    @staticmethod
    def argv(command, out):
        # every path but --out is missing: parsing must fail before it is read
        missing = str(out.parent / "missing")
        return {
            "prep": ["prep", "--scene-dir", missing, "--held-out", "eth", "--out", str(out)],
            "train": ["train", "--scene-dir", missing, "--held-out", "eth",
                      "--out", str(out)],
            "eval": ["eval", "--ckpt", missing, "--scene-dir", missing,
                     "--held-out", "eth", "--report", str(out)],
            "sweep": ["sweep", "--scene-dir", missing, "--held-out", "eth",
                      "--out", str(out)],
            "export-plot": ["export-plot", "--ckpt", missing, "--archive", missing,
                            "--window-id", "eth:0", "--out", str(out)],
        }[command]

    def exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("command", ["prep", "train", "eval", "sweep", "export-plot"])
    @pytest.mark.parametrize("seed", ["-1", "-4294967296"])
    def test_negative_seed(self, command, seed, tmp_path, capsys):
        out = tmp_path / "out"
        err = self.exit_2(self.argv(command, out) + ["--seed", seed], capsys)
        assert f"argument --seed: must be >= 0, got {seed}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,low", [("eval", 1), ("sweep", 1), ("export-plot", 0)])
    def test_samples_below_minimum(self, command, low, tmp_path, capsys):
        out = tmp_path / "out"
        for value in (low - 1, -2):
            err = self.exit_2(self.argv(command, out) + ["--samples", str(value)],
                              capsys)
            assert f"argument --samples: must be >= {low}, got {value}" in err
            assert not out.exists()

    def test_seed_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        out = tmp_path / "out"
        err = self.exit_2(["--config", str(cfg)] + self.argv("train", out), capsys)
        assert "argument --seed: must be >= 0, got -1" in err

    @pytest.mark.parametrize("command,flag,low", [
        (command, flag, low)
        for flag, low, commands in [("--t-obs", 2, "prep train sweep"),
                                    ("--t-pred", 1, "prep train sweep"),
                                    ("--stride", 1, "prep train eval sweep")]
        for command in commands.split()
    ])
    def test_data_flags_below_minimum(self, command, flag, low, tmp_path, capsys):
        out = tmp_path / "out"
        for value in (low - 1, -2):
            err = self.exit_2(self.argv(command, out) + [flag, str(value)], capsys)
            assert f"argument {flag}: must be >= {low}, got {value}" in err
            assert not out.exists()

    @pytest.mark.parametrize("flag", [
        ["--t-obs", "5"], ["--t-pred", "4"], ["--val-fraction", "0.5"],
        ["--graph", "complete"], ["--kernel", "exp"], ["--epsilon", "3.0"],
        ["--approach-sense", "printed"], ["--self-loops"],
        ["--normalization", "sym-adj"],
    ], ids=lambda flag: flag[0])
    def test_eval_rejects_model_flags(self, flag, tmp_path, capsys):
        # the checkpoint alone sets eval's horizons and graph
        out = tmp_path / "out"
        err = self.exit_2(self.argv("eval", out) + flag, capsys)
        assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert not out.exists()
