import csv
import json
import shutil

import numpy as np
import pytest

import crowdgnn.cli as cli_mod
from crowdgnn.cli import main
from crowdgnn.data import load_scene, load_scene_dir
from crowdgnn.graphs import GraphConfig, build_graph_sequence, graph_adjacency
from crowdgnn.model import ModelParameters
from test_model import rewrite_header
from test_smoke import strict_json


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
def ckpt(scene_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    rc = main(
        ["train", "--scene-dir", str(scene_dir), "--held-out", "eth",
         "--graph", "view", "--kernel", "inv", "--epochs", "2", "--batch", "8",
         "--lr-switch-epoch", "1", "--seed", "0", "--out", str(out), "--quiet"]
    )
    assert rc == 0
    return out


def eth_windows(scene_dir):
    """The held-out scene's windows, as eval cuts them."""
    return load_scene(scene_dir / "eth.txt", 8, 12, 1)


class TestSceneFiles:
    def test_empty_directory_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(
            ["train", "--scene-dir", str(empty), "--held-out", "eth",
             "--out", str(tmp_path / "m.ckpt")]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: no scene files\n"
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "dump-graph"])
    def test_missing_dir_exit_2(self, tmp_path, capsys, command):
        missing, out = tmp_path / "nope", tmp_path / "o"
        rc = main({
            "train": ["train", "--scene-dir", str(missing), "--held-out", "eth",
                      "--out", str(out)],
            "dump-graph": ["dump-graph", "--scene-dir", str(missing), "--scene", "eth",
                           "--out", str(out)],
        }[command])
        assert rc == 2
        assert capsys.readouterr().err == f"error: scene directory not found: {missing}\n"
        assert not out.exists()

    def test_non_utf8_scene_file_names_file(self, scene_dir, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        shutil.copytree(scene_dir, scenes)
        bad = scenes / "bad.txt"
        bad.write_bytes(b"\xff0 1 2.0 3.0\n")
        rc = main(
            ["train", "--scene-dir", str(scenes), "--held-out", "eth",
             "--out", str(tmp_path / "m.ckpt")]
        )
        assert rc == 2
        assert f"error: {bad}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "dump-graph"])
    def test_backslash_scene_stem_exit_2(self, scene_dir, ckpt, tmp_path, capsys, command):
        # legal in a Linux file name, but dump-graph names files after scene ids
        scenes = tmp_path / "scenes"
        shutil.copytree(scene_dir, scenes)
        bad = scenes / "a\\b.txt"
        bad.write_text((scenes / "eth.txt").read_text())
        out = tmp_path / "out"
        rc = main({
            "train": ["train", "--scene-dir", str(scenes), "--held-out", "a\\b",
                      "--out", str(out)],
            "eval": ["eval", "--ckpt", str(ckpt), "--scene-dir", str(scenes),
                     "--held-out", "a\\b", "--report", str(out)],
            "dump-graph": ["dump-graph", "--scene-dir", str(scenes), "--scene", "a\\b",
                           "--out", str(out)],
        }[command])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: scene id 'a\\\\b' holds a path separator or NUL\n")
        assert not out.exists()

    def test_unknown_held_out_scene_exit_2(self, scene_dir, tmp_path, capsys):
        rc = main(
            ["train", "--scene-dir", str(scene_dir), "--held-out", "x",
             "--out", str(tmp_path / "m.ckpt")]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: unknown scene 'x'; have ['eth', ")
        assert not (tmp_path / "m.ckpt").exists()

    def test_key_error_is_a_runtime_failure(self, scene_dir, tmp_path, capsys, monkeypatch):
        def fault(*args, **kwargs):
            raise KeyError("adjacency")

        monkeypatch.setattr(cli_mod, "graph_adjacency", fault)
        rc = main(
            ["dump-graph", "--scene-dir", str(scene_dir), "--scene", "eth",
             "--out", str(tmp_path / "g")]
        )
        assert rc == 1
        assert capsys.readouterr().err == "failure: 'adjacency'\n"

    def test_prep_is_gone(self, scene_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prep", "--scene-dir", str(scene_dir), "--held-out", "eth",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "invalid choice: 'prep'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# the commands that take a window id, each writing to `out`
def window_id_argv(command, scene_dir, ckpt, window_id, out):
    return {
        "dump-graph": ["dump-graph", "--scene-dir", str(scene_dir), "--scene", "zara01",
                       "--window-id", window_id, "--out", str(out)],
        "export-plot": ["export-plot", "--ckpt", str(ckpt), "--scene-dir", str(scene_dir),
                        "--window-id", window_id, "--samples", "2", "--out", str(out)],
    }[command]


class TestDumpGraph:
    @pytest.mark.parametrize("flags, cfg", [
        (["--graph", "view-thresh", "--kernel", "exp"],
         GraphConfig(neighborhood="view-thresh", kernel="exp")),
        (["--graph", "view-approach", "--kernel", "exp"],
         GraphConfig(neighborhood="view-approach", kernel="exp")),
        (["--graph", "complete", "--self-loops", "--normalization", "sym-adj"],
         GraphConfig(neighborhood="complete", self_loops=True, normalization="sym-adj")),
    ], ids=["view-thresh-exp", "view-approach-exp", "complete-self-loops-sym-adj"])
    def test_documents_written(self, scene_dir, tmp_path, flags, cfg):
        out = tmp_path / "graphs"
        rc = main(
            ["dump-graph", "--scene-dir", str(scene_dir), "--scene", "eth", *flags,
             "--out", str(out)]
        )
        assert rc == 0
        windows = eth_windows(scene_dir)
        docs = sorted(out.glob("*.json"))
        assert sorted(p.name for p in docs) == sorted(
            w.window_id.replace(":", "_") + ".json" for w in windows)
        for path in docs:
            doc = json.loads(path.read_text())
            assert doc["config_echo"] == cfg.to_dict()
            adj = np.array(doc["adjacency"])
            assert adj.shape[0] == 8  # observed frames
            assert np.allclose(adj, np.transpose(adj, (0, 2, 1)))
            (w,) = [w for w in windows if w.window_id == doc["window_id"]]
            want = graph_adjacency(w, cfg)
            assert np.array_equal(adj, want)
            assert np.array_equal(doc["degree"], want.sum(axis=2))
            assert np.array_equal(doc["normalized"], build_graph_sequence(w, cfg))

    def test_window_id_selects_one_document(self, scene_dir, tmp_path):
        out = tmp_path / "graphs"
        rc = main(window_id_argv("dump-graph", scene_dir, None, "zara01:10", out))
        assert rc == 0
        assert [p.name for p in out.glob("*.json")] == ["zara01_10.json"]

    def test_scene_without_windows_exit_2(self, short_scene_dir, tmp_path, capsys):
        out = tmp_path / "graphs"
        rc = main(["dump-graph", "--scene-dir", str(short_scene_dir), "--scene", "short",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: scene 'short' has no 20-frame window\n"
        assert not out.exists()

    @pytest.mark.parametrize("scene", ["nope", "../{scenes}/eth", "a/b"],
                             ids=["missing", "outside-scene-dir", "slash"])
    def test_scene_outside_scene_dir_exit_2(self, scene_dir, tmp_path, capsys, scene):
        scene = scene.format(scenes=scene_dir.name)
        out = tmp_path / "graphs"
        rc = main(["dump-graph", "--scene-dir", str(scene_dir), "--scene", scene,
                   "--out", str(out)])
        assert rc == 2
        assert (capsys.readouterr().err
                == f"error: scene file not found: {scene_dir / scene}.txt\n")
        assert not out.exists()


class TestWindowIds:
    @pytest.mark.parametrize("command", ["dump-graph", "export-plot"])
    @pytest.mark.parametrize("window_id", ["zara01", "zara01:", "zara01:x", "zara01:1.5",
                                           "zara01:5", "zara01:999", "../scenes/zara01:0", "a/b:0",
                                           "a\\b:0"])
    def test_bad_id_exit_2_names_it(self, scene_dir, ckpt, tmp_path, capsys, command,
                                    window_id):
        out = tmp_path / "out"
        rc = main(window_id_argv(command, scene_dir, ckpt, window_id, out))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(window_id) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["dump-graph", "export-plot"])
    def test_start_frame_only_stride_1_reaches(self, scene_dir, ckpt, tmp_path, command):
        # frames are 10 apart, so zara01:10 starts a window at stride 1 only
        strided = load_scene(scene_dir / "zara01.txt", 8, 12, 2)
        assert "zara01:10" not in [w.window_id for w in strided]
        out = tmp_path / "out"
        assert main(window_id_argv(command, scene_dir, ckpt, "zara01:10", out)) == 0
        assert out.exists()

    def test_scene_id_holding_colon(self, scene_dir, ckpt, tmp_path):
        scenes = tmp_path / "scenes"
        shutil.copytree(scene_dir, scenes)
        (scenes / "a:b.txt").write_text((scenes / "eth.txt").read_text())
        plot = tmp_path / "plot.csv"
        rc = main(["export-plot", "--ckpt", str(ckpt), "--scene-dir", str(scenes),
                   "--window-id", "a:b:10", "--samples", "0", "--out", str(plot)])
        assert rc == 0
        truth = [(r["x"], r["y"]) for r in csv.DictReader(plot.open())]
        plot_eth = tmp_path / "eth.csv"
        rc = main(["export-plot", "--ckpt", str(ckpt), "--scene-dir", str(scenes),
                   "--window-id", "eth:10", "--samples", "0", "--out", str(plot_eth)])
        assert rc == 0
        assert truth == [(r["x"], r["y"]) for r in csv.DictReader(plot_eth.open())]
        graphs = tmp_path / "graphs"
        rc = main(["dump-graph", "--scene-dir", str(scenes), "--scene", "a:b",
                   "--window-id", "a:b:10", "--out", str(graphs)])
        assert rc == 0
        assert [p.name for p in graphs.glob("*.json")] == ["a_b_10.json"]


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
        echo = strict_json(report.read_text())["config_echo"]
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
        assert capsys.readouterr().err == "error: scene 'short' has no 20-frame window\n"
        assert not report.exists()

    def test_eval_deterministic(self, scene_dir, ckpt, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            rc = main(
                ["eval", "--ckpt", str(ckpt), "--scene-dir", str(scene_dir),
                 "--held-out", "eth", "--samples", "3", "--seed", "1",
                 "--report", str(path)]
            )
            assert rc == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no warning precedes the failure
    def test_overflowing_forward_exit_1(self, scene_dir, ckpt, overflow_ckpt, tmp_path,
                                        capsys):
        # a runtime failure that names the window, not an input error
        first = eth_windows(scene_dir)[0].window_id
        rc = main(
            ["eval", "--ckpt", str(overflow_ckpt), "--scene-dir", str(scene_dir),
             "--held-out", "eth", "--samples", "3", "--report", str(tmp_path / "r.json")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"failure: window {first}: non-finite raw Gaussian parameters\n"
        assert not (tmp_path / "r.json").exists()

        # the trained model on scenes where pedestrian 0 of the held-out scene
        # is at 1.7e308 in frame 80, with and without its frame 0: finite, but
        # its squared errors overflow. The scene file is bad input, refused at
        # parse time with its line, before any forward
        for drop in [(), ("0 0 ",)]:
            spiked = tmp_path / f"spiked-{len(drop)}"
            spiked.mkdir()
            for path in scene_dir.glob("*.txt"):
                (spiked / path.name).write_text(path.read_text())
            eth = spiked / "eth.txt"
            lines = ["80 0 1.7e308 1.7e308\n" if line.startswith("80 0 ") else line
                     for line in eth.read_text().splitlines(keepends=True)
                     if not line.startswith(drop)]
            eth.write_text("".join(lines))
            lineno = 1 + lines.index("80 0 1.7e308 1.7e308\n")
            rc = main(
                ["eval", "--ckpt", str(ckpt), "--scene-dir", str(spiked),
                 "--held-out", "eth", "--samples", "3", "--report", str(tmp_path / "r.json")]
            )
            assert rc == 2
            err = capsys.readouterr().err
            assert (f"error: {eth}:{lineno}: coordinate (1.7e308, 1.7e308) is beyond "
                    "1e+06 m in magnitude") in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no warning precedes the failure
    @pytest.mark.parametrize("bias", [800.0, 400.0])
    def test_overflowing_sigma_exit_1(self, scene_dir, ckpt, tmp_path, capsys, bias):
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
        first = eth_windows(scene_dir)[0].window_id
        err = capsys.readouterr().err
        assert err.startswith(f"failure: window {first}: non-finite ADE")
        assert err.count("\n") == 1
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
        assert err == f"error: scene file not found: {scene_dir / held_out}.txt\n"
        assert not report.exists()

    @pytest.mark.parametrize("command", ["eval", "export-plot"])
    def test_checkpoint_without_graph_config_exit_2(self, scene_dir, ckpt, tmp_path,
                                                    capsys, command):
        bad = tmp_path / "nograph.ckpt"
        bad.write_bytes(ckpt.read_bytes())
        rewrite_header(bad, drop_graph_config)
        out = tmp_path / "out"
        rc = main({
            "eval": ["eval", "--ckpt", str(bad), "--scene-dir", str(scene_dir),
                     "--held-out", "eth", "--report", str(out)],
            "export-plot": ["export-plot", "--ckpt", str(bad), "--scene-dir",
                            str(scene_dir), "--window-id", "eth:0", "--out", str(out)],
        }[command])
        assert rc == 2
        assert f"error: {bad}: checkpoint stores no graph config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no warning precedes the failure
    def test_diverging_train_exit_1(self, scene_dir, tmp_path, capsys):
        rc = main(
            ["train", "--scene-dir", str(scene_dir), "--held-out", "eth", "--epochs", "5",
             "--lr-initial", "1e8", "--lr-after", "1e8", "--out", str(tmp_path / "m.ckpt"),
             "--quiet"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("failure: non-finite ") and " loss at epoch " in err
        assert err.count("\n") == 1

    def test_invalid_train_config_exit_2(self, scene_dir, tmp_path, capsys):
        for flags in (["--batch", "0"], ["--clip-norm", "-1"], ["--lr-initial", "inf"],
                      ["--lr-initial", "inf", "--lr-after", "inf"], ["--lr-initial", "nan"],
                      ["--lr-after", "nan"]):
            rc = main(
                ["train", "--scene-dir", str(scene_dir), "--held-out", "eth",
                 "--epochs", "1", "--lr-switch-epoch", "1", *flags,
                 "--out", str(tmp_path / "m.ckpt"), "--quiet"]
            )
            assert rc == 2
        err = capsys.readouterr().err
        assert "batch_size must be >= 1" in err
        assert "clip_norm must be positive" in err
        assert err.count("require finite 0 < lr_after <= lr_initial") == 4
        assert not (tmp_path / "m.ckpt").exists()

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
    def test_row_counts_and_truth_roundtrip(self, scene_dir, ckpt, tmp_path):
        w = eth_windows(scene_dir)[0]
        out = tmp_path / "plot.csv"
        rc = main(
            ["export-plot", "--ckpt", str(ckpt), "--scene-dir", str(scene_dir),
             "--window-id", w.window_id, "--samples", "20", "--out", str(out)]
        )
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        n = w.n_peds
        assert sum(r["kind"] == "observed" for r in rows) == n * 8
        assert sum(r["kind"] == "truth" for r in rows) == n * 12
        assert sum(r["kind"] == "sample" for r in rows) == n * 12 * 20
        # truth rows reproduce the scene file's positions bit-exactly
        for r in rows:
            if r["kind"] == "truth":
                i, t = int(r["ped_id"]), int(r["frame"])
                assert float(r["x"]) == w.positions[i, t, 0]
                assert float(r["y"]) == w.positions[i, t, 1]

    def test_samples_zero_boundary(self, scene_dir, ckpt, tmp_path):
        out = tmp_path / "plot0.csv"
        rc = main(
            ["export-plot", "--ckpt", str(ckpt), "--scene-dir", str(scene_dir),
             "--window-id", "eth:0", "--samples", "0", "--out", str(out)]
        )
        assert rc == 0
        kinds = {r["kind"] for r in csv.DictReader(out.open())}
        assert kinds == {"observed", "truth"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no warning precedes the failure
    def test_overflowing_forward_exit_1(self, scene_dir, overflow_ckpt, tmp_path, capsys):
        w = eth_windows(scene_dir)[-1]
        rc = main(
            ["export-plot", "--ckpt", str(overflow_ckpt), "--scene-dir", str(scene_dir),
             "--window-id", w.window_id, "--samples", "2", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"failure: window {w.window_id}: non-finite raw Gaussian parameters\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no warning precedes the failure
    def test_overflowing_sigma_exit_1(self, scene_dir, ckpt, tmp_path, capsys):
        # finite raw outputs whose sigma = e^800 overflows: the samples are NaN
        params, extra = ModelParameters.load(ckpt)
        params["txp.out.b"].data[...] = 800.0
        big = tmp_path / "sigma.ckpt"
        params.save(big, extra_config=extra)
        rc = main(
            ["export-plot", "--ckpt", str(big), "--scene-dir", str(scene_dir),
             "--window-id", "eth:0", "--samples", "2", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "failure: window eth:0: non-finite trajectory sample\n"
        assert not (tmp_path / "x.csv").exists()


def assert_graphs_cut(out, scene_dir, scene, t_obs, t_pred):
    """`out` holds one graph document per window of `scene` at these horizons."""
    docs = sorted(out.glob("*.json"))
    want = load_scene(scene_dir / f"{scene}.txt", t_obs, t_pred, 1)
    assert len(docs) == len(want)
    assert np.array(json.loads(docs[0].read_text())["adjacency"]).shape[0] == t_obs


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, scene_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t-obs": 6, "t-pred": 4, "scene": "eth"}))
        out = tmp_path / "graphs"
        rc = main(
            ["dump-graph", "--config", str(cfg), "--scene-dir", str(scene_dir),
             "--t-pred", "5", "--out", str(out)]
        )
        assert rc == 0
        assert_graphs_cut(out, scene_dir, "eth", 6, 5)  # the flag wins

    def test_unknown_key_rejected(self, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus-key": 1}))
        rc = main(
            ["train", "--config", str(cfg), "--scene-dir", str(scene_dir),
             "--held-out", "eth", "--out", str(tmp_path / "m.ckpt")]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cfg}: unknown config key 'bogus-key'\n"
        assert not (tmp_path / "m.ckpt").exists()

    def test_one_file_serves_train_and_dump_graph(self, scene_dir, tmp_path):
        # "epochs", "lr-switch-epoch" and "held-out" are train flags;
        # dump-graph skips them
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"epochs": 1, "lr-switch-epoch": 1, "held-out": "zara01", "t-obs": 6,
             "scene-dir": str(scene_dir)}
        ))
        out = tmp_path / "graphs"
        assert main(["dump-graph", "--config", str(cfg), "--scene", "zara01",
                     "--out", str(out)]) == 0
        assert_graphs_cut(out, scene_dir, "zara01", 6, 12)
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
        keys = {"graph": "view-approach", "kernel": "exp", "t-obs": 6, "t-pred": 4,
                "epochs": 1, "batch": 16, "lr-switch-epoch": 1, "held-out": "eth",
                "scene-dir": str(scene_dir)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(keys))
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt), "--quiet"]) == 0
        report = tmp_path / "r.json"
        rc = main(["eval", "--config", str(cfg), "--ckpt", str(ckpt), "--samples", "2",
                   "--report", str(report)])
        assert rc == 0
        # the same bytes as from flags alone
        flags = [tok for key, value in keys.items() for tok in (f"--{key}", str(value))]
        assert main(["train", *flags, "--out", str(tmp_path / "f.ckpt"), "--quiet"]) == 0
        assert (tmp_path / "f.ckpt").read_bytes() == ckpt.read_bytes()
        assert main(["eval", "--scene-dir", str(scene_dir), "--held-out", "eth", "--ckpt",
                     str(ckpt), "--samples", "2", "--report", str(tmp_path / "f.json")]) == 0
        assert (tmp_path / "f.json").read_bytes() == report.read_bytes()
        doc = strict_json(report.read_text())
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
            ["train", "--config", str(cfg), "--scene-dir", str(scene_dir),
             "--held-out", "eth", "--out", str(tmp_path / "m.ckpt")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}: " in err
        assert message in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_config_equals_form(self, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"t-obs": 6, "scene": "eth", "scene-dir": str(scene_dir)}
        ))
        out = tmp_path / "graphs"
        assert main(["dump-graph", f"--config={cfg}", "--out", str(out)]) == 0
        assert_graphs_cut(out, scene_dir, "eth", 6, 12)
        cfg.write_text(json.dumps({"bogus-key": 1}))
        assert main(["dump-graph", f"--config={cfg}", "--out", str(tmp_path / "o")]) == 2
        assert f"{cfg}: unknown config key 'bogus-key'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("form", ["--conf", "--con="])
    def test_abbreviated_config_flag_exit_2(self, scene_dir, tmp_path, capsys, form):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus-key": 1}))
        flag = [form + str(cfg)] if form.endswith("=") else [form, str(cfg)]
        out = tmp_path / "m.ckpt"
        with pytest.raises(SystemExit) as exc:
            main(flag + ["train", "--scene-dir", str(scene_dir), "--held-out", "eth",
                         "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()  # train did not run
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
    assert np.all(np.isfinite(np.array([r[2:] for r in rows[1:]], dtype=float)))


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
    assert capsys.readouterr().err == "error: scene 'short' has no 20-frame window\n"
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


@pytest.mark.parametrize("directory", [False, True], ids=["missing-parent", "directory"])
@pytest.mark.parametrize("command, flag", [
    ("train", "--out"), ("train", "--history"), ("eval", "--report"), ("sweep", "--out"),
    ("export-plot", "--out"),
])
def test_bad_output_path_exit_2_before_work(scene_dir, ckpt, tmp_path, monkeypatch, capsys,
                                            command, flag, directory):
    def work(*args, **kwargs):
        raise AssertionError("work began before the output paths were checked")

    for name in ("train", "evaluate", "predict_gaussians"):
        monkeypatch.setattr(cli_mod, name, work)
    data = ["--scene-dir", str(scene_dir)]
    argv = {
        "train": ["train", *data, "--held-out", "eth", "--epochs", "1",
                  "--out", str(tmp_path / "m.ckpt"), "--history", str(tmp_path / "h.csv")],
        "eval": ["eval", *data, "--ckpt", str(ckpt), "--held-out", "eth",
                 "--report", str(tmp_path / "r.json")],
        "sweep": ["sweep", *data, "--held-out", "eth", "--epochs", "1",
                  "--out", str(tmp_path / "s.csv")],
        "export-plot": ["export-plot", *data, "--ckpt", str(ckpt), "--window-id", "eth:0",
                        "--out", str(tmp_path / "p.csv")],
    }[command]
    bad = tmp_path if directory else tmp_path / "missing" / "out"
    argv[argv.index(flag) + 1] = str(bad)
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: {flag}: is a directory: {bad}\n" if directory
                                       else f"error: {flag}: directory not found: {bad.parent}\n")
    assert list(tmp_path.iterdir()) == []


class TestSeedAndSamplesFlags:
    """Bad --seed/--samples/--t-obs/--t-pred/--stride exit 2 at parse time,
    naming the flag, before any scene is parsed or any model is trained."""

    @staticmethod
    def argv(command, out):
        # every path but --out is missing: parsing must fail before it is read
        missing = str(out.parent / "missing")
        return {
            "dump-graph": ["dump-graph", "--scene-dir", missing, "--scene", "eth",
                           "--out", str(out)],
            "train": ["train", "--scene-dir", missing, "--held-out", "eth",
                      "--out", str(out)],
            "eval": ["eval", "--ckpt", missing, "--scene-dir", missing,
                     "--held-out", "eth", "--report", str(out)],
            "sweep": ["sweep", "--scene-dir", missing, "--held-out", "eth",
                      "--out", str(out)],
            "export-plot": ["export-plot", "--ckpt", missing, "--scene-dir", missing,
                            "--window-id", "eth:0", "--out", str(out)],
        }[command]

    def exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval", "sweep", "export-plot"])
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
        for flag, low, commands in [("--t-obs", 2, "dump-graph train sweep"),
                                    ("--t-pred", 1, "dump-graph train sweep"),
                                    ("--stride", 1, "train eval sweep")]
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

    @pytest.mark.parametrize("command, flag", [
        ("dump-graph", ["--stride", "2"]), ("export-plot", ["--stride", "2"]),
        ("export-plot", ["--t-obs", "5"]), ("export-plot", ["--graph", "complete"]),
    ])
    def test_window_commands_reject_flags(self, command, flag, tmp_path, capsys):
        # both cut at stride 1; export-plot takes its horizons and graph from
        # the checkpoint
        out = tmp_path / "out"
        err = self.exit_2(self.argv(command, out) + flag, capsys)
        assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert not out.exists()
