import csv
import json

import numpy as np
import pytest

from crowdgnn.cli import main
from crowdgnn.data import load_windows, save_windows
from crowdgnn.graphs import GraphConfig, build_graph_sequence, graph_adjacency
from crowdgnn.model import ModelParameters
from conftest import random_window
from test_data import _faulty
from test_model import add_earlier_settings, rewrite_header


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
    for _, v in params.items():
        v.data = v.data * 1e150
    path = tmp_path_factory.mktemp("overflow") / "big.ckpt"
    params.save(path, extra_config=extra)
    return path


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
        def eval_rc(path, report):
            return main(
                ["eval", "--ckpt", str(path), "--scene-dir", str(scene_dir),
                 "--held-out", "eth", "--samples", "3", "--seed", "1",
                 "--report", str(report)]
            )

        earlier = tmp_path / "earlier.ckpt"
        earlier.write_bytes(ckpt.read_bytes())
        rewrite_header(earlier, add_earlier_settings)
        assert eval_rc(ckpt, tmp_path / "a.json") == 0
        assert eval_rc(earlier, tmp_path / "b.json") == 0
        a, b = (json.loads((tmp_path / n).read_text()) for n in ("a.json", "b.json"))
        assert a["per_window"] == b["per_window"]

        rewrite_header(earlier, lambda h: h["model_config"].update(txp_residual=False))
        assert eval_rc(earlier, tmp_path / "c.json") == 2
        assert "earlier.ckpt: model_config key 'txp_residual'" in capsys.readouterr().err

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
    def test_overflowing_forward_exit_1(self, scene_dir, prep_dir, overflow_ckpt,
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
         lambda h: h["extra_config"]["graph_config"].update(self_loops=1)],
        ids=["no-format-version", "no-tensors", "list", "t_obs-string",
             "model_config-null", "bogus-neighborhood", "format_version-true",
             "format_version-float", "offset-float", "shape-float", "txp_layers-float",
             "stgcn_residual-int", "bearing_gate-int", "epsilon-true", "self_loops-int"],
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

    def test_malformed_json_names_file(self, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"epochs": 3\n')
        rc = main(
            ["prep", "--config", str(cfg), "--scene-dir", str(scene_dir),
             "--held-out", "eth", "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert str(cfg) in err
        assert "Expecting ',' delimiter" in err

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
