"""Acceptance gate: one test per criterion, each prints a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end pipeline
criterion trains on generated synthetic scenes through `sweep`; like the
rest, it runs in the one test tier.
"""
import csv
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from crowdgnn.data import DatasetSplit, TrajectoryWindow
from crowdgnn.evaluate import ade, best_of_k, fde
from crowdgnn.gaussian import GaussianParams, nll, sample
from crowdgnn.graphs import (
    ApproachSense,
    GraphConfig,
    Kernel,
    Neighborhood,
    build_graph_sequence,
    graph_adjacency,
)
from crowdgnn.model import ModelConfig, ModelParameters, forward_raw
from crowdgnn.train import TrainConfig, train, window_nll

from conftest import crossing_window, random_window
from test_gaussian import mp_nll
from test_graphs import oracle_adjacency

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(criterion: str, detail: str = ""):
    print(f"PASS {criterion}" + (f"  ({detail})" if detail else ""))


def box_window(rng, n_peds, t_obs=8, t_pred=12):
    """Positions uniform in a 10x10 m box, independently per frame."""
    pos = rng.uniform(0, 10, size=(n_peds, t_obs + t_pred, 2))
    return TrajectoryWindow("box", 0, pos, t_obs, t_pred)


def test_criterion_1_graph_oracle_equivalence(rng):
    start = time.perf_counter()
    neighborhoods = [
        Neighborhood.VIEW,
        Neighborhood.VIEW_THRESH,
        Neighborhood.APPROACH,
        Neighborhood.VIEW_APPROACH,
    ]
    for scene in range(100):
        w = box_window(rng, n_peds=int(rng.integers(2, 21)))
        t = int(rng.integers(0, w.t_obs))
        for nb in neighborhoods:
            for kern in Kernel:
                for sense in ApproachSense:
                    cfg = GraphConfig(neighborhood=nb, kernel=kern, approach_sense=sense)
                    got = graph_adjacency(w, cfg)[t]
                    want = oracle_adjacency(w, t, cfg)
                    assert np.array_equal(got, want), (scene, nb, kern, sense)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("criterion 1: graph-oracle equivalence", f"{elapsed:.1f}s")


def test_criterion_2_laplacian_sanity(rng):
    for _ in range(50):
        weight = rng.uniform(0.01, 10.0)
        d = 1.0 / weight  # inverse-norm kernel gives this mutual weight
        pos = np.zeros((2, 20, 2))
        pos[1, :, 0] = d
        pos[:, :, 1] = 0.1 * np.arange(20)[None, :]
        w = TrajectoryWindow("two", 0, pos, 8, 12)
        norm = build_graph_sequence(w, GraphConfig(neighborhood=Neighborhood.VIEW))
        for t in range(1, w.t_obs):
            assert np.max(np.abs(norm[t] - [[1, -1], [-1, 1]])) <= 1e-12
    for _ in range(10):
        w = box_window(rng, n_peds=int(rng.integers(2, 12)))
        adjacency = graph_adjacency(w, GraphConfig(neighborhood=Neighborhood.COMPLETE))
        degree = adjacency.sum(axis=2)
        for t in range(w.t_obs):
            lap = np.diag(degree[t]) - adjacency[t]
            assert np.max(np.abs(lap.sum(axis=1))) <= 1e-12
    report("criterion 2: Laplacian sanity")


def test_criterion_3_nll_and_gradients(rng):
    start = time.perf_counter()
    # NLL vs extended-precision closed-form oracle
    for _ in range(1000):
        mux, muy = rng.normal(0, 2, 2)
        sx, sy = rng.uniform(0.2, 3.0, 2)
        rho = rng.uniform(-0.95, 0.95)
        tx, ty = rng.normal(0, 3, 2)
        mu, sigma = np.array([mux, muy]), np.array([sx, sy])
        got = float(nll(np.array([tx, ty]), mu, sigma, np.array(rho)))
        want = mp_nll(tx, ty, mux, muy, sx, sy, rho)
        assert abs(got - want) / max(abs(want), 1e-12) < 1e-10

    # end-to-end parameter gradients vs central finite differences; the
    # 7,532 coordinates are partitioned across 20 windows for full coverage
    graph_cfg = GraphConfig()
    coords = []
    probe = ModelParameters(ModelConfig(), seed=0)
    for name, v in probe.items():
        coords.extend((name, i) for i in range(v.data.size))
    order = rng.permutation(len(coords))
    chunks = np.array_split(order, 20)
    eps = 1e-5
    for widx, chunk in enumerate(chunks):
        w = random_window(np.random.default_rng([77, widx]), n_peds=3)
        params = ModelParameters(ModelConfig(), seed=widx)
        loss = window_nll(w, graph_cfg, params)
        loss.backward()
        for ci in chunk:
            name, i = coords[ci]
            flat = params[name].data.ravel()
            orig = flat[i]
            flat[i] = orig + eps
            lp = float(window_nll(w, graph_cfg, params).data)
            flat[i] = orig - eps
            lm = float(window_nll(w, graph_cfg, params).data)
            flat[i] = orig
            fd = (lp - lm) / (2 * eps)
            an = params[name].grad.ravel()[i]
            assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-3), (name, i)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report("criterion 3: NLL + end-to-end gradients", f"{elapsed:.1f}s")


def test_criterion_4_sampler_statistics():
    start = time.perf_counter()
    n = 100_000
    mu = np.array([1.0, -2.0])
    sigma = np.array([1.0, 2.0])
    rho = 0.5
    g = GaussianParams(
        np.tile(mu, (n, 1)), np.tile(sigma, (n, 1)), np.full(n, rho)
    )
    draws = sample(g, [np.random.default_rng(2024)])[0]
    assert np.all(np.abs(draws.mean(axis=0) - mu) < 0.02)
    emp_sigma = draws.std(axis=0, ddof=1)
    assert np.all(np.abs(emp_sigma / sigma - 1.0) < 0.02)
    emp_rho = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
    assert abs(emp_rho - rho) < 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("criterion 4: sampler statistics", f"{elapsed:.1f}s")


def test_criterion_5_metric_values(rng):
    truth = rng.normal(size=(4, 12, 2))
    assert ade(truth, truth) == 0.0
    assert fde(truth, truth) == 0.0
    offset = truth + np.array([0.3, 0.4])
    assert abs(ade(offset, truth) - 0.5) <= 1e-12
    assert abs(fde(offset, truth) - 0.5) <= 1e-12

    params = ModelParameters(ModelConfig(), seed=0)
    cfg = GraphConfig()
    w = random_window(rng)
    a20 = np.mean([best_of_k(w, cfg, params, k=20, seed=s)[0] for s in range(200)])
    a1 = np.mean([best_of_k(w, cfg, params, k=1, seed=s)[0] for s in range(200)])
    assert a20 <= a1
    report("criterion 5: metric values", f"best-of-20 {a20:.3f} <= best-of-1 {a1:.3f}")


def test_criterion_6_overfit_smoke():
    start = time.perf_counter()
    w = crossing_window()
    split = DatasetSplit(train=[w], val=[], test=[], held_out_scene="none")
    cfg = TrainConfig(
        epochs=500, batch_size=1, lr_initial=0.1, lr_after=0.02,
        lr_switch_epoch=300, seed=0, clip_norm=1.0,
    )
    graph_cfg = GraphConfig()
    params, hist = train(split, graph_cfg, cfg)
    drop = hist[0].train_nll - hist[-1].train_nll
    assert drop >= 2.0
    a, _ = best_of_k(w, graph_cfg, params, k=20, seed=0)
    assert a < 0.3
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report("criterion 6: overfit smoke test", f"drop {drop:.2f} nats, ADE {a:.3f}m")


def test_criterion_7_parameter_budget():
    total = ModelParameters(ModelConfig(), seed=0).summary()["total"]
    assert 7000 <= total <= 8200
    assert total == 7532  # pinned regression constant (reference claim: 7,563)
    report("criterion 7: parameter budget", f"{total} parameters")


def test_criterion_8_inference_latency(rng):
    w = random_window(rng, n_peds=10)
    params = ModelParameters(ModelConfig(), seed=0)
    cfg = GraphConfig()
    forward_raw(w, cfg, params)  # warm-up
    times = []
    for _ in range(100):
        t0 = time.perf_counter()
        forward_raw(w, cfg, params)
        times.append(time.perf_counter() - t0)
    median_ms = float(np.median(times)) * 1000
    assert median_ms < 10.0
    report("criterion 8: inference latency", f"median {median_ms:.2f} ms")


def test_criterion_9_end_to_end_subsample(tmp_path):
    start = time.perf_counter()
    scene_dir = tmp_path / "scenes"
    subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "make_synthetic_scenes.py"),
         "--out", str(scene_dir), "--frames", "900", "--seed", "7"],
        check=True, capture_output=True,
    )
    out_csv = tmp_path / "sweep.csv"
    from crowdgnn.cli import main

    rc = main(
        ["sweep", "--scene-dir", str(scene_dir), "--held-out", "zara01",
         "--epochs", "20", "--batch", "8", "--lr-initial", "0.1",
         "--lr-after", "0.02", "--lr-switch-epoch", "15", "--clip-norm", "1.0",
         "--subsample", "0.05", "--samples", "20", "--seed", "0",
         "--out", str(out_csv), "--quiet"]
    )
    assert rc == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert len(rows) == 9  # baseline + 4 neighborhoods x 2 kernels
    by_method = {(r["method"], r["kernel"]): float(r["zara01_ade"]) for r in rows}
    baseline_ade = by_method[("social-stgcnn-baseline", "inv")]
    geometric_ades = [v for k, v in by_method.items() if k[0] != "social-stgcnn-baseline"]
    assert baseline_ade < 1.5
    assert min(geometric_ades) < 1.5
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    report(
        "criterion 9: end-to-end subsample pipeline",
        f"baseline ADE {baseline_ade:.3f}, best geometric ADE "
        f"{min(geometric_ades):.3f}, {elapsed / 60:.1f} min",
    )
