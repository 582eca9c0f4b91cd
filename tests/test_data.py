import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdgnn.data import (
    MAX_COORDINATE,
    RawTrack,
    TrajectoryParseError,
    TrajectoryWindow,
    leave_one_out_split,
    load_windows,
    make_windows,
    parse_trajectory_file,
    save_windows,
)
from conftest import random_window


def write(tmp_path, text, name="scene.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParse:
    def test_single_line(self, tmp_path):
        p = write(tmp_path, "10 3 1.50 -2.25\n")
        (r,) = parse_trajectory_file(p)
        assert r == RawTrack(10, 3, 1.50, -2.25)

    def test_duplicate_record_rejected(self, tmp_path):
        p = write(tmp_path, "10 3 1.0 2.0\n10 3 1.5 2.5\n")
        with pytest.raises(TrajectoryParseError, match="duplicate"):
            parse_trajectory_file(p)

    def test_frame_stride_ten(self, tmp_path):
        p = write(tmp_path, "0 1 0 0\n10 1 0.4 0\n")
        recs = parse_trajectory_file(p)
        assert len(recs) == 2
        assert [r.frame_id for r in recs] == [0, 10]

    @pytest.mark.parametrize(
        "line",
        ["1 2 three 4", "1 2 nan 4", "1 2 3 inf", "inf 2 3 4", "10.5 1 0 0",
         "1e3 2.9 0 0"],
        ids=["three", "nan", "inf", "inf-frame", "frac-frame", "frac-ped"],
    )
    def test_malformed_line_reports_lineno(self, tmp_path, line):
        p = write(tmp_path, f"0 1 0 0\n{line}\n")
        with pytest.raises(TrajectoryParseError, match=":2"):
            parse_trajectory_file(p)

    @pytest.mark.parametrize("x, y", [("1.7e308", "0"), ("0", "-1000000.5"), ("2e6", "3")])
    def test_coordinate_beyond_bound_reports_lineno(self, tmp_path, x, y):
        # finite, but near the float64 limit the model's sums overflow
        p = write(tmp_path, f"0 1 0 0\n10 1 {x} {y}\n")
        with pytest.raises(TrajectoryParseError) as info:
            parse_trajectory_file(p)
        assert str(info.value) == (f"{p}:2: coordinate ({x}, {y}) is beyond "
                                   "1e+06 m in magnitude")

    def test_coordinate_on_bound_parses(self, tmp_path):
        assert MAX_COORDINATE == 1e6
        (r,) = parse_trajectory_file(write(tmp_path, "0 1 1e6 -1000000.0\n"))
        assert (r.x, r.y) == (1e6, -1e6)

    def test_float_written_integral_ids_parse(self, tmp_path):
        p = write(tmp_path, "1.0e+01 3.0 1 2\n780.0 1.0000000e+01 0 0\n")
        recs = parse_trajectory_file(p)
        assert [(r.frame_id, r.ped_id) for r in recs] == [(10, 3), (780, 10)]
        assert (recs[0].x, recs[0].y) == (1.0, 2.0)

    def test_wrong_field_count(self, tmp_path):
        p = write(tmp_path, "0 1 0\n")
        with pytest.raises(TrajectoryParseError, match="4 fields"):
            parse_trajectory_file(p)

    def test_empty_file_is_empty_list(self, tmp_path):
        assert parse_trajectory_file(write(tmp_path, "")) == []

    def test_sorted_by_frame_then_ped(self, tmp_path):
        p = write(tmp_path, "10 2 0 0\n0 5 1 1\n10 1 2 2\n")
        recs = parse_trajectory_file(p)
        assert [(r.frame_id, r.ped_id) for r in recs] == [(0, 5), (10, 1), (10, 2)]

    def test_write_parse_roundtrip_bit_exact(self, tmp_path, rng):
        tracks = [
            RawTrack(f * 10, p, rng.uniform(-10, 10), rng.uniform(-10, 10))
            for f in range(5)
            for p in range(3)
        ]
        lines = [f"{r.frame_id} {r.ped_id} {r.x!r} {r.y!r}\n" for r in tracks]
        path = write(tmp_path, "".join(lines))
        back = parse_trajectory_file(path)
        assert back == tracks  # float equality: repr round-trips exactly


def linear_tracks(n_peds, n_frames, stride=10):
    rng = np.random.default_rng(99)
    tracks = []
    for ped in range(n_peds):
        pos = rng.uniform(0, 10, 2)
        vel = rng.uniform(-0.4, 0.4, 2)
        for f in range(n_frames):
            x, y = pos + f * vel
            tracks.append(RawTrack(f * stride, ped, x, y))
    return tracks


class TestWindows:
    def test_single_pedestrian_dropped(self):
        assert make_windows(linear_tracks(1, 25), 8, 12) == []

    def test_exact_length_gives_one_window(self):
        ws = make_windows(linear_tracks(2, 20), 8, 12, stride=1)
        assert len(ws) == 1
        assert ws[0].n_peds == 2

    def test_backward_difference_first_step_zero(self):
        tracks = [RawTrack(0, 0, 0.0, 0.0), RawTrack(10, 0, 0.4, 0.0)]
        tracks += [RawTrack(0, 1, 1.0, 1.0), RawTrack(10, 1, 1.0, 1.4)]
        tracks += [RawTrack(20, 0, 0.8, 0.0), RawTrack(20, 1, 1.0, 1.8)]
        ws = make_windows(tracks, 2, 1)
        assert np.allclose(ws[0].displacements[0, 0], [0.0, 0.0])
        assert np.allclose(ws[0].displacements[0, 1], [0.4, 0.0])

    def test_window_count_formula(self):
        t_obs, t_pred = 8, 12
        for n_frames in (20, 33, 57):
            for stride in (1, 2, 5):
                ws = make_windows(linear_tracks(3, n_frames), t_obs, t_pred, stride)
                expected = max(0, (n_frames - t_obs - t_pred) // stride + 1)
                assert len(ws) == expected

    def test_partially_present_pedestrian_excluded(self):
        tracks = linear_tracks(2, 20)
        # third pedestrian only at the first 10 frames
        tracks += [RawTrack(f * 10, 7, 0.1 * f, 0.0) for f in range(10)]
        (w,) = make_windows(tracks, 8, 12)
        assert w.n_peds == 2

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_windows([], 1, 12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_cumsum_recovers_positions(self, seed):
        w = random_window(np.random.default_rng(seed))
        rebuilt = w.positions[:, :1] + np.cumsum(w.displacements[:, 1:], axis=1)
        assert np.allclose(rebuilt, w.positions[:, 1:], atol=1e-9)


class TestSplit:
    def scenes(self):
        rng = np.random.default_rng(5)
        return {
            name: [random_window(rng, scene_id=name) for _ in range(10)]
            for name in ["eth", "hotel", "univ", "zara01", "zara02"]
        }

    def test_test_only_from_held_out(self):
        split = leave_one_out_split(self.scenes(), "eth", 0.1, seed=0)
        assert all(w.scene_id == "eth" for w in split.test)
        assert all(w.scene_id != "eth" for w in split.train + split.val)
        assert len(split.test) == 10

    def test_val_fraction_zero(self):
        split = leave_one_out_split(self.scenes(), "eth", 0.0, seed=0)
        assert split.val == []
        assert len(split.train) == 40

    def test_deterministic(self):
        a = leave_one_out_split(self.scenes(), "univ", 0.2, seed=3)
        b = leave_one_out_split(self.scenes(), "univ", 0.2, seed=3)
        assert [w.window_id for w in a.train] == [w.window_id for w in b.train]
        assert [w.window_id for w in a.val] == [w.window_id for w in b.val]

    def test_unknown_scene(self):
        with pytest.raises(ValueError, match="unknown scene 'nope'"):
            leave_one_out_split(self.scenes(), "nope", 0.1, 0)


def test_archive_roundtrip(tmp_path, rng):
    windows = [random_window(rng, n_peds=k) for k in (2, 3, 5)]
    path = tmp_path / "w.npz"
    save_windows(path, windows)
    back = load_windows(path)
    assert len(back) == 3
    for a, b in zip(windows, back):
        assert a.window_id == b.window_id
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.displacements, b.displacements)
        assert (a.t_obs, a.t_pred) == (b.t_obs, b.t_pred)



# archive fault -> what the error message says
ARCHIVE_FAULTS = {
    "t_obs=1": "need t_obs >= 2",
    "t_pred=0": "need t_obs >= 2 and t_pred >= 1",
    "nan-position": "non-finite positions",
    "t_pred-past-arrays": "positions of shape",
    "one-pedestrian": "N >= 2",
    "2-d-positions": "positions of shape",
    "text-positions": "positions of dtype",
    "scene-id-slash": "scene id '../escaped' holds a path separator or NUL",
    "scene-id-backslash": "scene id '..\\\\escaped' holds a path separator or NUL",
    "scene-id-nul": "scene id 'a\\x00b' holds a path separator or NUL",
}


def _faulty(w, fault):
    """`w` with one archive fault."""
    pos, scene_id = w.positions.copy(), w.scene_id
    t_obs, t_pred = w.t_obs, w.t_pred
    if fault == "t_obs=1":
        t_obs, t_pred = 1, t_obs + t_pred - 1
    elif fault == "t_pred=0":
        t_obs, t_pred = t_obs + t_pred, 0
    elif fault == "nan-position":
        pos[0, 3, 1] = np.nan
    elif fault == "t_pred-past-arrays":
        t_pred = 30
    elif fault == "one-pedestrian":
        pos = pos[:1]
    elif fault == "2-d-positions":
        pos = pos[..., 0]
    elif fault == "scene-id-slash":
        scene_id = "../escaped"
    elif fault == "scene-id-backslash":
        scene_id = "..\\escaped"
    elif fault == "scene-id-nul":
        scene_id = "a\0b"
    faulty = TrajectoryWindow(scene_id, 9, pos, t_obs, t_pred)
    if fault == "text-positions":  # numbers only get differenced
        faulty.positions = pos.astype(str)
    return faulty


@pytest.mark.parametrize("fault", sorted(ARCHIVE_FAULTS))
def test_archive_fault_names_archive_and_window(tmp_path, rng, fault):
    good = random_window(rng, n_peds=3)
    path = tmp_path / "w.npz"
    save_windows(path, [good, _faulty(random_window(rng, n_peds=3), fault)])
    with pytest.raises(ValueError, match="window 1: ") as info:
        load_windows(path)
    assert str(path) in str(info.value)
    assert ARCHIVE_FAULTS[fault] in str(info.value)


def test_archive_holds_positions_only(tmp_path, rng):
    path = tmp_path / "w.npz"
    save_windows(path, [random_window(rng)])
    with np.load(path) as z:
        assert sorted(z.files) == [
            "format_version", "n_windows", "w0_meta", "w0_positions", "w0_scene"
        ]
        assert int(z["format_version"]) == 2


def write_format_1_archive(path, w):
    """`w` as the format-1 archive that also stored its displacements."""
    np.savez(
        path, format_version=np.array(1), n_windows=np.array(1),
        w0_positions=w.positions, w0_meta=np.array([w.start_frame, w.t_obs, w.t_pred]),
        w0_scene=np.array(w.scene_id), w0_disp=w.displacements,
    )
