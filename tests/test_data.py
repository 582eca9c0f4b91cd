import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdgnn.data import (
    MAX_COORDINATE,
    InputError,
    RawTrack,
    TrajectoryWindow,
    _scene_id_fault,
    leave_one_out_split,
    load_scene,
    load_scene_dir,
    make_windows,
    parse_trajectory_file,
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
        with pytest.raises(InputError, match="duplicate"):
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
        with pytest.raises(InputError, match=":2"):
            parse_trajectory_file(p)

    @pytest.mark.parametrize("x, y", [("1.7e308", "0"), ("0", "-1000000.5"), ("2e6", "3")])
    def test_coordinate_beyond_bound_reports_lineno(self, tmp_path, x, y):
        # finite, but near the float64 limit the model's sums overflow
        p = write(tmp_path, f"0 1 0 0\n10 1 {x} {y}\n")
        with pytest.raises(InputError) as info:
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
        with pytest.raises(InputError, match="4 fields"):
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


class TestLoadScene:
    def test_windows_of_the_file_keyed_by_stem(self, tmp_path):
        tracks = linear_tracks(3, 30)
        lines = [f"{r.frame_id} {r.ped_id} {float(r.x)!r} {float(r.y)!r}\n" for r in tracks]
        path = write(tmp_path, "".join(lines), name="zara:01.txt")
        got = load_scene(path, 8, 12, 2)
        want = make_windows(tracks, 8, 12, 2, scene_id="zara:01")
        assert [w.window_id for w in got] == [w.window_id for w in want]
        assert all(np.array_equal(a.positions, b.positions) for a, b in zip(got, want))
        assert [w.window_id for w in load_scene_dir(tmp_path, 8, 12, 2)["zara:01"]] == [
            w.window_id for w in want]

    def test_backslash_stem_names_file(self, tmp_path):
        path = write(tmp_path, "0 1 0 0\n", name="a\\b.txt")
        with pytest.raises(ValueError) as info:
            load_scene(path, 8, 12, 1)
        assert str(info.value) == f"{path}: scene id 'a\\\\b' holds a path separator or NUL"
        with pytest.raises(ValueError):
            load_scene_dir(tmp_path)


@pytest.mark.parametrize("scene_id", ["../escaped", "..\\escaped", "a\0b"])
def test_scene_id_fault(scene_id):
    assert _scene_id_fault(scene_id) == (
        f"scene id {scene_id!r} holds a path separator or NUL")
    assert _scene_id_fault("zara:01") is None
