import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdgnn import data
from crowdgnn.data import (
    MAX_COORDINATE,
    InputError,
    Tracks,
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
    p.write_text(text, encoding="utf-8")
    return p


def tracks_of(rows) -> Tracks:
    """Records from (frame, ped, x, y) rows, in the rows' order."""
    rows = list(rows)
    frame = np.array([r[0] for r in rows], dtype=np.int64)
    ped = np.array([r[1] for r in rows], dtype=np.int64)
    return Tracks(frame, ped, np.array([r[2:] for r in rows], dtype=np.float64).reshape(-1, 2))


def rows_of(tracks: Tracks) -> list[tuple]:
    return list(zip(tracks.frame.tolist(), tracks.ped.tolist(), *tracks.xy.T.tolist()))


class TestParse:
    def test_single_line(self, tmp_path):
        p = write(tmp_path, "10 3 1.50 -2.25\n")
        t = parse_trajectory_file(p)
        assert rows_of(t) == [(10, 3, 1.50, -2.25)]
        assert (t.frame.dtype, t.ped.dtype, t.xy.dtype) == (np.int64, np.int64, np.float64)

    def test_duplicate_record_rejected(self, tmp_path):
        p = write(tmp_path, "10 3 1.0 2.0\n10 3 1.5 2.5\n")
        with pytest.raises(InputError, match="duplicate"):
            parse_trajectory_file(p)

    def test_frame_stride_ten(self, tmp_path):
        p = write(tmp_path, "0 1 0 0\n10 1 0.4 0\n")
        recs = parse_trajectory_file(p)
        assert len(recs.frame) == 2
        assert recs.frame.tolist() == [0, 10]

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
        t = parse_trajectory_file(write(tmp_path, "0 1 1e6 -1000000.0\n"))
        assert t.xy.tolist() == [[1e6, -1e6]]

    def test_float_written_integral_ids_parse(self, tmp_path):
        p = write(tmp_path, "1.0e+01 3.0 1 2\n780.0 1.0000000e+01 0 0\n")
        recs = parse_trajectory_file(p)
        assert [r[:2] for r in rows_of(recs)] == [(10, 3), (780, 10)]
        assert rows_of(recs)[0][2:] == (1.0, 2.0)

    def test_wrong_field_count(self, tmp_path):
        p = write(tmp_path, "0 1 0\n")
        with pytest.raises(InputError, match="4 fields"):
            parse_trajectory_file(p)

    def test_empty_file_is_empty_list(self, tmp_path):
        t = parse_trajectory_file(write(tmp_path, ""))
        assert rows_of(t) == [] and t.xy.shape == (0, 2)

    def test_sorted_by_frame_then_ped(self, tmp_path):
        p = write(tmp_path, "10 2 0 0\n0 5 1 1\n10 1 2 2\n")
        recs = parse_trajectory_file(p)
        assert [r[:2] for r in rows_of(recs)] == [(0, 5), (10, 1), (10, 2)]

    def test_write_parse_roundtrip_bit_exact(self, tmp_path, rng):
        tracks = [
            (f * 10, p, rng.uniform(-10, 10), rng.uniform(-10, 10))
            for f in range(5)
            for p in range(3)
        ]
        lines = [f"{f} {p} {x!r} {y!r}\n" for f, p, x, y in tracks]
        path = write(tmp_path, "".join(lines))
        back = parse_trajectory_file(path)
        assert rows_of(back) == tracks  # float equality: repr round-trips exactly


class TestFirstFaultWins:
    """The first faulty line in file order is the one named, whatever comes
    later, and its message is the one a line-by-line reader would give."""

    def check(self, tmp_path, text, want):
        p = write(tmp_path, text)
        with pytest.raises(InputError) as info:
            parse_trajectory_file(p)
        assert str(info.value) == f"{p}:{want}"

    def test_short_line_before_duplicate(self, tmp_path):
        self.check(tmp_path, "0 1 0 0\n0 2 0\n0 1 5 5\n", "2: expected 4 fields, got 3")

    def test_duplicate_before_short_line(self, tmp_path):
        self.check(tmp_path, "0 1 0 0\n0 1 5 5\n0 2 0\n",
                   "2: duplicate record for frame 0, pedestrian 1")

    def test_short_line_before_bad_number(self, tmp_path):
        self.check(tmp_path, "0 1 0 0\n0 2 0\n0 3 x 0\n", "2: expected 4 fields, got 3")
        self.check(tmp_path, "0 1 0 0\n0 2 x\n", "2: expected 4 fields, got 3")

    def test_bad_number_before_short_line(self, tmp_path):
        self.check(tmp_path, "0 1 0 0\n0 3 x 0\n0 2 0\n",
                   "2: could not convert string to float: 'x'")

    def test_bad_number_on_crlf_file(self, tmp_path):
        p = tmp_path / "crlf.txt"
        p.write_bytes(b"0 1 0 0\r\n10 1 1 1\r\n20 1 1e 1\r\n30 1 2 2\r\n")
        with pytest.raises(InputError) as info:
            parse_trajectory_file(p)
        assert str(info.value) == f"{p}:3: could not convert string to float: '1e'"
        p.write_bytes(b"0 1 0 0\r\n10 1 1 1\r\n")
        assert rows_of(parse_trajectory_file(p)) == [(0, 1, 0.0, 0.0), (10, 1, 1.0, 1.0)]

    def test_blank_lines_and_no_trailing_newline(self, tmp_path):
        text = "\n  \t\n0 1 0 0\n\n \n10 1 1 1"
        assert rows_of(parse_trajectory_file(write(tmp_path, text))) == [
            (0, 1, 0.0, 0.0), (10, 1, 1.0, 1.0)]
        self.check(tmp_path, text + "\n\t\n20 1 2", "8: expected 4 fields, got 3")
        self.check(tmp_path, text + "\n20 1 2 1.7e308", "7: coordinate (2, 1.7e308) is "
                   "beyond 1e+06 m in magnitude")
        self.check(tmp_path, "  \n\n0 1.5 0 0", "3: non-integral id in '0 1.5 0 0'")

    @pytest.mark.parametrize("sep", ["\t", "\x1c", "\u3000", "\xa0", " \x0b "],
                             ids=["tab", "x1c", "u3000", "xa0", "vtab"])
    def test_str_split_whitespace_separates(self, tmp_path, sep):
        # every `str.split` separator, ASCII or not, with a full-width "１２"
        text = f"0{sep}1{sep}0{sep}0\n１２{sep}1{sep}1{sep}2\n{sep}\n"
        assert rows_of(parse_trajectory_file(write(tmp_path, text))) == [
            (0, 1, 0.0, 0.0), (12, 1, 1.0, 2.0)]
        self.check(tmp_path, text + f"20{sep}1{sep}0\n", "4: expected 4 fields, got 3")
        self.check(tmp_path, text + f"20{sep}1{sep}x{sep}0\n",
                   "4: could not convert string to float: 'x'")
        self.check(tmp_path, text + f"\n１２{sep}1{sep}5{sep}5\n",
                   "5: duplicate record for frame 12, pedestrian 1")

    @pytest.mark.parametrize("piece", [1, 7, 64])
    def test_faults_in_later_pieces(self, tmp_path, monkeypatch, piece):
        # the file is read in pieces of lines: each fault past the first
        # piece still names its own line, and the records agree
        lines = [f"{10 * f} {p} {f}.5 -{p}" for f in range(12) for p in range(3)]
        whole = parse_trajectory_file(write(tmp_path, "\n".join(lines) + "\n"))
        monkeypatch.setattr(data, "PIECE_CHARS", piece)
        pieces = parse_trajectory_file(write(tmp_path, "\n".join(lines) + "\n"))
        assert rows_of(pieces) == rows_of(whole) and len(whole.frame) == 36
        for i, bad, want in [(30, "7 nan 0 0", "cannot convert float NaN to integer"),
                             (20, "7 1 x 0", "could not convert string to float: 'x'"),
                             (25, "7 1 0", "expected 4 fields, got 3"),
                             (33, lines[4], "duplicate record for frame 10, pedestrian 1")]:
            self.check(tmp_path, "\n".join(lines[:i] + [bad] + lines[i:]), f"{i + 1}: {want}")


class TestIdBound:
    """Ids must be integers that float64 holds exactly: |id| <= 2**53."""

    @pytest.mark.parametrize("text, lineno, token", [
        ("0 9007199254740992 1 1\n0 9007199254740993 2 2\n", 2, "9007199254740993"),
        ("0 1 0 0\n1e300 1 0 0\n", 2, "1e300"),
        ("0 -1e300 0 0\n", 1, "-1e300"),
        ("9007199254740993.0 1 0 0\n", 1, "9007199254740993.0"),
    ], ids=["collapsed-ped", "huge-frame", "huge-ped", "float-written"])
    def test_beyond_bound_reports_lineno(self, tmp_path, text, lineno, token):
        p = write(tmp_path, text)
        with pytest.raises(InputError) as info:
            parse_trajectory_file(p)
        assert str(info.value) == f"{p}:{lineno}: id {token} is beyond 2**53 in magnitude"

    def test_bound_itself_parses_exactly(self, tmp_path):
        t = parse_trajectory_file(write(tmp_path, "9007199254740992 -9007199254740992 0 0\n"
                                                  "0 9_007_199_254_740_991 0 0\n"))
        assert rows_of(t) == [(0, 2**53 - 1, 0.0, 0.0), (2**53, -(2**53), 0.0, 0.0)]

    def test_checked_after_integral_and_before_coordinates(self, tmp_path):
        p = write(tmp_path, "1e300 2.5 0 0\n")
        with pytest.raises(InputError, match=":1: non-integral id"):
            parse_trajectory_file(p)
        p = write(tmp_path, "inf 1e300 0 0\n")
        with pytest.raises(InputError, match=":1: cannot convert float infinity"):
            parse_trajectory_file(p)
        p = write(tmp_path, "1 1e300 inf 0\n")
        with pytest.raises(InputError, match=":1: id 1e300 is beyond"):
            parse_trajectory_file(p)


def linear_tracks(n_peds, n_frames, stride=10):
    """(frame, ped, x, y) rows of straight walkers, pedestrian by pedestrian."""
    rng = np.random.default_rng(99)
    tracks = []
    for ped in range(n_peds):
        pos = rng.uniform(0, 10, 2)
        vel = rng.uniform(-0.4, 0.4, 2)
        for f in range(n_frames):
            x, y = pos + f * vel
            tracks.append((f * stride, ped, float(x), float(y)))
    return tracks


def oracle_windows(rows, t_obs, t_pred, stride=1, scene_id="scene"):
    """The dict-based windowing that `make_windows` replaced, kept as its
    reference: per-frame dicts of (frame, ped, x, y) rows, one window per
    start, pedestrians present at every frame of the span."""
    frames = sorted({f for f, _, _, _ in rows})
    by_frame: dict[int, dict[int, tuple[float, float]]] = {}
    for f, p, x, y in rows:
        by_frame.setdefault(f, {})[p] = (x, y)
    t_total = t_obs + t_pred
    windows = []
    for start in range(0, len(frames) - t_total + 1, stride):
        span = frames[start : start + t_total]
        if len({b - a for a, b in zip(span, span[1:])}) != 1:
            continue
        peds = set(by_frame[span[0]])
        for f in span[1:]:
            peds &= set(by_frame[f])
        peds = sorted(peds)
        if len(peds) < 2:
            continue
        pos = np.array([[by_frame[f][p] for f in span] for p in peds], dtype=np.float64)
        windows.append(TrajectoryWindow(scene_id, span[0], pos, t_obs, t_pred))
    return windows


def random_scene(rng, case):
    """(frame, ped, x, y) rows of one random scene of the named kind, with
    extra lone frames and headings that change per step."""
    n_frames = int(rng.integers(15, 45))
    if case == "gaps-uneven":  # frames missing, and spacings of 5, 10 and 20
        frames = np.cumsum(rng.choice([5, 10, 10, 10, 20], n_frames))
    else:
        frames = 10 * np.arange(n_frames)
    rows = []
    for ped in rng.permutation(int(rng.integers(2, 9))):
        if case == "enter-leave":
            a = int(rng.integers(0, n_frames))
            span = range(a, int(rng.integers(a, n_frames)) + 1)
        else:
            span = range(n_frames)
        pos = rng.uniform(-5, 5, 2)
        for i in span:
            pos = pos + rng.uniform(-0.5, 0.5, 2)  # heading changes every step
            rows.append((int(frames[i]), int(ped), float(pos[0]), float(pos[1])))
    last = int(frames[-1])
    rows += [(last + 10 * (i + 1), 99, 0.5 * i, 0.0) for i in range(3)]  # extra lone frames
    if case == "shuffled":
        rows = [rows[i] for i in rng.permutation(len(rows))]
    return rows


HORIZONS = [(2, 1), (8, 12), (3, 4)]


class TestWindows:
    def test_single_pedestrian_dropped(self):
        assert make_windows(tracks_of(linear_tracks(1, 25)), 8, 12) == []

    def test_exact_length_gives_one_window(self):
        ws = make_windows(tracks_of(linear_tracks(2, 20)), 8, 12, stride=1)
        assert len(ws) == 1
        assert ws[0].n_peds == 2

    def test_backward_difference_first_step_zero(self):
        tracks = [(0, 0, 0.0, 0.0), (10, 0, 0.4, 0.0)]
        tracks += [(0, 1, 1.0, 1.0), (10, 1, 1.0, 1.4)]
        tracks += [(20, 0, 0.8, 0.0), (20, 1, 1.0, 1.8)]
        ws = make_windows(tracks_of(tracks), 2, 1)
        assert np.allclose(ws[0].displacements[0, 0], [0.0, 0.0])
        assert np.allclose(ws[0].displacements[0, 1], [0.4, 0.0])

    def test_window_count_formula(self):
        t_obs, t_pred = 8, 12
        for n_frames in (20, 33, 57):
            for stride in (1, 2, 5):
                ws = make_windows(tracks_of(linear_tracks(3, n_frames)), t_obs, t_pred, stride)
                expected = max(0, (n_frames - t_obs - t_pred) // stride + 1)
                assert len(ws) == expected

    def test_partially_present_pedestrian_excluded(self):
        tracks = linear_tracks(2, 20)
        # third pedestrian only at the first 10 frames
        tracks += [(f * 10, 7, 0.1 * f, 0.0) for f in range(10)]
        (w,) = make_windows(tracks_of(tracks), 8, 12)
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

    @pytest.mark.parametrize("case", ["enter-leave", "gaps-uneven", "shuffled"])
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bitwise_equal_to_oracle(self, case, seed):
        rng = np.random.default_rng(seed)
        rows = random_scene(rng, case)
        for stride in range(1, 6):
            for t_obs, t_pred in HORIZONS:
                got = make_windows(tracks_of(rows), t_obs, t_pred, stride, scene_id="s")
                want = oracle_windows(rows, t_obs, t_pred, stride, scene_id="s")
                assert [w.window_id for w in got] == [w.window_id for w in want]
                for g, w in zip(got, want):
                    assert type(g.start_frame) is int
                    assert g.positions.shape == w.positions.shape
                    assert g.positions.tobytes() == w.positions.tobytes()
                    assert g.displacements.tobytes() == w.displacements.tobytes()

    def test_file_order_does_not_matter(self, tmp_path):
        rows = random_scene(np.random.default_rng(4), "enter-leave")
        text = "".join(f"{f} {p} {x!r} {y!r}\n" for f, p, x, y in rows[::-1])
        got = load_scene(write(tmp_path, text, name="s.txt"), 3, 4, 2)
        want = oracle_windows(rows, 3, 4, 2, scene_id="s")
        assert got and [w.window_id for w in got] == [w.window_id for w in want]
        assert all(g.positions.tobytes() == w.positions.tobytes() for g, w in zip(got, want))


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
        lines = [f"{f} {p} {x!r} {y!r}\n" for f, p, x, y in tracks]
        path = write(tmp_path, "".join(lines), name="zara:01.txt")
        got = load_scene(path, 8, 12, 2)
        want = make_windows(tracks_of(tracks), 8, 12, 2, scene_id="zara:01")
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
