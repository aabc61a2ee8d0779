"""The JSON side files (``--classes``, ``--intrinsics``, ``--stats``) keep
the command-line contract: a file that does not decode, or holds the
wrong shape, exits 2 with a byte offset; a value out of range exits 3;
neither prints a traceback or a warning."""
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_run import assert_contract
from depth_scenes import floor_wall
from depthkit import cli, netpbm

_GTS = b'{"image_id": "a", "class": 1, "x1": 5, "y1": 5, "x2": 40, "y2": 35}\n'
_DETS = b'{"image_id": "a", "class": 2, "score": 0.9, "x1": 6, "y1": 5, "x2": 40, "y2": 36}\n'
_CAM = {"fx": 20.0, "fy": 20.0, "cx": 7.5, "cy": 5.5, "baseline": 0.075}


def _scene(tmp):
    """A small floor-and-wall depth map, as in the gravity fuzz."""
    src = tmp / "room.pfm"
    netpbm.write_pfm(str(src), floor_wall(12, 16, fy=_CAM["fy"], cy=_CAM["cy"])[0])
    return src


def _run_side_file(tmp, kind, data: bytes, codes=(0, 2, 3)):
    """Run the subcommand that reads a ``kind`` side file holding ``data``
    and check the contract; a file at fault is named at byte offset 0.
    Returns stderr, the side file and the ``--out`` directory."""
    side = tmp / f"{kind}.json"
    side.write_bytes(data)
    out = tmp / "out"
    if kind == "classes":
        (tmp / "dets.jsonl").write_bytes(_DETS)
        (tmp / "gts.jsonl").write_bytes(_GTS)
        argv = ["eval", "--metric", "confusion", "--dets", str(tmp / "dets.jsonl"),
                "--gts", str(tmp / "gts.jsonl"), "--classes", str(side)]
    else:
        cam = side
        if kind == "stats":
            cam = tmp / "cam.json"
            cam.write_text(json.dumps(_CAM))
        argv = ["encode", str(_scene(tmp)), "--mode", "hdha", "--intrinsics", str(cam)]
        if kind == "stats":
            argv += ["--stats", str(side)]
    rc, err = assert_contract(argv + ["--out", str(out)], codes)
    if rc == 2:
        assert re.fullmatch(rf"error: {re.escape(str(side))}: .*\(byte offset 0\)", err.strip()), err
    return err, side, out


# ------------------------------------------------------------- one repro each

@pytest.mark.parametrize("data", [b"[", b"\xff[]"], ids=["truncated", "invalid-utf8"])
def test_undecodable_class_table_exits_2_with_offset(tmp_path, data):
    _run_side_file(tmp_path, "classes", data, (2,))


@pytest.mark.parametrize("kind", ["classes", "intrinsics", "stats"])
def test_deeply_nested_side_file_exits_2(tmp_path, kind):
    err = _run_side_file(tmp_path, kind, b"[" * 100_000, (2,))[0]
    assert "nested too deeply" in err


def test_intrinsics_that_are_not_an_object_exit_2(tmp_path):
    _run_side_file(tmp_path, "intrinsics", b"[1]", (2,))


@pytest.mark.parametrize("stats", [{"mean": [0.0, 0.0, 0.0]},
                                   {"mean": ["a", 0, 0], "std": [1, 1, 1]},
                                   {"mean": [0, 0, 0], "std": [True, 1, 1]},
                                   {"mean": [0, "1_0", 0], "std": [1, 1, 1]}],
                         ids=["missing-std", "text-mean", "boolean-std", "numeric-text-mean"])
def test_malformed_stats_exit_2(tmp_path, stats):
    _run_side_file(tmp_path, "stats", json.dumps(stats).encode(), (2,))


@pytest.mark.parametrize("stats, message", [
    ({"mean": [0, 0, 0], "std": [1, 1]}, "'mean' and 'std' must have equal length"),
    ({"mean": [0, 0, 0], "std": [0, 1, 1]}, "'std' must hold positive numbers"),
], ids=["unequal-lengths", "zero-std"])
def test_stats_the_record_cannot_hold_exit_2(tmp_path, stats, message):
    err, side, out = _run_side_file(tmp_path, "stats", json.dumps(stats).encode(), (2,))
    assert err == f"error: {side}: {message} (byte offset 0)\n"
    assert not out.exists()


@pytest.mark.parametrize("channels", [2, 0])
def test_stats_without_three_channels_exit_2_before_any_map_is_read(tmp_path, monkeypatch,
                                                                     channels):
    read = []
    monkeypatch.setattr(cli.encoding, "load_depth", lambda path: read.append(path))
    stats = {"mean": [0.0] * channels, "std": [1.0] * channels}
    err, side, out = _run_side_file(tmp_path, "stats", json.dumps(stats).encode(), (2,))
    assert "3-channel" in err and read == [] and not out.exists()


@pytest.mark.parametrize("field, value", [("fx", True), ("fy", "1_0"), ("baseline", "0.075")])
def test_intrinsics_that_are_not_json_numbers_exit_2(tmp_path, field, value):
    data = json.dumps({**_CAM, field: value}).encode()
    err = _run_side_file(tmp_path, "intrinsics", data, (2,))[0]
    assert f"'{field}' must hold numbers" in err


def test_non_finite_stats_exit_3_without_warning(tmp_path):
    data = b'{"mean": [NaN, 0, 0], "std": [1, 1, 1]}'
    err = _run_side_file(tmp_path, "stats", data, (3,))[0]
    assert "finite" in err


@pytest.mark.parametrize("field, value", [("cx", float("nan")), ("baseline", float("inf"))])
def test_non_finite_intrinsics_exit_3(tmp_path, field, value):
    data = json.dumps({**_CAM, field: value}).encode()   # NaN, Infinity
    err = _run_side_file(tmp_path, "intrinsics", data, (3,))[0]
    assert "finite" in err


@pytest.mark.parametrize("field, value", [("fx", 1e-300), ("cy", 1e200), ("baseline", 1e308)])
def test_intrinsics_past_float_range_exit_3_without_warning(tmp_path, field, value):
    data = json.dumps({**_CAM, field: value}).encode()
    err = _run_side_file(tmp_path, "intrinsics", data, (3,))[0]
    assert "magnitude" in err


# ------------------------------------------------------------------- fuzz

_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2**70),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
)
_ANY = st.recursive(_LEAF, lambda kids: st.lists(kids, max_size=2)
                    | st.dictionaries(st.text(max_size=2), kids, max_size=2), max_leaves=3)
_NUMBER = st.one_of(
    st.floats(0, 200, allow_nan=False), st.integers(0, 200), st.floats(-1e7, 1e7),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 5e-324, 1e308, -1e308, "12.5",
                     "nan", "1e400", 10**400, True, None, [1], {"v": 1}]),
)
_INTRINSICS = st.one_of(
    st.fixed_dictionaries({k: st.floats(1, 200) for k in ("fx", "fy", "cx", "cy")},
                          optional={"baseline": st.floats(0.01, 1)}),
    st.fixed_dictionaries({}, optional={k: _NUMBER for k in ("fx", "fy", "cx", "cy", "baseline")}),
    _ANY,
)
_STATS = st.one_of(
    st.fixed_dictionaries({"mean": st.lists(st.floats(-100, 100), min_size=3, max_size=3),
                           "std": st.lists(st.floats(0.01, 100), min_size=3, max_size=3)}),
    st.fixed_dictionaries({}, optional={k: st.one_of(st.lists(_NUMBER, max_size=4), _ANY)
                                        for k in ("mean", "std")}),
    _ANY,
)
_CLASSES = st.one_of(
    st.lists(st.text(max_size=4), min_size=3, max_size=5),
    st.lists(st.one_of(st.text(max_size=2), _ANY), max_size=4),
    _ANY,
)


@st.composite
def _side_file(draw):
    """A side file of one kind: its JSON, sometimes with a BOM, invalid
    UTF-8, a cut, trailing data, odd spacing or deep nesting."""
    kind = draw(st.sampled_from(["classes", "intrinsics", "stats"]))
    value = draw({"classes": _CLASSES, "intrinsics": _INTRINSICS, "stats": _STATS}[kind])
    data = json.dumps(value).encode()
    shape = draw(st.sampled_from(["plain"] * 6 + ["bom", "badutf8", "cut", "double", "spaces",
                                                  "deep", "utf16"]))
    if shape == "bom":
        data = b"\xef\xbb\xbf" + data
    elif shape == "badutf8":
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[cut:]
    elif shape == "cut":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif shape == "double":
        data += b" " + data
    elif shape == "spaces":
        data = b" \r\n" + data + b" \x0b\n"
    elif shape == "deep":
        depth = draw(st.integers(1, 60_000))
        data = b"[" * depth + data + b"]" * depth
    elif shape == "utf16":
        data = json.dumps(value).encode("utf-16")
    return kind, data


@settings(max_examples=40, deadline=None)
@given(_side_file())
def test_fuzzed_side_files_never_crash(tmp_path_factory, kind_data):
    kind, data = kind_data
    _run_side_file(tmp_path_factory.mktemp("side"), kind, data)
