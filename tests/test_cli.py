"""End-to-end command-line behavior: exit codes, artifacts, determinism."""
import errno
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_run import assert_contract, numpy_peak, run_cli, two_cores  # two_cores is a fixture
from depth_scenes import dropout, floor_wall, write_cam
from depthkit import _kernels, analysis, cli, encoding, evaluation, geometry, netpbm
from eval_rows import write_jsonl


_RAMP = np.arange(20, dtype=np.float32).reshape(4, 5) / 4.0 + 1.0  # meters
_RAMP[2, 2] = 0.0  # one hole


def _ramp_pfm(path):
    netpbm.write_pfm(str(path), _RAMP)


def _room(tmp):
    """A 12x16 floor-and-wall room and its camera, written into ``tmp``."""
    src = tmp / "room.pfm"
    netpbm.write_pfm(str(src), floor_wall(12, 16, fy=20.0, cy=5.5)[0])
    return str(src), write_cam(tmp / "cam.json", 12, 16, 20.0)


_GT_KEYS = ("image_id", "class", "x1", "y1", "x2", "y2", "difficult")
_DET_KEYS = ("image_id", "class", "score", "x1", "y1", "x2", "y2")


@pytest.fixture
def eval_files(tmp_path):
    table = ["background", "chair", "table"]
    (tmp_path / "classes.json").write_text(json.dumps(table))
    gts = [("im1", "chair", 10, 10, 50, 50), ("im1", "table", 60, 10, 90, 40),
           ("im2", "chair", 20, 20, 70, 80), ("im2", "chair", 0, 0, 10, 10, True)]
    dets = [("im1", "chair", 0.9, 12, 11, 49, 52), ("im1", "chair", 0.8, 10, 10, 50, 50),
            ("im1", "table", 0.7, 58, 12, 88, 42), ("im2", "chair", 0.6, 25, 25, 65, 75),
            ("im2", "table", 0.55, 0, 0, 30, 30)]
    dets_b = [dets[0], dets[2], ("im2", "table", 0.6, 25, 25, 65, 75)]
    # with numeric-class twins for runs that load no class table
    for name, rows, keys in (("gts", gts, _GT_KEYS), ("dets", dets, _DET_KEYS),
                             ("dets_b", dets_b, _DET_KEYS), ("gts_ids", gts, _GT_KEYS),
                             ("dets_ids", dets, _DET_KEYS)):
        if name.endswith("_ids"):
            rows = [(row[0], table.index(row[1]), *row[2:]) for row in rows]
        write_jsonl(tmp_path / f"{name}.jsonl", [dict(zip(keys, row)) for row in rows])
    return {"classes": str(tmp_path / "classes.json"),
            **{name: str(tmp_path / f"{name}.jsonl")
               for name in ("gts", "dets", "dets_b", "gts_ids", "dets_ids")}}


@pytest.fixture
def analyze_files(tmp_path, eval_files):
    depth_dir = tmp_path / "depth"
    depth_dir.mkdir()
    rng = np.random.default_rng(2)
    for image_id in ("im1", "im2"):
        values = rng.uniform(1.0, 6.0, size=(90, 100)).astype(np.float32)
        if image_id == "im1":
            netpbm.write_pfm(str(depth_dir / f"{image_id}.pfm"), values)
        else:
            netpbm.write_pgm16(str(depth_dir / f"{image_id}.pgm"),
                               np.round(values * 1000).astype(np.uint16))
    return {"depth_dir": str(depth_dir), **eval_files}


# ------------------------------------------------------------------ encode

def test_encode_gray_matches_library(tmp_path, capsys):
    src = tmp_path / "scene.pfm"
    _ramp_pfm(src)
    out = tmp_path / "out"
    assert cli.main(["encode", str(src), "--mode", "gray",
                     "--dmin", "1.0", "--dmax", "6.0", "--out", str(out)]) == 0
    img, maxval = netpbm.read_pgm(str(out / "scene_gray.pgm"))
    assert maxval == 255
    expected = encoding.grayscale_encode(encoding.load_depth(str(src)), 1.0, 6.0)
    assert np.array_equal(img, expected)
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith(f"{src}: valid=0.950 min=1.000m max=5.750m -> ")
    assert line.endswith("scene_gray.pgm")


def test_encode_jet_matches_library(tmp_path):
    src = tmp_path / "scene.pfm"
    _ramp_pfm(src)
    assert cli.main(["encode", str(src), "--mode", "jet",
                     "--dmin", "1.0", "--dmax", "6.0", "--out", str(tmp_path)]) == 0
    rgb, _ = netpbm.read_ppm(str(tmp_path / "scene_jet.ppm"))
    depth = encoding.load_depth(str(src))
    gray = encoding.grayscale_encode(depth, 1.0, 6.0)
    assert np.array_equal(rgb, encoding.jet_encode(gray, depth.valid))


def test_encode_hdha_writes_stats_then_reuses_them(tmp_path):
    src = tmp_path / "room.pfm"
    netpbm.write_pfm(str(src), floor_wall()[0])
    cam_path = write_cam(tmp_path / "cam.json", 60, 80, 100.0)
    stats_path = tmp_path / "stats.json"
    # the second run finds the stats file and applies it: identical output
    for sub in ("a", "b"):
        assert cli.main(["encode", str(src), "--mode", "hdha", "--intrinsics", cam_path,
                         "--stats", str(stats_path), "--out", str(tmp_path / sub)]) == 0
        assert stats_path.exists()
    assert (tmp_path / "b" / "room_hdha.ppm").read_bytes() == \
        (tmp_path / "a" / "room_hdha.ppm").read_bytes()


def test_encode_hdha_stats_creation_encodes_each_map_once(tmp_path, monkeypatch):
    cam_path = write_cam(tmp_path / "cam.json", 60, 80, 100.0)
    srcs = []
    for name, cam_height, wall_z in (("c", 1.2, 6.0), ("a", 1.5, 4.0), ("b", 0.9, 5.0)):
        srcs.append(tmp_path / f"{name}.pfm")
        netpbm.write_pfm(str(srcs[-1]), floor_wall(cam_height=cam_height, wall_z=wall_z)[0])
    stats_path = tmp_path / "stats.json"

    real_encode = geometry.hdha_encode
    calls = []
    monkeypatch.setattr(geometry, "hdha_encode",
                        lambda *args, **kwargs: calls.append(1) or real_encode(*args, **kwargs))
    assert cli.main(["encode", *map(str, srcs), "--mode", "hdha",
                     "--intrinsics", cam_path, "--stats", str(stats_path),
                     "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 3

    cam_obj = encoding.CameraIntrinsics.from_json(cam_path)
    images = [real_encode(encoding.load_depth(str(p)), cam_obj) for p in srcs]
    expected = encoding.compute_channel_stats(images)
    written = json.loads(stats_path.read_text())
    assert written == {"mean": list(expected.means), "std": list(expected.stds)}
    for src, image in zip(srcs, images):
        rgb, _ = netpbm.read_ppm(str(tmp_path / "out" / f"{src.stem}_hdha.ppm"))
        assert np.array_equal(rgb, encoding.hdha_to_rgb(image, stats=expected))


@pytest.mark.parametrize("names, encoded", [
    (("cut", "room1", "room2"), 0),
    (("room1", "cut", "room2"), 1),
    (("cut", "room1", "gone"), 0),  # a later map's fault is still reported
], ids=["first", "middle", "later-fault"])
def test_encode_batch_stats_encodes_no_map_after_a_failed_one(tmp_path, monkeypatch, names,
                                                             encoded):
    # nothing will be written once a map has failed: the later maps are
    # loaded, to report their faults, but not encoded
    room, cam = _room(tmp_path)
    (tmp_path / "cut.pfm").write_bytes(_CUT_PFM)
    for name in ("room1", "room2"):
        (tmp_path / f"{name}.pfm").write_bytes(Path(room).read_bytes())
    real_encode, calls = geometry.hdha_encode, []
    monkeypatch.setattr(geometry, "hdha_encode",
                        lambda *args, **kwargs: calls.append(1) or real_encode(*args, **kwargs))
    out = tmp_path / "out"
    rc, stdout, err, _ = run_cli(["encode", *(str(tmp_path / f"{n}.pfm") for n in names),
                                  "--mode", "hdha", "--intrinsics", cam,
                                  "--stats", str(out / "s.json"), "--out", str(out)])
    assert (rc, stdout, len(calls)) == (2, "", encoded)
    expected = [f"error: {tmp_path}/cut.pfm: raster truncated, need 36 bytes, have 2 "
                "(byte offset 14)"]
    if "gone" in names:
        expected.append(f"error: missing file: {tmp_path}/gone.pfm")
    assert err.splitlines() == expected
    assert not out.exists()


def _full_disk_spill(image, path):
    """A spill write that fails as on a full disk, after part of its file."""
    with open(path, "xb") as fh:
        fh.write(bytes(64))
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("case, code", [("stats-written", 0), ("failed-map", 2),
                                        ("full-disk", 3)])
def test_encode_batch_stats_spill_lives_only_in_its_run(tmp_path, monkeypatch, case, code):
    # the spill lies in a private directory under the temporary root,
    # never under --out, and the run removes it however it ends; no
    # file is made under --out before the stats file
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    room, cam = _room(tmp_path)
    second = tmp_path / "second.pfm"
    second.write_bytes(_CUT_PFM if case == "failed-map" else Path(room).read_bytes())
    out = tmp_path / "out"
    spill, spills = (_full_disk_spill if case == "full-disk" else encoding.spill_hdha), []

    def watched(image, path):
        assert not out.exists()
        spills.append(Path(path))
        return spill(image, path)

    to_json = encoding.ChannelStats.to_json

    def first_write(stats, path):
        assert list(out.iterdir()) == []
        to_json(stats, path)

    monkeypatch.setattr(encoding, "spill_hdha", watched)
    monkeypatch.setattr(encoding.ChannelStats, "to_json", first_write)
    assert_contract(["encode", room, str(second), "--mode", "hdha", "--intrinsics", cam,
                     "--stats", str(out / "s.json"), "--out", str(out)], (code,))
    assert spills and all(path.parent.parent == root for path in spills), spills
    assert list(root.iterdir()) == []
    assert (out / "s.json").exists() == (code == 0)


def test_encode_hdha_stats_on_a_batch_with_no_valid_pixel(tmp_path):
    # no stats exist to compute, and none could change a byte of a zero image
    maps = [tmp_path / "a.pfm", tmp_path / "b.pfm"]
    for path in maps:
        netpbm.write_pfm(str(path), np.zeros((4, 4), dtype=np.float32))
    cam_path = write_cam(tmp_path / "cam.json", 4, 4, 4.0)
    stats_path = tmp_path / "o" / "s.json"
    assert cli.main(["encode", *map(str, maps), "--mode", "hdha",
                     "--intrinsics", cam_path, "--stats", str(stats_path),
                     "--out", str(tmp_path / "o")]) == 0
    assert not stats_path.exists()
    for path in maps:
        rgb, _ = netpbm.read_ppm(str(tmp_path / "o" / f"{path.stem}_hdha.ppm"))
        assert rgb.shape == (4, 4, 3)
        assert not rgb.any()


def test_encode_hdha_accepts_fixed_gravity(tmp_path):
    src = tmp_path / "room.pfm"
    netpbm.write_pfm(str(src), floor_wall()[0])
    cam_path = write_cam(tmp_path / "cam.json", 60, 80, 100.0)
    assert cli.main(["encode", str(src), "--mode", "hdha",
                     "--intrinsics", cam_path, "--gravity", "0,1,0",
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / "room_hdha.ppm").exists()


@pytest.mark.parametrize("gravity", [None, "0,1,0"], ids=["estimated", "fixed"])
@pytest.mark.parametrize("name, values", [
    ("blank", np.zeros((4, 4), dtype=np.float32)),  # every reading invalid
    ("dot", np.full((1, 1), 2.0, dtype=np.float32)),  # one point spans no plane
], ids=["4x4-invalid", "1x1"])
def test_encode_hdha_without_normals_writes_black_image(tmp_path, capsys, name, values, gravity):
    src = tmp_path / f"{name}.pfm"
    netpbm.write_pfm(str(src), values)
    cam_path = write_cam(tmp_path / "cam.json", 60, 80, 100.0)
    out = tmp_path / "out"
    argv = ["encode", str(src), "--mode", "hdha", "--intrinsics", cam_path,
            "--out", str(out)]
    if gravity is not None:
        argv += ["--gravity", gravity]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.endswith(f"-> {out / f'{name}_hdha.ppm'}\n")
    rgb, _ = netpbm.read_ppm(str(out / f"{name}_hdha.ppm"))
    assert rgb.shape == (*values.shape, 3)
    assert not rgb.any()


@pytest.mark.parametrize("gravity", ["nan,0,0", "inf,1,0", "0,-inf,1", "1e308,1e308,0", "0,0,0"])
def test_encode_non_finite_gravity_exits_3(tmp_path, monkeypatch, gravity):
    # refused before any map is read: no normals call, no --out directory
    calls = []
    monkeypatch.setattr(_kernels, "normals_from_points", lambda *args: calls.append(args))
    src, cam = _room(tmp_path)
    out = tmp_path / "out"
    err = assert_contract(["encode", src, "--mode", "hdha", "--intrinsics", cam,
                           f"--gravity={gravity}", "--out", str(out)], (3,))[1]
    assert "gravity" in err and "finite" in err
    assert calls == []
    assert not out.exists()


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e-170, 1e154, 1e308, -1.7e308]),
)


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.lists(_FLOATS, min_size=3, max_size=3).map(lambda v: ",".join(map(repr, v))),
    st.lists(_FLOATS, min_size=0, max_size=5).map(lambda v: ",".join(map(repr, v))),
    st.text(alphabet="0123456789.,-+eEinfatxyz ", max_size=16),
))
def test_encode_gravity_fuzz_never_crashes_or_warns(tmp_path_factory, gravity):
    # a refused direction leaves no file under --out
    tmp = tmp_path_factory.mktemp("gravity")
    src, cam = _room(tmp)
    assert_contract(["encode", src, "--mode", "hdha", "--intrinsics", cam, f"--gravity={gravity}",
                     "--out", str(tmp / "out")], (0, 3))


@pytest.mark.parametrize("bad", [0, 1, 2], ids=["first", "middle", "last"])
def test_encode_batch_writes_every_map_but_the_bad_one(tmp_path, capsys, bad):
    paths = [tmp_path / f"{name}.pfm" for name in "abc"]
    for path in paths:
        _ramp_pfm(path)
    paths[bad].write_bytes(paths[bad].read_bytes()[:30])
    out = tmp_path / "out"
    rc = cli.main(["encode", *map(str, paths), "--mode", "gray", "--dmin", "1", "--dmax", "6",
                   "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert re.fullmatch(rf"error: {re.escape(str(paths[bad]))}: raster truncated, "
                        r"need 80 bytes, have 18 \(byte offset 30\)\n", captured.err)
    good = [path for i, path in enumerate(paths) if i != bad]
    assert captured.out.splitlines() == [
        f"{path}: valid=0.950 min=1.000m max=5.750m -> {out / f'{path.stem}_gray.pgm'}"
        for path in good]
    assert sorted(out.iterdir()) == [out / f"{path.stem}_gray.pgm" for path in good]


def test_encode_batch_exits_with_the_code_of_the_first_bad_map(tmp_path, capsys):
    cut, missing = tmp_path / "cut.pfm", tmp_path / "missing.pfm"
    _ramp_pfm(cut)
    cut.write_bytes(cut.read_bytes()[:30])
    argv = ["--mode", "gray", "--dmin", "1", "--dmax", "6", "--out", str(tmp_path / "out")]
    assert cli.main(["encode", str(cut), str(missing), *argv]) == 2
    assert cli.main(["encode", str(missing), str(cut), *argv]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0] == err[3] and err[1] == err[2] == f"error: missing file: {missing}"


def test_encode_batch_writes_the_maps_around_an_unreadable_one(tmp_path, capsys):
    good = tmp_path / "good.pfm"
    _ramp_pfm(good)
    directory = tmp_path / "dir.pfm"
    directory.mkdir()
    out = tmp_path / "out"
    rc = cli.main(["encode", str(directory), str(good), "--mode", "gray", "--dmin", "1",
                   "--dmax", "6", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith(f"error: {directory}: ") and captured.err.count("\n") == 1
    assert captured.out.endswith(f"-> {out / 'good_gray.pgm'}\n")
    assert list(out.iterdir()) == [out / "good_gray.pgm"]


# -------------------------------------------------------------------- arch

def test_arch_writes_reports_and_summarizes(tmp_path, capsys):
    assert cli.main(["arch", "--variant", "baseline", "--backbone", "vgg16",
                     "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "baseline / vgg16: trainable=136,818,079 fixed=260,160" in out
    assert "head input: 300x4096" in out
    for suffix in (".dot", "_params.csv", "_shapes.csv"):
        path = tmp_path / f"baseline_vgg16{suffix}"
        assert path.exists(), suffix
        assert f"wrote {path}" in out


def test_arch_forward_prints_deterministic_digests(tmp_path, capsys):
    argv = ["arch", "--variant", "baseline", "--backbone", "vgg16",
            "--input", "64x64", "--rois", "4", "--forward", "--seed", "5",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    lines = [l for l in first.splitlines() if l.startswith("forward ")]
    keys = {l.split(" ")[1].rstrip(":") for l in lines}
    assert keys == {"det:scores", "det:deltas", "rpn:objectness", "rpn:deltas"}
    assert all("shape=" in l and "sum=" in l for l in lines)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_arch_forward_seed_changes_digests(tmp_path, capsys):
    base = ["arch", "--variant", "baseline", "--backbone", "vgg16",
            "--input", "64x64", "--rois", "4", "--forward",
            "--out", str(tmp_path)]
    cli.main(base + ["--seed", "0"])
    out0 = capsys.readouterr().out
    cli.main(base + ["--seed", "1"])
    out1 = capsys.readouterr().out
    digest = lambda text: [l for l in text.splitlines() if l.startswith("forward ")]
    assert digest(out0) != digest(out1)


def test_arch_seed_range_ends_are_accepted(tmp_path, capsys):
    # the input filler is seeded with (seed + 1) mod 2^64, so the top seed wraps to 0
    for seed in (0, 2**64 - 1):
        rc = cli.main(["arch", "--variant", "baseline", "--backbone", "vgg16", "--input", "32x32",
                       "--rois", "1", "--forward", "--seed", str(seed), "--out", str(tmp_path)])
        assert rc == 0
        assert "forward det:scores: shape=1x21 " in capsys.readouterr().out


def test_arch_forward_feeds_rois_rows(tmp_path, capsys):
    assert cli.main(["arch", "--variant", "baseline", "--backbone", "vgg16",
                     "--input", "64x64", "--rois", "7", "--forward", "--out", str(tmp_path)]) == 0
    assert "forward det:scores: shape=7x21 " in capsys.readouterr().out


# -------------------------------------------------------------------- eval

def _named(files, metric, *flags):
    """``eval`` of the fixture files whose classes are given by name."""
    return ["eval", "--metric", metric, "--dets", files["dets"], "--gts", files["gts"],
            "--classes", files["classes"], *flags]


def _loaded(files):
    """The class table, detections and ground truth of ``_named`` as the library loads them."""
    classes = evaluation.load_classes(files["classes"])
    return (classes, evaluation.load_detections(files["dets"], classes),
            evaluation.load_groundtruth(files["gts"], classes))


def test_eval_voc_matches_library(tmp_path, capsys, eval_files):
    assert cli.main(_named(eval_files, "voc", "--out", str(tmp_path))) == 0
    classes, dets, gts = _loaded(eval_files)
    map_value, per_class = evaluation.mean_ap(dets, gts, [1, 2], 0.5, False)
    expected = evaluation.ap_csv(per_class, classes, map_value)
    assert (tmp_path / "voc_ap.csv").read_text() == expected
    assert f"mAP: {map_value:.6f}" in capsys.readouterr().out


def test_eval_voc_use_difficult_changes_the_score(tmp_path, eval_files):
    cli.main(_named(eval_files, "voc", "--out", str(tmp_path / "plain")))
    cli.main(_named(eval_files, "voc", "--use-difficult", "--out", str(tmp_path / "hard")))
    plain = (tmp_path / "plain" / "voc_ap.csv").read_text()
    hard = (tmp_path / "hard" / "voc_ap.csv").read_text()
    assert plain != hard  # the difficult chair now counts as a miss


def test_eval_coco_matches_library(tmp_path, capsys, eval_files):
    assert cli.main(_named(eval_files, "coco", "--out", str(tmp_path))) == 0
    classes, dets, gts = _loaded(eval_files)
    summary = evaluation.coco_ap(dets, gts, [1, 2])
    assert (tmp_path / "coco_ap.csv").read_text() == evaluation.coco_csv(summary)
    assert f"AP: {summary['ap']:.6f}" in capsys.readouterr().out


def test_eval_confusion_matches_library(tmp_path, capsys, eval_files):
    assert cli.main(_named(eval_files, "confusion", "--out", str(tmp_path))) == 0
    classes, dets, gts = _loaded(eval_files)
    cm = evaluation.confusion_matrix(dets, gts, classes, 0.5, 0.5)
    assert (tmp_path / "confusion.csv").read_text() == cm.to_csv()
    out = capsys.readouterr().out
    assert f"matched={int(cm.counts.sum())} missed={int(cm.fn.sum())}" in out


def test_eval_confdiff_prints_table_and_writes_csv(tmp_path, capsys, eval_files):
    argv = _named(eval_files, "confdiff", "--dets-b", eval_files["dets_b"], "--out", str(tmp_path))
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert (tmp_path / "confusion_diff.csv").exists()
    assert "chair" in out and "wrote" in out


_GOOD_DET = '{"image_id": "im1", "class": 1, "score": 0.5, "x1": 0, "y1": 0, "x2": 9, "y2": 9}'


def test_eval_bom_on_first_line_still_loads(tmp_path, capsys, eval_files):
    dets = tmp_path / "dets.jsonl"
    dets.write_bytes(b"\xef\xbb\xbf" + _GOOD_DET.encode() + b"\r\n\r\n" + _GOOD_DET.encode())
    assert len(evaluation.load_detections(str(dets))) == 2
    rc = cli.main(["eval", "--metric", "voc", "--dets", str(dets),
                   "--gts", eval_files["gts_ids"], "--out", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err


def test_eval_integral_float_class_id_still_loads(tmp_path):
    dets = tmp_path / "dets.jsonl"
    dets.write_text(_GOOD_DET.replace('"class": 1', '"class": 1.0') + "\n")
    assert evaluation.load_detections(str(dets)).class_id[0] == 1


def test_eval_iou_of_exactly_one_is_accepted(tmp_path, eval_files):
    assert cli.main(_named(eval_files, "voc", "--iou", "1", "--out", str(tmp_path))) == 0


# ----------------------------------------------------------------- analyze

def test_analyze_writes_samples_and_heatmap(tmp_path, capsys, analyze_files):
    out = tmp_path / "stats"
    assert cli.main(["analyze", "--gts", analyze_files["gts"], "--depth-dir",
                     analyze_files["depth_dir"], "--classes", analyze_files["classes"],
                     "--bins", "5", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("samples=4 pearson_r=")
    for name in ("samples.csv", "heatmap.csv", "heatmap.pgm"):
        assert (out / name).exists(), name
    hm = analysis.parse_heatmap_csv((out / "heatmap.csv").read_bytes())
    assert hm.counts.shape == (5, 5)
    assert hm.total == 4
    # samples.csv names classes through the table
    assert "chair" in (out / "samples.csv").read_text()


def test_analyze_correlates_areas_whose_squares_pass_the_float_range(tmp_path, capsys):
    # any two samples with spread correlate to 1 or -1; one box of area
    # 1e308 squares past the float range, but r does not depend on scale
    depth_dir = tmp_path / "depth"
    depth_dir.mkdir()
    netpbm.write_pfm(str(depth_dir / "im1.pfm"), np.arange(64, dtype=np.float32).reshape(8, 8))
    gts = tmp_path / "gts.jsonl"
    write_jsonl(gts, [{"image_id": "im1", "class": 1, "x1": 0, "y1": 0, "x2": 1e154, "y2": 1e154},
                      {"image_id": "im1", "class": 1, "x1": 2, "y1": 2, "x2": 4, "y2": 4}])
    assert cli.main(["analyze", "--gts", str(gts), "--depth-dir", str(depth_dir),
                     "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("samples=2 pearson_r=1.000000\n")


def test_analyze_similarity_of_a_heatmap_with_itself(tmp_path, capsys, analyze_files):
    out = tmp_path / "stats"
    cli.main(["analyze", "--gts", analyze_files["gts"], "--depth-dir", analyze_files["depth_dir"],
              "--classes", analyze_files["classes"], "--out", str(out)])
    capsys.readouterr()
    hm_path = str(out / "heatmap.csv")
    assert cli.main(["analyze", "--similarity", hm_path, hm_path]) == 0
    assert capsys.readouterr().out == "similarity: 1.000000\n"


_HEATMAP = b"x_edges,1.0,2.0,3.0\ny_edges,10.0,20.0,30.0\n4.0,1.0\n0.0,2.5\n"


def test_analyze_similarity_reads_crlf_rows(tmp_path, capsys):
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_bytes(_HEATMAP)
    crlf.write_bytes(_HEATMAP.replace(b"\n", b"\r\n"))
    assert cli.main(["analyze", "--similarity", str(lf), str(crlf)]) == 0
    assert capsys.readouterr().out == "similarity: 1.000000\n"


@pytest.mark.parametrize("message, line", [
    ("", "out of memory"),
    ("Unable to allocate 7.45 EiB", "out of memory: Unable to allocate 7.45 EiB"),
], ids=["bare", "numpy"])
def test_out_of_memory_exits_3(tmp_path, monkeypatch, analyze_files, message, line):
    # the count grid is where a huge --bins fails to allocate; none is made here
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(np, "bincount", no_memory)
    err = assert_contract(["analyze", "--gts", analyze_files["gts_ids"], "--depth-dir",
                           analyze_files["depth_dir"], "--out", str(tmp_path / "stats")], (3,))[1]
    assert err == f"error: {line}\n"


def test_analyze_holds_one_depth_map_at_a_time(tmp_path):
    # tracemalloc peaks over 2 and over 8 VGA maps: a run that held every
    # map would grow by 6 maps of 9 bytes a pixel (values and mask)
    footprint = 480 * 640 * 9

    def peak(n):
        depth_dir = tmp_path / f"depth{n}"
        depth_dir.mkdir()
        records = []
        for i in range(n):
            netpbm.write_pfm(str(depth_dir / f"im{i}.pfm"),
                             np.full((480, 640), 1.0 + i, dtype=np.float32))
            records.append({"image_id": f"im{i}", "class": 1,
                            "x1": 10, "y1": 10 + i, "x2": 200, "y2": 300})
        gts = tmp_path / f"gts{n}.jsonl"
        write_jsonl(gts, records)
        argv = ["analyze", "--gts", str(gts), "--depth-dir", str(depth_dir),
                "--out", str(tmp_path / f"stats{n}")]
        return numpy_peak(assert_contract, argv, (0,))[1]

    two, eight = peak(2), peak(8)
    assert eight - two < footprint, (two, eight)


def _vga_scenes(tmp_path, n):
    """``n`` VGA floor/wall maps with dropout holes, each seen from its
    own camera height, and their camera file."""
    rng = np.random.default_rng(4)
    maps = []
    for i in range(n):
        depth = floor_wall(480, 640, 1.2 + 0.1 * i, fy=500.0, cy=239.5)[0]
        maps.append(tmp_path / f"m{i}.pfm")
        netpbm.write_pfm(str(maps[-1]), dropout(depth, rng, 40, (0, 440), (30, 40), 0.05))
    return maps, write_cam(tmp_path / "cam.json", 480, 640, 500.0)


def _encode_peak(tmp_path, maps, cam, *options):
    """The traced peak of an hdha encode of ``maps``, into an ``--out``
    of its own."""
    out = tmp_path / f"out{len(list(tmp_path.glob('out*')))}"
    argv = ["encode", *map(str, maps), "--mode", "hdha", "--intrinsics", cam, *options,
            "--out", str(out)]
    return numpy_peak(assert_contract, argv, (0,))[1]


def test_encode_stats_memory_is_bounded_by_the_maps(tmp_path):
    # each map is spilled once encoded, so a batch that computes its
    # stats peaks where encoding one of its maps alone does, about
    # 22 MiB of numpy allocations; held for the stats, two maps took
    # about 29 MiB
    maps, cam = _vga_scenes(tmp_path, 2)
    one_map = max(_encode_peak(tmp_path, [path], cam) for path in maps)
    both = _encode_peak(tmp_path, maps, cam, "--stats", str(tmp_path / "stats.json"))
    assert (tmp_path / "stats.json").exists()
    assert both < one_map + 2 * 2**20, (both, one_map)


def test_encode_stats_memory_does_not_grow_with_the_batch(tmp_path):
    # held for the stats, every map added about 7.6 MiB: 28.8 MiB for 2
    # maps and 74.2 MiB for 8
    maps, cam = _vga_scenes(tmp_path, 8)
    two = _encode_peak(tmp_path, maps[:2], cam, "--stats", str(tmp_path / "two.json"))
    eight = _encode_peak(tmp_path, maps, cam, "--stats", str(tmp_path / "eight.json"))
    assert eight < two + 2 * 2**20, (two, eight)


def test_encode_on_two_cores_runs_the_caller_and_one_worker(tmp_path, monkeypatch, two_cores):
    # the caller encodes maps beside the pool's one thread: each thread's
    # first map waits at a barrier for the other's, and the run makes
    # exactly one depthkit thread
    maps = [tmp_path / f"m{i}.pfm" for i in range(4)]
    for path in maps:
        netpbm.write_pfm(str(path), _RAMP)
    barrier, threads, real = threading.Barrier(2), set(), encoding.grayscale_encode

    def gray(depth, d_min, d_max):
        name = threading.current_thread().name
        if name not in threads:
            threads.add(name)
            barrier.wait(timeout=30)
        return real(depth, d_min, d_max)

    monkeypatch.setattr(encoding, "grayscale_encode", gray)
    before = set(threading.enumerate())
    assert_contract(["encode", *map(str, maps), "--mode", "gray", "--dmin", "1", "--dmax", "6",
                     "--out", str(tmp_path / "out")], (0,))
    made = [t.name for t in threading.enumerate() if t not in before]
    assert len(made) == 1 and made[0].startswith("depthkit"), made
    assert threads == {threading.current_thread().name, made[0]}, threads


# ------------------------------------------------------------ entry point

@pytest.mark.parametrize("argv", [["--help"], ["encode", "--help"], ["arch", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: depthkit")


def test_cli_runs_as_a_process(tmp_path):
    src = tmp_path / "scene.pfm"
    _ramp_pfm(src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from depthkit.cli import main; sys.exit(main())",
         "encode", str(src), "--mode", "gray", "--dmin", "1", "--dmax", "6",
         "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    # argv[0] is the -c script itself; remaining args reach the parser
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "scene_gray.pgm").exists()
    assert "valid=0.950" in proc.stdout


# ------------------------------------------------- one run, one outcome

class _Inputs(dict):
    """The ``{name}`` fields of a row's argv, made on first use in the
    test's ``tmp_path``: ``tmp``, ``out``, a ``ramp`` map, a ``room`` map
    and its ``cam``, and the paths of the eval and analyze fixtures."""

    def __init__(self, request, tmp, out):
        super().__init__(tmp=str(tmp), out=str(out))
        self.request, self.tmp = request, tmp

    def __missing__(self, key):
        if key == "ramp":
            _ramp_pfm(self.tmp / "scene.pfm")
            self[key] = str(self.tmp / "scene.pfm")
        elif key in ("room", "cam"):
            self["room"], self["cam"] = _room(self.tmp)
        else:
            files = self.request.getfixturevalue(
                "analyze_files" if key == "depth_dir" else "eval_files")
            self[key] = files[key]
        return self[key]

    def argv(self, words):
        return [word.format_map(self) for word in shlex.split(words)]


class _Row(NamedTuple):
    id: str | None  # the case id; rows without one run in turn as one test
    argv: str  # shell words with _Inputs fields, less --out
    code: int
    # a regex searched in the error line, {tmp} and {out} filled in; for
    # exit 0, the argv of a run that must write the same bytes
    expect: str
    files: dict = {}  # under {tmp}: text, bytes, PFM array, JSONL list, None a directory
    setup: Callable | None = None  # called with the _Inputs before the run


def _check(row, f):
    for name, data in row.files.items():
        path = f.tmp / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if data is None:
            path.mkdir()
        elif isinstance(data, np.ndarray):
            netpbm.write_pfm(str(path), data.astype(np.float32))
        elif isinstance(data, list):
            write_jsonl(path, data)
        else:
            path.write_bytes(data.encode() if isinstance(data, str) else data)
    if row.setup:
        row.setup(f)
    argv = f.argv(row.argv)
    # with no subcommand there is no --out to take
    err = assert_contract([*argv, "--out", f["out"]] if argv else argv, (row.code,))[1]
    if row.code == 0:
        ref = f.tmp / "ref"
        assert_contract([*f.argv(row.expect), "--out", str(ref)], (0,))
        written = {path.name: path.read_bytes() for path in Path(f["out"]).iterdir()}
        assert written and written == {path.name: path.read_bytes() for path in ref.iterdir()}
        return
    pattern = row.expect.format(tmp=re.escape(f["tmp"]), out=re.escape(f["out"]))
    assert re.search(pattern, err), (pattern, err)


def _contract_test(rows):
    """A test of ``rows``: one case a row, or, when the rows carry no id,
    one case that runs every row, each into an ``--out`` of its own."""
    if rows[0].id is None:
        def test(request, tmp_path):
            for i, row in enumerate(rows):
                _check(row, _Inputs(request, tmp_path, tmp_path / f"out{i}"))
        return test

    @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
    def test(request, tmp_path, row):
        _check(row, _Inputs(request, tmp_path, tmp_path / "out"))
    return test


def _no_reads(f):
    """Fail the run at its first depth-map or JSONL read: the row must be
    refused on its options alone."""
    def read(path, *args):
        raise AssertionError(f"{path} was read before the options were checked")

    monkeypatch = f.request.getfixturevalue("monkeypatch")
    monkeypatch.setattr(encoding, "load_depth", read)
    for name in ("load_detections", "load_groundtruth"):
        monkeypatch.setattr(evaluation, name, read)


def _disagreeing_forward(f):
    def disagree(graph, inputs, seed=0):
        raise cli.StructuralError("executor produced 1x1 at det:scores, propagation said 4x21")

    f.request.getfixturevalue("monkeypatch").setattr(cli, "execute_forward", disagree)


_CUT_PFM = b"Pf\n3 3\n-1.0\n\x00\x01"  # a 36-byte raster cut to 2
_HDHA = "encode {room} --mode hdha --intrinsics {cam}"
_VGG = "arch --variant baseline --backbone vgg16"
_GOOD = _GOOD_DET.encode()
_GOOD_GT = '{"image_id": "im1", "class": 1, "x1": 0, "y1": 0, "x2": 9, "y2": 9}'
_ROW_2 = _HEATMAP.index(b"4.0")
_ENCODE = "encode scene.pfm --mode gray --dmin 1 --dmax 6"
_ARCH = "arch --variant raw-EC --backbone vgg16 --input 64x64 --rois 4 --forward"
_EVAL = "eval --metric confusion --dets d.jsonl --gts g.jsonl --classes c.json"
_MAX_INDEX = int(np.iinfo(np.intp).max)
_MODE_OPTIONS = {"gray": "--dmin 1 --dmax 6", "jet": "--dmin 1 --dmax 6",
                 "hdha": "--intrinsics {tmp}/absent.json"}
_NUMERIC_OPTIONS = [
    (_ENCODE, "--dmin={}"), (_ENCODE, "--dmax={}"), (_ENCODE, "--k-neighbors={}"),
    (_ARCH, "--classes={}"), (_ARCH, "--rois={}"), (_ARCH, "--depth-channels={}"),
    (_ARCH, "--seed={}"), (_ARCH, "--input={}x64"), (_ARCH, "--input=64x{}"),
    (_EVAL, "--iou={}"), (_EVAL, "--score-thresh={}"),
    ("analyze --gts g.jsonl --depth-dir depth", "--bins={}")]

_CONTRACT = {
    # ---------------------------------------------------------- encode
    "test_encode_hdha_stats_failure_writes_no_images": [
        # frontal walls at one constant depth have a constant disparity channel
        _Row(None, "encode {tmp}/wall1.pfm {tmp}/wall2.pfm --mode hdha --intrinsics {cam} "
             "--stats {out}/s.json", 3, "^error: constant channel, std would be zero: ",
             {"wall1.pfm": np.full((60, 80), 6.0), "wall2.pfm": np.full((60, 80), 6.0)})],
    "test_encode_parameter_errors_exit_3": [
        # each refused before any map is read
        _Row(None, "encode {ramp} --mode gray", 3, "^error: --mode gray requires --dmin and ",
             setup=_no_reads),
        _Row(None, "encode {ramp} --mode sepia --dmin 1 --dmax 2", 3, "invalid choice: 'sepia'",
             setup=_no_reads),
        _Row(None, "encode {ramp} --mode hdha", 3,
             r"^error: --mode hdha requires --intrinsics \(camera intrinsics JSON\)$",
             setup=_no_reads),
        _Row(None, "encode {ramp} --mode hdha --intrinsics {cam} --gravity 0,1", 3,
             "^error: --gravity needs 'x,y,z', got '0,1'$", setup=_no_reads),
        _Row(None, _HDHA + " --k-neighbors 2", 3,
             "^error: --k-neighbors must be at least 3, got 2$", setup=_no_reads),
        _Row(None, "encode {tmp}/a.pfm {tmp}/b.pfm --mode gray --dmin 5 --dmax 1", 3,
             r"^error: --dmin must be below --dmax, got 5\.0 and 1\.0$",
             {"a.pfm": _RAMP, "b.pfm": _RAMP}, setup=_no_reads)],
    "test_encode_options_outside_the_mode_exit_3": [
        # each refused before any read, naming the option; the hdha rows'
        # camera file does not exist
        _Row(f"{mode}-{extra.split()[0][2:]}",
             f"encode {{ramp}} --mode {mode} {_MODE_OPTIONS[mode]} {extra}", 3,
             f"^error: {extra.split()[0]} applies to --mode "
             f"{'gray and jet' if mode == 'hdha' else 'hdha'} only$", setup=_no_reads)
        for mode, extra in (
            ("gray", "--k-neighbors 2"), ("gray", "--intrinsics {tmp}/absent.json"),
            ("gray", "--gravity 0,1,0"), ("jet", "--k-neighbors 25"), ("jet", "--stats s.json"),
            ("hdha", "--dmin 5 --dmax 1"), ("hdha", "--dmax 8"))],
    "test_encode_empty_gravity_exits_3": [
        _Row(None, _HDHA + " --gravity=", 3, "^error: --gravity needs 'x,y,z', got ''$")],
    "test_encode_gravity_components_are_ascii_decimals": [
        _Row(case, f"{_HDHA} '--gravity={gravity}'", 3, "--gravity needs finite decimal components")
        for case, gravity in (("underscore", "1_0,0,0"), ("arabic-indic-digit", "0,\u0661,0"),
                              ("padded", " 0 ,1,0"))],
    "test_encode_k_neighbors_past_the_pixel_count": [
        # no window holds more than the room's 12 x 16 pixels
        _Row(None, f"{_HDHA} --k-neighbors={10**60}", 0, f"{_HDHA} --k-neighbors={12 * 16}")],
    "test_encode_missing_file_exits_3": [
        _Row(None, "encode {tmp}/absent.pfm --mode gray --dmin 1 --dmax 6", 3,
             r"^error: missing file: {tmp}/absent\.pfm$")],
    "test_encode_corrupt_file_exits_2_with_offset": [
        _Row(None, "encode {tmp}/bad.pfm --mode gray --dmin 1 --dmax 6", 2,
             r"^error: {tmp}/bad\.pfm: raster truncated, need 36 bytes, have 2 \(byte offset 14\)$",
             {"bad.pfm": _CUT_PFM})],
    "test_encode_batch_stats_need_every_map": [
        # the stats need every map, so the good one is not written either
        _Row(None, "encode {room} {tmp}/cut.pfm --mode hdha --intrinsics {cam} --stats {out}/s",
             2, r"^error: {tmp}/cut\.pfm: raster truncated, ", {"cut.pfm": _CUT_PFM})],
    "test_encode_batch_stats_on_a_full_disk_exit_3": [
        # the first map's spill write fails after part of its file
        _Row(None, "encode {room} --mode hdha --intrinsics {cam} --stats {out}/s.json", 3,
             r"^error: \[Errno %d\] %s$" % (errno.ENOSPC, re.escape(os.strerror(errno.ENOSPC))),
             setup=lambda f: f.request.getfixturevalue("monkeypatch").setattr(
                 encoding, "spill_hdha", _full_disk_spill))],
    "test_encode_inputs_sharing_an_output_exit_3_before_any_read": [
        # refused before any read: the second map is cut and would exit 2
        _Row(None, "encode {tmp}/a/x.pfm {tmp}/b/x.pfm --mode gray --dmin 1 --dmax 6", 3,
             r"^error: inputs {tmp}/a/x\.pfm and {tmp}/b/x\.pfm would both write "
             r"{out}/x_gray\.pgm$", {"a/x.pfm": _RAMP, "b/x.pfm": _CUT_PFM})],
    "test_unreadable_input_exits_3_naming_it": [
        _Row("similarity", "analyze --similarity {tmp}/dir.pfm {tmp}/dir.pfm", 3,
             r"^error: {tmp}/dir\.pfm: ", {"dir.pfm": None}),
        _Row("eval", "eval --metric voc --dets {dets_ids} --gts {tmp}/dir.pfm", 3,
             r"^error: {tmp}/dir\.pfm: ", {"dir.pfm": None}),
        _Row("depth-dir", "analyze --gts {gts_ids} --depth-dir {tmp}/depth", 3,
             r"^error: {tmp}/depth/im1\.pfm: ", {"depth/im1.pfm": None})],
    # ------------------------------------------------------------ arch
    "test_arch_artifacts_are_byte_identical_across_runs": [
        _Row(None, "arch --variant proc-EC --backbone vgg16", 0,
             "arch --variant proc-EC --backbone vgg16")],
    "test_arch_seed_outside_64_bits_exits_3_writing_nothing": [
        # -1 would otherwise draw the weights of 2^64 - 1
        _Row(str(seed), f"{_VGG} --input 64x64 --forward --seed {seed}", 3,
             r"^error: --seed must be in \[0, 2\^64 - 1\], got %d$" % seed)
        for seed in (-1, 2**64)],
    "test_arch_parameter_errors_exit_3": [
        _Row(None, "arch --variant mystery --backbone vgg16", 3,
             "^error: unknown variant 'mystery', expected one of baseline, "),
        _Row(None, _VGG + " --input 600by800", 3,
             "^error: --input must look like 600x800, got '600by800'$")],
    "test_arch_input_too_small_exits_3": [
        # an 8x8 input collapses vgg16's fourth pooling stage to zero extent
        _Row(None, _VGG + " --input 8x8", 3, r"^error: --input 8x8 is too small for vgg16: node "
             r"rgb_bb/pool4: spatial extent collapses to 0 \(in=1, k=2, s=2, p=0\)$")],
    "test_arch_internal_invariant_exits_4": [
        # the forward runs before any report is written or printed
        _Row(None, _VGG + " --input 64x64 --rois 4 --forward", 4,
             "^internal error: executor produced 1x1 at det:scores, propagation said 4x21$",
             setup=_disagreeing_forward)],
    "test_arch_forward_failure_writes_nothing": [
        # a size past the largest array index is refused, naming its
        # option, before anything is built, written or printed
        _Row(case + suffix, f"{_ARCH} --{option.format(value)}", 3,
             f"^error: {named} must be at most {_MAX_INDEX} with --forward, got {value}$")
        for suffix, value in (("", 10**60), ("-past-max-index", _MAX_INDEX + 1))
        for case, option, named in (
            ("rois", "rois={}", "--rois"), ("classes", "classes={}", "--classes"),
            ("depth-channels", "depth-channels={}", "--depth-channels"),
            ("input-height", "input={}x64", "--input height"),
            ("input-width", "input=64x{}", "--input width"))],
    "test_arch_depth_channels_without_single_depth_input_exits_3": [
        _Row(variant, f"arch --variant {variant} --backbone vgg16 --depth-channels 5", 3,
             f"^error: depth_channels does not apply to {variant}, ")
        for variant in ("baseline", "hdha-split")],
    # ------------------------------------------------------------ eval
    "test_eval_class_name_that_cannot_be_written_exits_2": [
        # a lone surrogate decodes from its JSON escape but has no UTF-8 form
        _Row(None, "eval --metric confusion --dets {dets} --gts {gts} --classes {tmp}/s.json", 2,
             r"^error: {tmp}/s\.json", {"s.json": json.dumps(["background", "chair", "table",
                                                               "\ud800"])})],
    "test_eval_confusion_requires_class_table": [
        # refused before any read: the missing --dets is not the fault named
        _Row(None, "eval --metric confusion --dets {tmp}/absent.jsonl --gts {gts_ids}", 3,
             "^error: --metric confusion requires --classes$", setup=_no_reads)],
    "test_eval_second_run_outside_confdiff_exits_3": [
        # refused before any read: the missing --dets-b is not the fault named
        _Row(metric, f"eval --metric {metric} --dets {{dets}} --gts {{gts}} --classes {{classes}} "
             "--dets-b {tmp}/absent.jsonl", 3, "^error: --dets-b applies to --metric confdiff only$",
             setup=_no_reads) for metric in ("voc", "coco", "confusion")],
    "test_eval_confdiff_without_second_run_exits_3": [
        _Row(None, "eval --metric confdiff --dets {dets} --gts {gts} --classes {classes}", 3,
             r"^error: --metric confdiff requires --dets-b \(", setup=_no_reads)],
    "test_eval_malformed_jsonl_exits_2": [
        _Row(None, "eval --metric voc --dets {tmp}/bad.jsonl --gts {gts}", 2,
             r"^error: {tmp}/bad\.jsonl line 1: .*\(byte offset 0\)$",
             {"bad.jsonl": '{"image_id": "a", "class": 1, "score": 0.5, "x1": 0}\n'})],
    "test_eval_unknown_metric_exits_3": [
        _Row(None, "eval --metric f-beta --dets {dets_ids} --gts {gts_ids}", 3,
             "invalid choice: 'f-beta'")],
    "test_eval_bad_record_exits_2_with_offset": [
        _Row(case, "eval --metric voc --dets {tmp}/bad.jsonl --gts {gts_ids}", 2,
             r"^error: {tmp}/bad\.jsonl line 2: .*\(byte offset %d\)$" % (len(_GOOD) + 1),
             {"bad.jsonl": b"%s\n%s\n" % (_GOOD, record)}) for case, record in (
            ("class-list", _GOOD.replace(b'"class": 1', b'"class": [0]')),
            ("class-fraction", _GOOD.replace(b'"class": 1', b'"class": 1.7')),
            ("class-negative", _GOOD.replace(b'"class": 1', b'"class": -1')),
            ("box-null", _GOOD.replace(b'"x1": 0', b'"x1": null')),
            ("score-text", _GOOD.replace(b"0.5", b'"hi"')),
            ("score-nan", _GOOD.replace(b"0.5", b"NaN")),
            ("score-infinity", _GOOD.replace(b"0.5", b"Infinity")),
            ("not-an-object", b"42"),
            ("box-infinity", _GOOD.replace(b'"x1": 0', b'"x1": -Infinity')),
            ("invalid-utf8", _GOOD.replace(b"im1", b"im\xff")),
            ("two-objects", _GOOD + b" " + _GOOD),
            ("deep-nesting", b"[" * 100000))],
    "test_eval_bad_ground_truth_exits_2": [
        _Row(case, "eval --metric voc --dets {dets_ids} --gts {tmp}/bad.jsonl", 2,
             r"^error: {tmp}/bad\.jsonl line 1: .*\(byte offset 0\)$",
             {"bad.jsonl": _GOOD_GT.replace(*change) + "\n"}) for case, change in (
            ("class-negative", ('"class": 1', '"class": -2')),
            ("difficult-string", ('"class": 1', '"class": 1, "difficult": "false"')),
            ("difficult-int", ('"class": 1', '"class": 1, "difficult": 0')),
            ("box-infinity", ('"x1": 0', '"x1": -Infinity')))],
    "test_eval_bad_threshold_exits_3": [
        _Row(f"{metric}-{case}",
             f"eval --metric {metric} --dets {{dets}} --gts {{gts}} --classes {{classes}} {flags}",
             3, flags.split()[0]) for metric in ("voc", "confusion") for case, flags in (
            ("iou-above-1", "--iou 1.5"), ("iou-negative", "--iou -1"), ("iou-zero", "--iou 0"),
            ("iou-nan", "--iou nan"), ("score-nan", "--score-thresh nan"),
            ("score-inf", "--score-thresh inf"))],
    # --------------------------------------------------------- analyze
    "test_analyze_similarity_names_a_malformed_heatmap_row": [
        _Row(case, "analyze --similarity {tmp}/good.csv {tmp}/bad.csv", 2,
             r"^error: {tmp}/bad\.csv: heatmap CSV .*\(byte offset %d\)$" % offset,
             {"good.csv": _HEATMAP, "bad.csv": data}) for case, data, offset in (
            ("blank-lines", b"\n\n\n", 0),
            ("empty", b"", 0),
            ("nan-count", _HEATMAP.replace(b"4.0,", b"nan,"), _ROW_2),
            ("negative-count", _HEATMAP.replace(b"4.0,", b"-1.0,"), _ROW_2),
            ("invalid-utf8", _HEATMAP.replace(b"4.0,", b"4.0\xff,"), _ROW_2),
            ("text-count", _HEATMAP.replace(b"4.0,", b"four,"), _ROW_2),
            ("underscore-count", _HEATMAP.replace(b"4.0,", b"1_0,"), _ROW_2),
            ("long-row", _HEATMAP.replace(b"4.0,1.0", b"4.0,1.0,2.0"), _ROW_2),
            ("short-row", _HEATMAP.replace(b"4.0,1.0", b"4.0"), _ROW_2),
            ("blank-row", _HEATMAP.replace(b"4.0,1.0\n", b"\n"), _ROW_2),
            ("decreasing-edges", _HEATMAP.replace(b"2.0,3.0", b"3.0,2.0"), 0),
            ("infinite-edge", _HEATMAP.replace(b"2.0,3.0", b"2.0,inf"), 0),
            ("one-edge", _HEATMAP.replace(b"1.0,2.0,3.0", b"1.0"), 0),
            ("bad-label", _HEATMAP.replace(b"y_edges", b"z_edges"), _HEATMAP.index(b"y_edges")),
            ("missing-row", _HEATMAP.replace(b"0.0,2.5\n", b""), len(_HEATMAP) - 8),
            ("extra-row", _HEATMAP + b"1.0,1.0\n", len(_HEATMAP)))],
    "test_analyze_missing_depth_file_exits_3": [
        _Row(None, "analyze --gts {gts_ids} --depth-dir {tmp}/none", 3, "im1", {"none": None})],
    "test_analyze_box_area_past_the_float_range_exits_3": [
        _Row(None, "analyze --gts {tmp}/huge.jsonl --depth-dir {depth_dir} --classes {classes}", 3,
             "axis range", {"huge.jsonl": [
                 {"image_id": "im1", "class": "chair", "x1": 0, "y1": 0, "x2": 1e200, "y2": 1e200},
                 {"image_id": "im1", "class": "chair", "x1": 10, "y1": 10, "x2": 50, "y2": 50}]})],
    "test_analyze_failure_writes_no_output": [
        # pearson_r fails after the heatmap is built: a constant depth has no spread
        _Row("constant-depth", "analyze --gts {tmp}/gts.jsonl --depth-dir {tmp}/depth", 3,
             "constant sequence", {"depth/im1.pfm": np.full((8, 8), 2.0), "gts.jsonl": [
                 {"image_id": "im1", "class": 1, "x1": 0, "y1": 0, "x2": 6, "y2": 6},
                 {"image_id": "im1", "class": 1, "x1": 2, "y1": 2, "x2": 4, "y2": 4}]})],
    "test_analyze_bins_are_checked_before_any_read": [
        _Row(None, "analyze --gts {gts_ids} --depth-dir {depth_dir} --bins 0", 3,
             "^error: --bins must be at least 1, got 0$", setup=_no_reads)],
    "test_analyze_similarity_of_a_mass_past_the_float_range_exits_3": [
        _Row(None, "analyze --similarity {tmp}/huge.csv {tmp}/huge.csv", 3, "overflow",
             {"huge.csv": b"x_edges,1.0,2.0,3.0\ny_edges,10.0,20.0\n1e308,1e308\n"})],
    "test_analyze_without_inputs_exits_3": [
        _Row(None, "analyze", 3, "^error: analyze needs --gts and --depth-dir ")],
    "test_analyze_names_a_malformed_depth_map": [
        _Row(None, "analyze --gts {gts_ids} --depth-dir {tmp}/depth", 2,
             r"^error: {tmp}/depth/im2\.pgm: raster truncated.* \(byte offset 40\)$",
             # a 16-bit PGM cut to 40 bytes
             {"depth/im1.pfm": np.full((9, 10), 2.0),
              "depth/im2.pgm": b"P5\n10 9\n65535\n".ljust(40, b"\0")})],
    # ----------------------------------------------------- entry point
    "test_numeric_options_take_ascii_decimals_only": [
        _Row(f"{argv.split()[0]}{option}-{case}", f"{argv} '{option.format(value)}'", 3,
             option.split("=")[0]) for argv, option in _NUMERIC_OPTIONS
        for case, value in (("underscore", "1_0"), ("inf", "inf"), ("nan", "nan"),
                            ("arabic-indic-digit", "\u0661"), ("padded", " 1"))],
    "test_usage_errors_exit_3": [
        _Row(case, argv, 3, message) for case, argv, message in (
            ("no-command", "", "required: command$"),
            ("unknown-command", "frobnicate", "invalid choice: 'frobnicate'"),
            ("missing-mode", "encode scene.pfm", "required: --mode$"),
            ("missing-dets", "eval --metric voc --gts g.jsonl", "required: --dets$"),
            ("text-integer", _ENCODE + " --k-neighbors abc",
             "argument --k-neighbors: invalid decimal_int value: 'abc'$"),
            ("removed-scale", _ENCODE + " --scale 600", "unrecognized arguments: --scale 600$"),
            ("removed-report", _VGG + " --report params",
             "unrecognized arguments: --report params$"))],
}

# each name above is a test of the module, its rows' ids the case ids
for _name, _rows in _CONTRACT.items():
    globals()[_name] = _contract_test(_rows)
