"""End-to-end command-line behavior: exit codes, artifacts, determinism."""
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_run import assert_contract, numpy_peak
from depth_scenes import dropout, floor_wall, write_cam
from depthkit import _kernels, analysis, cli, encoding, evaluation, geometry, netpbm
from eval_rows import write_jsonl


def _ramp_pfm(path):
    # 4x5 meters, one hole
    values = np.arange(20, dtype=np.float32).reshape(4, 5) / 4.0 + 1.0
    values[2, 2] = 0.0
    netpbm.write_pfm(str(path), values)
    return np.float64(values)


@pytest.fixture
def eval_files(tmp_path):
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps(["background", "chair", "table"]))
    gts = tmp_path / "gts.jsonl"
    write_jsonl(gts, [
        {"image_id": "im1", "class": "chair", "x1": 10, "y1": 10, "x2": 50, "y2": 50},
        {"image_id": "im1", "class": "table", "x1": 60, "y1": 10, "x2": 90, "y2": 40},
        {"image_id": "im2", "class": "chair", "x1": 20, "y1": 20, "x2": 70, "y2": 80},
        {"image_id": "im2", "class": "chair", "x1": 0, "y1": 0, "x2": 10, "y2": 10,
         "difficult": True},
    ])
    dets = tmp_path / "dets.jsonl"
    write_jsonl(dets, [
        {"image_id": "im1", "class": "chair", "score": 0.9,
         "x1": 12, "y1": 11, "x2": 49, "y2": 52},
        {"image_id": "im1", "class": "chair", "score": 0.8,
         "x1": 10, "y1": 10, "x2": 50, "y2": 50},
        {"image_id": "im1", "class": "table", "score": 0.7,
         "x1": 58, "y1": 12, "x2": 88, "y2": 42},
        {"image_id": "im2", "class": "chair", "score": 0.6,
         "x1": 25, "y1": 25, "x2": 65, "y2": 75},
        {"image_id": "im2", "class": "table", "score": 0.55,
         "x1": 0, "y1": 0, "x2": 30, "y2": 30},
    ])
    dets_b = tmp_path / "dets_b.jsonl"
    write_jsonl(dets_b, [
        {"image_id": "im1", "class": "chair", "score": 0.9,
         "x1": 12, "y1": 11, "x2": 49, "y2": 52},
        {"image_id": "im1", "class": "table", "score": 0.7,
         "x1": 58, "y1": 12, "x2": 88, "y2": 42},
        {"image_id": "im2", "class": "table", "score": 0.6,
         "x1": 25, "y1": 25, "x2": 65, "y2": 75},
    ])
    # numeric-class twins for runs that load no class table
    table = ["background", "chair", "table"]
    for src, dst in ((gts, tmp_path / "gts_ids.jsonl"),
                     (dets, tmp_path / "dets_ids.jsonl")):
        records = [json.loads(line) for line in src.read_text().splitlines()]
        for r in records:
            r["class"] = table.index(r["class"])
        write_jsonl(dst, records)
    return {"classes": str(classes), "gts": str(gts),
            "dets": str(dets), "dets_b": str(dets_b),
            "gts_ids": str(tmp_path / "gts_ids.jsonl"),
            "dets_ids": str(tmp_path / "dets_ids.jsonl")}


# ------------------------------------------------------------------ encode

def test_encode_gray_matches_library(tmp_path, capsys):
    src = tmp_path / "scene.pfm"
    values = _ramp_pfm(src)
    out = tmp_path / "out"
    rc = cli.main(["encode", str(src), "--mode", "gray",
                   "--dmin", "1.0", "--dmax", "6.0", "--out", str(out)])
    assert rc == 0
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
    rc = cli.main(["encode", str(src), "--mode", "jet",
                   "--dmin", "1.0", "--dmax", "6.0", "--out", str(tmp_path)])
    assert rc == 0
    rgb, _ = netpbm.read_ppm(str(tmp_path / "scene_jet.ppm"))
    depth = encoding.load_depth(str(src))
    gray = encoding.grayscale_encode(depth, 1.0, 6.0)
    assert np.array_equal(rgb, encoding.jet_encode(gray, depth.valid))


def test_encode_hdha_writes_stats_then_reuses_them(tmp_path):
    src = tmp_path / "room.pfm"
    netpbm.write_pfm(str(src), floor_wall()[0])
    cam_path = write_cam(tmp_path / "cam.json", 60, 80, 100.0)
    stats_path = tmp_path / "stats.json"

    rc = cli.main(["encode", str(src), "--mode", "hdha",
                   "--intrinsics", cam_path, "--stats", str(stats_path),
                   "--out", str(tmp_path / "a")])
    assert rc == 0
    assert stats_path.exists()
    first = (tmp_path / "a" / "room_hdha.ppm").read_bytes()

    # second run finds the stats file and applies it: identical output
    rc = cli.main(["encode", str(src), "--mode", "hdha",
                   "--intrinsics", cam_path, "--stats", str(stats_path),
                   "--out", str(tmp_path / "b")])
    assert rc == 0
    assert (tmp_path / "b" / "room_hdha.ppm").read_bytes() == first


def test_encode_hdha_stats_creation_encodes_each_map_once(tmp_path, monkeypatch):
    cam_path = write_cam(tmp_path / "cam.json", 60, 80, 100.0)
    srcs = []
    for name, cam_height, wall_z in (("c", 1.2, 6.0), ("a", 1.5, 4.0), ("b", 0.9, 5.0)):
        srcs.append(tmp_path / f"{name}.pfm")
        netpbm.write_pfm(str(srcs[-1]), floor_wall(cam_height=cam_height, wall_z=wall_z)[0])
    stats_path = tmp_path / "stats.json"

    real_encode = geometry.hdha_encode
    calls = []

    def counting_encode(*args, **kwargs):
        calls.append(1)
        return real_encode(*args, **kwargs)

    monkeypatch.setattr(geometry, "hdha_encode", counting_encode)
    rc = cli.main(["encode", *map(str, srcs), "--mode", "hdha",
                   "--intrinsics", cam_path, "--stats", str(stats_path),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert len(calls) == 3

    cam_obj = encoding.CameraIntrinsics.from_json(cam_path)
    images = [real_encode(encoding.load_depth(str(p)), cam_obj) for p in srcs]
    expected = encoding.compute_channel_stats(images)
    written = json.loads(stats_path.read_text())
    assert written == {"mean": list(expected.means), "std": list(expected.stds)}
    for src, image in zip(srcs, images):
        rgb, _ = netpbm.read_ppm(str(tmp_path / "out" / f"{src.stem}_hdha.ppm"))
        assert np.array_equal(rgb, encoding.hdha_to_rgb(image, stats=expected))


def test_encode_hdha_stats_failure_writes_no_images(tmp_path, capsys):
    # frontal walls at one constant depth have a constant disparity channel
    walls = [tmp_path / "wall1.pfm", tmp_path / "wall2.pfm"]
    for wall in walls:
        netpbm.write_pfm(str(wall), np.full((60, 80), 6.0))
    cam_path = write_cam(tmp_path / "cam.json", 60, 80, 100.0)
    stats_path = tmp_path / "stats.json"
    out = tmp_path / "out"
    rc = cli.main(["encode", *map(str, walls), "--mode", "hdha",
                   "--intrinsics", cam_path, "--stats", str(stats_path),
                   "--out", str(out)])
    assert rc == 3
    assert "constant channel" in capsys.readouterr().err
    assert not stats_path.exists()
    assert list(out.glob("*_hdha.ppm")) == []


def test_encode_hdha_stats_on_a_batch_with_no_valid_pixel(tmp_path):
    # no stats exist to compute, and none could change a byte of a zero image
    maps = [tmp_path / "a.pfm", tmp_path / "b.pfm"]
    for path in maps:
        netpbm.write_pfm(str(path), np.zeros((4, 4), dtype=np.float32))
    cam_path = write_cam(tmp_path / "cam.json", 4, 4, 4.0)
    stats_path = tmp_path / "o" / "s.json"
    rc = cli.main(["encode", *map(str, maps), "--mode", "hdha",
                   "--intrinsics", cam_path, "--stats", str(stats_path),
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    assert not stats_path.exists()
    for path in maps:
        rgb, _ = netpbm.read_ppm(str(tmp_path / "o" / f"{path.stem}_hdha.ppm"))
        assert rgb.shape == (4, 4, 3)
        assert not rgb.any()


def test_encode_hdha_accepts_fixed_gravity(tmp_path):
    src = tmp_path / "room.pfm"
    netpbm.write_pfm(str(src), floor_wall()[0])
    cam_path = write_cam(tmp_path / "cam.json", 60, 80, 100.0)
    rc = cli.main(["encode", str(src), "--mode", "hdha",
                   "--intrinsics", cam_path, "--gravity", "0,1,0",
                   "--out", str(tmp_path)])
    assert rc == 0
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


def test_encode_parameter_errors_exit_3(tmp_path, capsys):
    src = tmp_path / "scene.pfm"
    _ramp_pfm(src)
    cam_path = write_cam(tmp_path / "cam.json", 60, 80, 100.0)
    assert cli.main(["encode", str(src), "--mode", "gray"]) == 3
    assert "requires --dmin" in capsys.readouterr().err
    assert cli.main(["encode", str(src), "--mode", "sepia",
                     "--dmin", "1", "--dmax", "2"]) == 3
    assert cli.main(["encode", str(src), "--mode", "hdha"]) == 3
    assert "--intrinsics" in capsys.readouterr().err
    assert cli.main(["encode", str(src), "--mode", "hdha",
                     "--intrinsics", cam_path, "--gravity", "0,1"]) == 3
    assert "x,y,z" in capsys.readouterr().err


def _gravity_argv(tmp, gravity):
    """``encode --mode hdha --gravity=<gravity>`` of a small room into ``tmp/out``."""
    src = tmp / "room.pfm"
    netpbm.write_pfm(str(src), floor_wall(12, 16, fy=20.0, cy=5.5)[0])
    cam = write_cam(tmp / "cam.json", 12, 16, 20.0)
    return ["encode", str(src), "--mode", "hdha", "--intrinsics", cam, f"--gravity={gravity}",
            "--out", str(tmp / "out")]


@pytest.mark.parametrize("gravity", ["nan,0,0", "inf,1,0", "0,-inf,1", "1e308,1e308,0", "0,0,0"])
def test_encode_non_finite_gravity_exits_3(tmp_path, monkeypatch, gravity):
    # refused before any map is read: no normals call, no --out directory
    calls = []
    monkeypatch.setattr(_kernels, "normals_from_points", lambda *args: calls.append(args))
    err = assert_contract(_gravity_argv(tmp_path, gravity), (3,))[1]
    assert "gravity" in err and "finite" in err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_encode_empty_gravity_exits_3(tmp_path):
    err = assert_contract(_gravity_argv(tmp_path, ""), (3,))[1]
    assert "--gravity needs 'x,y,z', got ''" in err
    assert not (tmp_path / "out").exists()


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
    assert_contract(_gravity_argv(tmp_path_factory.mktemp("gravity"), gravity), (0, 3))


@pytest.mark.parametrize("gravity", ["1_0,0,0", "0,\u0661,0", " 0 ,1,0"],
                         ids=["underscore", "arabic-indic-digit", "padded"])
def test_encode_gravity_components_are_ascii_decimals(tmp_path, gravity):
    err = assert_contract(_gravity_argv(tmp_path, gravity), (3,))[1]
    assert "--gravity needs finite decimal components" in err
    assert not (tmp_path / "out").exists()


def test_encode_missing_file_exits_3(tmp_path, capsys):
    rc = cli.main(["encode", str(tmp_path / "absent.pfm"), "--mode", "gray",
                   "--dmin", "1", "--dmax", "2", "--out", str(tmp_path)])
    assert rc == 3
    assert "missing file" in capsys.readouterr().err


def test_encode_corrupt_file_exits_2_with_offset(tmp_path, capsys):
    bad = tmp_path / "bad.pfm"
    bad.write_bytes(b"Pf\n3 3\n-1.0\n\x00\x01")
    rc = cli.main(["encode", str(bad), "--mode", "gray",
                   "--dmin", "1", "--dmax", "2", "--out", str(tmp_path)])
    assert rc == 2
    assert "byte offset" in capsys.readouterr().err


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


def test_encode_batch_stats_need_every_map(tmp_path, capsys):
    good, cut = tmp_path / "good.pfm", tmp_path / "cut.pfm"
    netpbm.write_pfm(str(good), floor_wall(12, 16, fy=20.0, cy=5.5)[0])
    cut.write_bytes(good.read_bytes()[:30])
    cam_path = write_cam(tmp_path / "cam.json", 12, 16, 20.0)
    out = tmp_path / "out"
    rc = cli.main(["encode", str(good), str(cut), "--mode", "hdha", "--intrinsics", cam_path,
                   "--stats", str(tmp_path / "stats.json"), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: {cut}: ")
    assert captured.out == ""
    assert not (tmp_path / "stats.json").exists()
    assert list(out.iterdir()) == []


def test_encode_inputs_sharing_an_output_exit_3_before_any_read(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, second = tmp_path / "a" / "x.pfm", tmp_path / "b" / "x.pfm"
    _ramp_pfm(first)
    # a truncated map would exit 2 if it were read
    second.write_bytes(first.read_bytes()[:30])
    out = tmp_path / "out"
    rc = cli.main(["encode", str(first), str(second), "--mode", "gray", "--dmin", "1",
                   "--dmax", "6", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 3
    shared = out / "x_gray.pgm"
    assert captured.err == f"error: inputs {first} and {second} would both write {shared}\n"
    assert captured.out == ""
    assert not out.exists()


def _unreadable_cases(tmp_path, eval_files):
    """(argv, the directory given where a file belongs) per input kind."""
    directory = tmp_path / "dir.pfm"
    directory.mkdir()
    depth_dir = tmp_path / "depth"
    (depth_dir / "im1.pfm").mkdir(parents=True)
    return {
        "similarity": (["analyze", "--similarity", str(directory), str(directory)], directory),
        "eval": (["eval", "--metric", "voc", "--dets", eval_files["dets_ids"],
                  "--gts", str(directory), "--out", str(tmp_path / "out")], directory),
        "depth-dir": (["analyze", "--gts", eval_files["gts_ids"], "--depth-dir", str(depth_dir),
                       "--out", str(tmp_path / "out")], depth_dir / "im1.pfm"),
    }


@pytest.mark.parametrize("case", ["similarity", "eval", "depth-dir"])
def test_unreadable_input_exits_3_naming_it(tmp_path, eval_files, case):
    argv, path = _unreadable_cases(tmp_path, eval_files)[case]
    err = assert_contract(argv, (3,))[1]
    assert err.startswith(f"error: {path}: "), err


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
    rc = cli.main(["arch", "--variant", "baseline", "--backbone", "vgg16",
                   "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "baseline / vgg16: trainable=136,818,079 fixed=260,160" in out
    assert "head input: 300x4096" in out
    for suffix in (".dot", "_params.csv", "_shapes.csv"):
        path = tmp_path / f"baseline_vgg16{suffix}"
        assert path.exists(), suffix
        assert f"wrote {path}" in out


def test_arch_artifacts_are_byte_identical_across_runs(tmp_path):
    for sub in ("a", "b"):
        cli.main(["arch", "--variant", "proc-EC", "--backbone", "vgg16",
                  "--out", str(tmp_path / sub)])
    for name in ("proc-EC_vgg16.dot", "proc-EC_vgg16_params.csv",
                 "proc-EC_vgg16_shapes.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


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


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_arch_seed_outside_64_bits_exits_3_writing_nothing(tmp_path, capsys, seed):
    # -1 would otherwise draw the weights of 2^64 - 1
    out = tmp_path / "out"
    rc = cli.main(["arch", "--variant", "baseline", "--backbone", "vgg16", "--input", "64x64",
                   "--forward", "--seed", str(seed), "--out", str(out)])
    assert rc == 3
    assert f"--seed must be in [0, 2^64 - 1], got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_arch_seed_range_ends_are_accepted(tmp_path, capsys):
    # the input filler is seeded with (seed + 1) mod 2^64, so the top seed wraps to 0
    for seed in (0, 2**64 - 1):
        rc = cli.main(["arch", "--variant", "baseline", "--backbone", "vgg16", "--input", "32x32",
                       "--rois", "1", "--forward", "--seed", str(seed), "--out", str(tmp_path)])
        assert rc == 0
        assert "forward det:scores: shape=1x21 " in capsys.readouterr().out


def test_arch_parameter_errors_exit_3(tmp_path, capsys):
    assert cli.main(["arch", "--variant", "mystery", "--backbone", "vgg16",
                     "--out", str(tmp_path)]) == 3
    assert cli.main(["arch", "--variant", "baseline", "--backbone", "vgg16",
                     "--input", "600by800", "--out", str(tmp_path)]) == 3
    assert "600x800" in capsys.readouterr().err


def test_arch_input_too_small_exits_3(tmp_path, capsys):
    # an 8x8 input collapses vgg16's fourth pooling stage to zero extent
    rc = cli.main(["arch", "--variant", "baseline", "--backbone", "vgg16",
                   "--input", "8x8", "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "--input" in err and "rgb_bb/pool4" in err
    assert "internal error" not in err


def test_arch_internal_invariant_exits_4(tmp_path, capsys, monkeypatch):
    def disagree(graph, inputs, seed=0):
        raise cli.StructuralError("executor produced 1x1 at det:scores, propagation said 4x21")

    monkeypatch.setattr(cli, "execute_forward", disagree)
    rc = cli.main(["arch", "--variant", "baseline", "--backbone", "vgg16",
                   "--input", "64x64", "--rois", "4", "--forward", "--out", str(tmp_path)])
    assert rc == 4
    assert "internal error" in capsys.readouterr().err


def test_arch_forward_feeds_rois_rows(tmp_path, capsys):
    rc = cli.main(["arch", "--variant", "baseline", "--backbone", "vgg16",
                   "--input", "64x64", "--rois", "7", "--forward", "--out", str(tmp_path)])
    assert rc == 0
    assert "forward det:scores: shape=7x21 " in capsys.readouterr().out


@pytest.mark.parametrize("variant", ["baseline", "hdha-split"])
def test_arch_depth_channels_without_single_depth_input_exits_3(tmp_path, capsys, variant):
    rc = cli.main(["arch", "--variant", variant, "--backbone", "vgg16",
                   "--depth-channels", "5", "--out", str(tmp_path)])
    assert rc == 3
    assert "depth_channels" in capsys.readouterr().err


# -------------------------------------------------------------------- eval

def test_eval_voc_matches_library(tmp_path, capsys, eval_files):
    rc = cli.main(["eval", "--metric", "voc", "--dets", eval_files["dets"],
                   "--gts", eval_files["gts"], "--classes", eval_files["classes"],
                   "--out", str(tmp_path)])
    assert rc == 0
    classes = evaluation.load_classes(eval_files["classes"])
    dets = evaluation.load_detections(eval_files["dets"], classes)
    gts = evaluation.load_groundtruth(eval_files["gts"], classes)
    map_value, per_class = evaluation.mean_ap(dets, gts, [1, 2], 0.5, False)
    expected = evaluation.ap_csv(per_class, classes, map_value)
    assert (tmp_path / "voc_ap.csv").read_text() == expected
    assert f"mAP: {map_value:.6f}" in capsys.readouterr().out


def test_eval_voc_use_difficult_changes_the_score(tmp_path, eval_files):
    args = ["eval", "--metric", "voc", "--dets", eval_files["dets"],
            "--gts", eval_files["gts"], "--classes", eval_files["classes"]]
    cli.main(args + ["--out", str(tmp_path / "plain")])
    cli.main(args + ["--use-difficult", "--out", str(tmp_path / "hard")])
    plain = (tmp_path / "plain" / "voc_ap.csv").read_text()
    hard = (tmp_path / "hard" / "voc_ap.csv").read_text()
    assert plain != hard  # the difficult chair now counts as a miss


def test_eval_coco_matches_library(tmp_path, capsys, eval_files):
    rc = cli.main(["eval", "--metric", "coco", "--dets", eval_files["dets"],
                   "--gts", eval_files["gts"], "--classes", eval_files["classes"],
                   "--out", str(tmp_path)])
    assert rc == 0
    classes = evaluation.load_classes(eval_files["classes"])
    dets = evaluation.load_detections(eval_files["dets"], classes)
    gts = evaluation.load_groundtruth(eval_files["gts"], classes)
    summary = evaluation.coco_ap(dets, gts, [1, 2])
    assert (tmp_path / "coco_ap.csv").read_text() == evaluation.coco_csv(summary)
    assert f"AP: {summary['ap']:.6f}" in capsys.readouterr().out


def test_eval_confusion_matches_library(tmp_path, capsys, eval_files):
    rc = cli.main(["eval", "--metric", "confusion", "--dets", eval_files["dets"],
                   "--gts", eval_files["gts"], "--classes", eval_files["classes"],
                   "--out", str(tmp_path)])
    assert rc == 0
    classes = evaluation.load_classes(eval_files["classes"])
    dets = evaluation.load_detections(eval_files["dets"], classes)
    gts = evaluation.load_groundtruth(eval_files["gts"], classes)
    cm = evaluation.confusion_matrix(dets, gts, classes, 0.5, 0.5)
    assert (tmp_path / "confusion.csv").read_text() == cm.to_csv()
    out = capsys.readouterr().out
    assert f"matched={int(cm.counts.sum())} missed={int(cm.fn.sum())}" in out


def test_eval_class_name_that_cannot_be_written_exits_2(tmp_path, capsys, eval_files):
    # a lone surrogate decodes from its JSON escape but has no UTF-8 form
    classes = tmp_path / "surrogate.json"
    classes.write_text(json.dumps(["background", "chair", "table", "\ud800"]))
    out = tmp_path / "out"
    rc = cli.main(["eval", "--metric", "confusion", "--dets", eval_files["dets"],
                   "--gts", eval_files["gts"], "--classes", str(classes), "--out", str(out)])
    assert rc == 2
    assert "surrogate.json" in capsys.readouterr().err
    assert not (out / "confusion.csv").exists()


def test_eval_confusion_requires_class_table(tmp_path, capsys, eval_files):
    rc = cli.main(["eval", "--metric", "confusion", "--dets", eval_files["dets_ids"],
                   "--gts", eval_files["gts_ids"], "--out", str(tmp_path)])
    assert rc == 3
    assert "--classes" in capsys.readouterr().err


def test_eval_confdiff_prints_table_and_writes_csv(tmp_path, capsys, eval_files):
    rc = cli.main(["eval", "--metric", "confdiff", "--dets", eval_files["dets"],
                   "--dets-b", eval_files["dets_b"], "--gts", eval_files["gts"],
                   "--classes", eval_files["classes"], "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert (tmp_path / "confusion_diff.csv").exists()
    assert "chair" in out and "wrote" in out


def test_eval_confdiff_without_second_run_exits_3(tmp_path, capsys, eval_files):
    rc = cli.main(["eval", "--metric", "confdiff", "--dets", eval_files["dets"],
                   "--gts", eval_files["gts"], "--classes", eval_files["classes"],
                   "--out", str(tmp_path)])
    assert rc == 3
    assert "--dets-b" in capsys.readouterr().err


def test_eval_malformed_jsonl_exits_2(tmp_path, capsys, eval_files):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"image_id": "a", "class": 1, "score": 0.5, "x1": 0}\n')
    rc = cli.main(["eval", "--metric", "voc", "--dets", str(bad),
                   "--gts", eval_files["gts"], "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "byte offset" in err


def test_eval_unknown_metric_exits_3(tmp_path, eval_files):
    assert cli.main(["eval", "--metric", "f-beta", "--dets", eval_files["dets_ids"],
                     "--gts", eval_files["gts_ids"], "--out", str(tmp_path)]) == 3


_GOOD_DET = '{"image_id": "im1", "class": 1, "score": 0.5, "x1": 0, "y1": 0, "x2": 9, "y2": 9}'


@pytest.mark.parametrize("record", [
    '{"image_id": "im1", "class": [0], "score": 0.5, "x1": 0, "y1": 0, "x2": 9, "y2": 9}',
    '{"image_id": "im1", "class": 1.7, "score": 0.5, "x1": 0, "y1": 0, "x2": 9, "y2": 9}',
    '{"image_id": "im1", "class": -1, "score": 0.5, "x1": 0, "y1": 0, "x2": 9, "y2": 9}',
    '{"image_id": "im1", "class": 1, "score": 0.5, "x1": null, "y1": 0, "x2": 9, "y2": 9}',
    '{"image_id": "im1", "class": 1, "score": "hi", "x1": 0, "y1": 0, "x2": 9, "y2": 9}',
    '{"image_id": "im1", "class": 1, "score": NaN, "x1": 0, "y1": 0, "x2": 9, "y2": 9}',
    '{"image_id": "im1", "class": 1, "score": Infinity, "x1": 0, "y1": 0, "x2": 9, "y2": 9}',
    '42',
    '{"image_id": "im1", "class": 1, "score": 0.5, "x1": -Infinity, "y1": 0, "x2": 9, "y2": 9}',
    _GOOD_DET.encode().replace(b"im1", b"im\xff"),
    _GOOD_DET + " " + _GOOD_DET,
    "[" * 100000,
], ids=["class-list", "class-fraction", "class-negative", "box-null", "score-text",
        "score-nan", "score-infinity", "not-an-object", "box-infinity", "invalid-utf8",
        "two-objects", "deep-nesting"])
def test_eval_bad_record_exits_2_with_offset(tmp_path, capsys, eval_files, record):
    bad = tmp_path / "bad.jsonl"
    if isinstance(record, str):
        record = record.encode()
    bad.write_bytes(_GOOD_DET.encode() + b"\n" + record + b"\n")
    rc = cli.main(["eval", "--metric", "voc", "--dets", str(bad),
                   "--gts", eval_files["gts_ids"], "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 2" in err and f"(byte offset {len(_GOOD_DET) + 1})" in err
    assert not (tmp_path / "voc_ap.csv").exists()


@pytest.mark.parametrize("record", [
    '{"image_id": "im1", "class": -2, "x1": 0, "y1": 0, "x2": 9, "y2": 9}',
    '{"image_id": "im1", "class": 1, "difficult": "false", "x1": 0, "y1": 0, "x2": 9, "y2": 9}',
    '{"image_id": "im1", "class": 1, "difficult": 0, "x1": 0, "y1": 0, "x2": 9, "y2": 9}',
    '{"image_id": "im1", "class": 1, "x1": -Infinity, "y1": 0, "x2": 9, "y2": 9}',
], ids=["class-negative", "difficult-string", "difficult-int", "box-infinity"])
def test_eval_bad_ground_truth_exits_2(tmp_path, capsys, eval_files, record):
    bad = tmp_path / "gts.jsonl"
    bad.write_text(record + "\n")
    rc = cli.main(["eval", "--metric", "voc", "--dets", eval_files["dets_ids"],
                   "--gts", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "(byte offset 0)" in capsys.readouterr().err


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


@pytest.mark.parametrize("flags", [
    ["--iou", "1.5"], ["--iou", "-1"], ["--iou", "0"], ["--iou", "nan"],
    ["--score-thresh", "nan"], ["--score-thresh", "inf"],
], ids=["iou-above-1", "iou-negative", "iou-zero", "iou-nan", "score-nan", "score-inf"])
@pytest.mark.parametrize("metric", ["voc", "confusion"])
def test_eval_bad_threshold_exits_3(tmp_path, capsys, eval_files, flags, metric):
    rc = cli.main(["eval", "--metric", metric, "--dets", eval_files["dets"],
                   "--gts", eval_files["gts"], "--classes", eval_files["classes"],
                   *flags, "--out", str(tmp_path)])
    assert rc == 3
    assert flags[0] in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_eval_iou_of_exactly_one_is_accepted(tmp_path, eval_files):
    rc = cli.main(["eval", "--metric", "voc", "--dets", eval_files["dets"],
                   "--gts", eval_files["gts"], "--classes", eval_files["classes"],
                   "--iou", "1", "--out", str(tmp_path)])
    assert rc == 0


# ----------------------------------------------------------------- analyze

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


def test_analyze_writes_samples_and_heatmap(tmp_path, capsys, analyze_files):
    out = tmp_path / "stats"
    rc = cli.main(["analyze", "--gts", analyze_files["gts"],
                   "--depth-dir", analyze_files["depth_dir"],
                   "--classes", analyze_files["classes"],
                   "--bins", "5", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("samples=4 pearson_r=")
    for name in ("samples.csv", "heatmap.csv", "heatmap.pgm"):
        assert (out / name).exists(), name
    hm = analysis.parse_heatmap_csv((out / "heatmap.csv").read_bytes())
    assert hm.counts.shape == (5, 5)
    assert hm.total == 4
    # samples.csv names classes through the table
    assert "chair" in (out / "samples.csv").read_text()


def test_analyze_similarity_of_a_heatmap_with_itself(tmp_path, capsys, analyze_files):
    out = tmp_path / "stats"
    cli.main(["analyze", "--gts", analyze_files["gts"],
              "--depth-dir", analyze_files["depth_dir"],
              "--classes", analyze_files["classes"], "--out", str(out)])
    capsys.readouterr()
    hm_path = str(out / "heatmap.csv")
    rc = cli.main(["analyze", "--similarity", hm_path, hm_path])
    assert rc == 0
    assert capsys.readouterr().out == "similarity: 1.000000\n"


_HEATMAP = b"x_edges,1.0,2.0,3.0\ny_edges,10.0,20.0,30.0\n4.0,1.0\n0.0,2.5\n"
_ROW_2 = _HEATMAP.index(b"4.0")


@pytest.mark.parametrize("data, offset", [
    (b"\n\n\n", 0),
    (b"", 0),
    (_HEATMAP.replace(b"4.0,", b"nan,"), _ROW_2),
    (_HEATMAP.replace(b"4.0,", b"-1.0,"), _ROW_2),
    (_HEATMAP.replace(b"4.0,", b"4.0\xff,"), _ROW_2),
    (_HEATMAP.replace(b"4.0,", b"four,"), _ROW_2),
    (_HEATMAP.replace(b"4.0,", b"1_0,"), _ROW_2),
    (_HEATMAP.replace(b"4.0,1.0", b"4.0,1.0,2.0"), _ROW_2),
    (_HEATMAP.replace(b"4.0,1.0", b"4.0"), _ROW_2),
    (_HEATMAP.replace(b"4.0,1.0\n", b"\n"), _ROW_2),
    (_HEATMAP.replace(b"2.0,3.0", b"3.0,2.0"), 0),
    (_HEATMAP.replace(b"2.0,3.0", b"2.0,inf"), 0),
    (_HEATMAP.replace(b"1.0,2.0,3.0", b"1.0"), 0),
    (_HEATMAP.replace(b"y_edges", b"z_edges"), _HEATMAP.index(b"y_edges")),
    (_HEATMAP.replace(b"0.0,2.5\n", b""), len(_HEATMAP) - len(b"0.0,2.5\n")),
    (_HEATMAP + b"1.0,1.0\n", len(_HEATMAP)),
], ids=["blank-lines", "empty", "nan-count", "negative-count", "invalid-utf8", "text-count",
        "underscore-count", "long-row", "short-row", "blank-row", "decreasing-edges",
        "infinite-edge", "one-edge", "bad-label", "missing-row", "extra-row"])
def test_analyze_similarity_names_a_malformed_heatmap_row(tmp_path, capsys, data, offset):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_bytes(_HEATMAP)
    bad.write_bytes(data)
    rc = cli.main(["analyze", "--similarity", str(good), str(bad)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith(f"error: {bad}: heatmap CSV ")
    assert err.endswith(f"(byte offset {offset})\n")


def test_analyze_similarity_reads_crlf_rows(tmp_path, capsys):
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_bytes(_HEATMAP)
    crlf.write_bytes(_HEATMAP.replace(b"\n", b"\r\n"))
    assert cli.main(["analyze", "--similarity", str(lf), str(crlf)]) == 0
    assert capsys.readouterr().out == "similarity: 1.000000\n"


def test_analyze_missing_depth_file_exits_3(tmp_path, capsys, eval_files):
    empty = tmp_path / "nodepth"
    empty.mkdir()
    rc = cli.main(["analyze", "--gts", eval_files["gts_ids"],
                   "--depth-dir", str(empty), "--out", str(tmp_path)])
    assert rc == 3
    assert "im1" in capsys.readouterr().err


def test_analyze_box_area_past_the_float_range_exits_3(tmp_path, capsys, analyze_files):
    gts = tmp_path / "huge.jsonl"
    write_jsonl(gts, [
        {"image_id": "im1", "class": "chair", "x1": 0, "y1": 0, "x2": 1e200, "y2": 1e200},
        {"image_id": "im1", "class": "chair", "x1": 10, "y1": 10, "x2": 50, "y2": 50},
    ])
    out = tmp_path / "stats"
    rc = cli.main(["analyze", "--gts", str(gts), "--depth-dir", analyze_files["depth_dir"],
                   "--classes", analyze_files["classes"], "--out", str(out)])
    assert rc == 3
    assert "axis range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("values, x2, message", [
    (np.full((8, 8), 2.0), 6.0, "constant sequence"),
    (np.arange(64.0).reshape(8, 8), 1e154, "overflow"),
], ids=["constant-depth", "area-squared-past-float-range"])
def test_analyze_failure_writes_no_output(tmp_path, values, x2, message):
    # pearson_r fails after the heatmap is built: one box of about 1e308
    # leaves the axes finite, but not the sums of squares
    (tmp_path / "depth").mkdir()
    netpbm.write_pfm(str(tmp_path / "depth" / "im1.pfm"), values.astype(np.float32))
    write_jsonl(tmp_path / "gts.jsonl", [
        {"image_id": "im1", "class": 1, "x1": 0, "y1": 0, "x2": x2, "y2": x2},
        {"image_id": "im1", "class": 1, "x1": 2, "y1": 2, "x2": 4, "y2": 4}])
    out = tmp_path / "stats"
    err = assert_contract(["analyze", "--gts", str(tmp_path / "gts.jsonl"), "--depth-dir",
                           str(tmp_path / "depth"), "--out", str(out)], (3,))[1]
    assert message in err
    assert not out.exists()


def test_analyze_similarity_of_a_mass_past_the_float_range_exits_3(tmp_path):
    heatmap = tmp_path / "huge.csv"
    heatmap.write_bytes(b"x_edges,1.0,2.0,3.0\ny_edges,10.0,20.0\n1e308,1e308\n")
    err = assert_contract(["analyze", "--similarity", str(heatmap), str(heatmap)], (3,))[1]
    assert "overflow" in err


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


def test_analyze_without_inputs_exits_3(tmp_path, capsys):
    assert cli.main(["analyze", "--out", str(tmp_path)]) == 3
    assert "--gts" in capsys.readouterr().err


def test_analyze_names_a_malformed_depth_map(tmp_path, capsys, analyze_files):
    bad = tmp_path / "depth" / "im2.pgm"
    bad.write_bytes(bad.read_bytes()[:40])
    rc = cli.main(["analyze", "--gts", analyze_files["gts_ids"],
                   "--depth-dir", analyze_files["depth_dir"], "--out", str(tmp_path / "stats")])
    assert rc == 2
    assert re.fullmatch(rf"error: {re.escape(str(bad))}: raster truncated.* \(byte offset 40\)\n",
                        capsys.readouterr().err)


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


def test_encode_stats_memory_is_bounded_by_the_maps(tmp_path):
    # two VGA floor/wall maps with dropout holes, encoded one at a time
    # (each map's chunks across the pool) and held for the stats: about
    # 29 MiB of numpy allocations; the two maps encoded at once, each
    # holding its point grid through the normals kernel, took about
    # 55 MiB
    rng = np.random.default_rng(4)
    maps = []
    for name, cam_height in (("a", 1.2), ("b", 1.5)):
        depth = floor_wall(480, 640, cam_height, fy=500.0, cy=239.5)[0]
        maps.append(tmp_path / f"{name}.pfm")
        netpbm.write_pfm(str(maps[-1]), dropout(depth, rng, 40, (0, 440), (30, 40), 0.05))
    argv = ["encode", *map(str, maps), "--mode", "hdha", "--intrinsics",
            write_cam(tmp_path / "cam.json", 480, 640, 500.0),
            "--stats", str(tmp_path / "stats.json"), "--out", str(tmp_path / "out")]
    peak = numpy_peak(assert_contract, argv, (0,))[1]
    assert (tmp_path / "stats.json").exists()
    assert peak < 36 * 2**20, peak


# ------------------------------------------------------------ entry point

_ENCODE = ["encode", "scene.pfm", "--mode", "gray", "--dmin", "1", "--dmax", "6"]
_ARCH = ["arch", "--variant", "raw-EC", "--backbone", "vgg16", "--input", "64x64", "--rois", "4",
         "--forward"]
_EVAL = ["eval", "--metric", "confusion", "--dets", "d.jsonl", "--gts", "g.jsonl",
         "--classes", "c.json"]
_NUMERIC_OPTIONS = [
    (_ENCODE, "--dmin", "{}"), (_ENCODE, "--dmax", "{}"), (_ENCODE, "--k-neighbors", "{}"),
    (_ARCH, "--classes", "{}"), (_ARCH, "--rois", "{}"), (_ARCH, "--depth-channels", "{}"),
    (_ARCH, "--seed", "{}"), (_ARCH, "--input", "{}x64"), (_ARCH, "--input", "64x{}"),
    (_EVAL, "--iou", "{}"), (_EVAL, "--score-thresh", "{}"),
    (["analyze", "--gts", "g.jsonl", "--depth-dir", "depth"], "--bins", "{}"),
]


@pytest.mark.parametrize("value", ["1_0", "inf", "nan", "\u0661", " 1"],
                         ids=["underscore", "inf", "nan", "arabic-indic-digit", "padded"])
@pytest.mark.parametrize("argv, option, form", _NUMERIC_OPTIONS,
                         ids=[f"{argv[0]}{opt}={form}" for argv, opt, form in _NUMERIC_OPTIONS])
def test_numeric_options_take_ascii_decimals_only(tmp_path, argv, option, form, value):
    out = tmp_path / "out"
    err = assert_contract([*argv, f"{option}={form.format(value)}", "--out", str(out)], (3,))[1]
    assert option in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    [], ["frobnicate"], ["encode", "scene.pfm"], ["eval", "--metric", "voc", "--gts", "g.jsonl"],
    [*_ENCODE, "--k-neighbors", "abc"], [*_ENCODE, "--scale", "600"],
    ["arch", "--variant", "baseline", "--backbone", "vgg16", "--report", "params"],
], ids=["no-command", "unknown-command", "missing-mode", "missing-dets", "text-integer",
        "removed-scale", "removed-report"])
def test_usage_errors_exit_3(tmp_path, argv):
    assert_contract([*argv, "--out", str(tmp_path / "out")] if argv else argv, (3,))
    assert not (tmp_path / "out").exists()


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
