"""Golden freeze of every ``depthkit`` subcommand, byte for byte.

Each case runs the CLI in process and hashes its exit code, its stdout
(with the output directory replaced by ``<out>`` and the work directory
by ``<work>``) and every file it wrote.  The digests live in
``tests/golden/<command>.json``: ``encode`` (gray, jet and hdha over a
PFM and a 16-bit PGM map, hdha plain, with a smaller window, with
stats computed then applied, and with a fixed gravity), ``analyze``
(two builds and their similarity), ``eval`` (every metric) and
``arch`` (every variant and backbone at the default input, plus three
small seeded forwards); a refactor must leave all of them unchanged.
After an intended output change, regenerate them with::

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from depthkit import cli, netpbm
from depthkit.arch import BACKBONES, VARIANTS

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
GOLDEN_DIR = os.path.join(HERE, "golden")

_CLASSES = ["background", "person", "car", "chair", "bottle"]
# box sides spanning the three size buckets, with the bucket edges
# 32x32 and 96x96 (areas 32^2 and 96^2) hit exactly
_SIDES = (6, 12, 20, 31, 32, 33, 50, 80, 95, 96, 97, 140, 220)


def _write_jsonl(path, records):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def _box(rng, w, h):
    x1, y1 = (int(v) for v in rng.integers(0, 300, 2))
    return {"x1": x1, "y1": y1, "x2": x1 + w, "y2": y1 + h}


def _jitter(rng, box):
    j = [int(v) for v in rng.integers(-4, 5, 4)]
    out = {"x1": box["x1"] + j[0], "y1": box["y1"] + j[1],
           "x2": box["x2"] + j[2], "y2": box["y2"] + j[3]}
    if out["x2"] <= out["x1"] or out["y2"] <= out["y1"]:
        return dict(box)
    return out


def _corpus(directory):
    """Seeded corpus with score ties, duplicate detections, difficult
    boxes and ground truth in every size bucket; two detection runs."""
    rng = np.random.default_rng(20261017)
    gts, runs = [], ([], [])
    for i in range(24):
        image_id = f"im{i:02d}"
        for _ in range(int(rng.integers(2, 9))):
            cls = _CLASSES[int(rng.integers(1, len(_CLASSES)))]
            w = int(rng.choice(_SIDES))
            h = w if rng.random() < 0.4 else int(rng.choice(_SIDES))
            box = _box(rng, w, h)
            gt = {"image_id": image_id, "class": cls, **box}
            if rng.random() < 0.15:
                gt["difficult"] = True
            gts.append(gt)
            for run in runs:
                if rng.random() < 0.75:
                    # one-decimal scores make ties across images common
                    score = round(float(rng.integers(1, 10)) / 10, 1)
                    label = cls if rng.random() < 0.85 else _CLASSES[int(rng.integers(1, 5))]
                    det = {"image_id": image_id, "class": label, "score": score,
                           **_jitter(rng, box)}
                    run.append(det)
                    if rng.random() < 0.2:
                        run.append(dict(det))  # exact duplicate
        for run in runs:
            for _ in range(int(rng.integers(0, 4))):
                w, h = (int(v) for v in rng.choice(_SIDES, 2))
                run.append({"image_id": image_id,
                            "class": _CLASSES[int(rng.integers(1, len(_CLASSES)))],
                            "score": round(float(rng.integers(1, 10)) / 10, 1),
                            **_box(rng, w, h)})
    paths = {"classes": os.path.join(directory, "classes.json")}
    with open(paths["classes"], "w") as fh:
        json.dump(_CLASSES, fh)
    for name, records in (("gts", gts), ("dets", runs[0]), ("dets_b", runs[1])):
        paths[name] = os.path.join(directory, f"{name}.jsonl")
        _write_jsonl(paths[name], records)
        # numeric-class twins for runs that load no class table
        paths[f"{name}_ids"] = os.path.join(directory, f"{name}_ids.jsonl")
        _write_jsonl(paths[f"{name}_ids"],
                     [{**r, "class": _CLASSES.index(r["class"])} for r in records])
    return paths


def _fixture_paths():
    return {"classes": os.path.join(FIXTURES, "classes.json"),
            "gts": os.path.join(FIXTURES, "gts.jsonl"),
            "dets": os.path.join(FIXTURES, "dets_baseline.jsonl"),
            "dets_b": os.path.join(FIXTURES, "dets_withdepth.jsonl")}


# (name, corpus, argv after "eval", with {key} naming a corpus file)
_NAMED = ["--dets", "{dets}", "--gts", "{gts}", "--classes", "{classes}"]
CASES = [
    ("fixtures-voc", "fixtures", ["--metric", "voc", *_NAMED]),
    ("fixtures-coco", "fixtures", ["--metric", "coco", *_NAMED]),
    ("fixtures-confusion", "fixtures", ["--metric", "confusion", *_NAMED]),
    ("fixtures-confdiff", "fixtures", ["--metric", "confdiff", "--dets-b", "{dets_b}", *_NAMED]),
    ("corpus-voc", "corpus", ["--metric", "voc", *_NAMED]),
    ("corpus-voc-difficult-iou07", "corpus",
     ["--metric", "voc", "--use-difficult", "--iou", "0.7", *_NAMED]),
    ("corpus-voc-ids", "corpus", ["--metric", "voc", "--dets", "{dets_ids}", "--gts", "{gts_ids}"]),
    ("corpus-coco", "corpus", ["--metric", "coco", *_NAMED]),
    ("corpus-coco-run-b", "corpus",
     ["--metric", "coco", "--dets", "{dets_b}", "--gts", "{gts}", "--classes", "{classes}"]),
    ("corpus-confusion", "corpus", ["--metric", "confusion", *_NAMED]),
    ("corpus-confusion-loose", "corpus",
     ["--metric", "confusion", "--iou", "0.3", "--score-thresh", "0.2", *_NAMED]),
    ("corpus-confdiff", "corpus", ["--metric", "confdiff", "--dets-b", "{dets_b}", *_NAMED]),
]


# (name, argv): every graph at the default input, then two
# resnet101 forwards that reach the rank-4 and rank-2 concats, the batch
# repeat, the fixed-size resize, bias-free convs and both heads, and a
# vgg16 forward through the streamed fully connected layers
_FORWARD = ["--input", "32x32", "--rois", "4", "--forward", "--seed", "3"]
ARCH_CASES = [(f"{v}/{b}", ["arch", "--variant", v, "--backbone", b])
              for b in BACKBONES for v in VARIANTS] + [
    (f"{v}/{b}-forward", ["arch", "--variant", v, "--backbone", b, *_FORWARD])
    for v, b in (("raw-MC", "resnet101"), ("raw-LC", "resnet101"), ("raw-LC", "vgg16"))
]


# intrinsics of the 48x64 encode maps
_CAM = {"fx": 60.0, "fy": 60.0, "cx": 31.5, "cy": 23.5, "baseline": 0.075}


def _room(rng, cam_height, wall_z, h=48, w=64):
    """Floor below the camera meeting a frontal wall, in meters, with
    sensor noise, a dropout patch and scattered invalid readings."""
    vs = np.arange(h, dtype=float)[:, None].repeat(w, axis=1)
    ys = (vs - _CAM["cy"]) / _CAM["fy"]
    depth = np.full((h, w), wall_z)
    floor = ys > cam_height / wall_z
    depth[floor] = cam_height / ys[floor]
    depth *= 1.0 + 0.01 * rng.standard_normal((h, w))
    r, c = (int(v) for v in rng.integers(4, 30, 2))
    depth[r:r + 6, c:c + 9] = 0.0
    depth[rng.random((h, w)) < 0.03] = 0.0
    return depth


def _depth_maps(directory):
    """A PFM map in meters (with NaN readings) and a 16-bit PGM map in
    millimeters, plus their intrinsics; returns (map paths, intrinsics path)."""
    os.makedirs(directory)
    rng = np.random.default_rng(20261018)
    room = _room(rng, cam_height=1.2, wall_z=6.0).astype(np.float32)
    room[rng.random(room.shape) < 0.01] = np.nan
    hall = _room(rng, cam_height=1.5, wall_z=4.5)
    paths = [os.path.join(directory, "room.pfm"), os.path.join(directory, "hall.pgm")]
    netpbm.write_pfm(paths[0], room)
    netpbm.write_pgm16(paths[1], np.round(hall * 1000.0).astype(np.uint16))
    cam = os.path.join(directory, "cam.json")
    with open(cam, "w") as fh:
        json.dump(_CAM, fh)
    return paths, cam


def _out_dir(work, name):
    return os.path.join(work, "out", name)


def _encode_cases(work):
    files, cam = _depth_maps(os.path.join(work, "maps"))
    hdha = ["encode", *files, "--mode", "hdha", "--intrinsics", cam]
    # the compute case writes the stats into its own output directory
    # (so they are hashed); the apply case, run after it, reads them
    stats = os.path.join(_out_dir(work, "hdha-stats-compute"), "stats.json")
    return [
        ("gray", ["encode", *files, "--mode", "gray", "--dmin", "0.7", "--dmax", "8"]),
        ("jet", ["encode", *files, "--mode", "jet", "--dmin", "0.7", "--dmax", "8"]),
        ("hdha", hdha),
        ("hdha-k9", [*hdha, "--k-neighbors", "9"]),
        ("hdha-stats-compute", [*hdha, "--stats", stats]),
        ("hdha-stats-apply", [*hdha, "--stats", stats]),
        ("hdha-gravity", [*hdha, "--gravity", "0.05,1,0.2"]),
    ]


def _analyze_cases(work):
    maps = os.path.join(work, "maps")
    _depth_maps(maps)
    rng = np.random.default_rng(20261019)
    gts = []
    for image_id in ("room", "hall"):
        for _ in range(30):
            w, h = (int(v) for v in rng.integers(2, 24, 2))
            x1, y1 = int(rng.integers(0, 64 - w)), int(rng.integers(0, 48 - h))
            gts.append({"image_id": image_id, "class": _CLASSES[int(rng.integers(1, 5))],
                        "x1": x1, "y1": y1, "x2": x1 + w, "y2": y1 + h})
    classes = os.path.join(work, "classes.json")
    with open(classes, "w") as fh:
        json.dump(_CLASSES, fh)
    named, ids = os.path.join(work, "gts.jsonl"), os.path.join(work, "gts_ids.jsonl")
    _write_jsonl(named, gts)
    # numeric classes, every other box: a second, different heatmap
    _write_jsonl(ids, [{**r, "class": _CLASSES.index(r["class"])} for r in gts[::2]])
    heatmaps = [os.path.join(_out_dir(work, name), "heatmap.csv")
                for name in ("build", "build-ids")]
    # the similarity case reads the heatmaps the two build cases wrote
    return [
        ("build", ["analyze", "--gts", named, "--depth-dir", maps, "--classes", classes,
                   "--bins", "8"]),
        ("build-ids", ["analyze", "--gts", ids, "--depth-dir", maps, "--bins", "8"]),
        ("similarity", ["analyze", "--similarity", *heatmaps]),
    ]


def _digest(argv, out_dir, work):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main([*argv, "--out", out_dir])
    h = hashlib.sha256(f"exit {rc}\n".encode())
    text = stdout.getvalue().replace(out_dir, "<out>").replace(work, "<work>")
    h.update(text.encode())
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(f"\0{name}\0".encode() + fh.read())
    return h.hexdigest()


def _eval_cases(work):
    corpora = {"fixtures": _fixture_paths(), "corpus": _corpus(work)}
    return [(name, ["eval", *(a.format(**corpora[corpus]) for a in argv)])
            for name, corpus, argv in CASES]


GOLDENS = {"encode": _encode_cases, "analyze": _analyze_cases,
           "eval": _eval_cases, "arch": lambda work: ARCH_CASES}


def compute_digests(command):
    """Run every case of one golden file and return its digest by name."""
    digests = {}
    with tempfile.TemporaryDirectory() as work:
        for name, argv in GOLDENS[command](work):
            out_dir = _out_dir(work, name)
            os.makedirs(out_dir)
            digests[name] = _digest(argv, out_dir, work)
    return digests


def _golden(command):
    with open(os.path.join(GOLDEN_DIR, f"{command}.json")) as fh:
        return json.load(fh)


def _mismatches(command):
    want = _golden(command)
    return {k: v for k, v in compute_digests(command).items() if want.get(k) != v}


def test_corpus_has_ties_duplicates_difficult_and_every_bucket(tmp_path):
    paths = _corpus(str(tmp_path))
    with open(paths["gts"]) as fh:
        gts = [json.loads(line) for line in fh]
    with open(paths["dets"]) as fh:
        dets = [json.loads(line) for line in fh]
    areas = [(g["x2"] - g["x1"]) * (g["y2"] - g["y1"]) for g in gts]
    assert min(areas) < 32 ** 2 and max(areas) > 96 ** 2
    assert {32 ** 2, 96 ** 2} <= set(areas)
    assert any(g.get("difficult") for g in gts)
    keys = [json.dumps(d, sort_keys=True) for d in dets]
    assert len(set(keys)) < len(keys)  # exact duplicates
    assert len({d["score"] for d in dets}) < len(dets)  # score ties


def test_golden_covers_every_case(tmp_path):
    for command, cases in GOLDENS.items():
        (tmp_path / command).mkdir()
        names = [name for name, _ in cases(str(tmp_path / command))]
        assert sorted(_golden(command)) == sorted(names), command


def test_encode_outputs_match_golden_digests():
    assert _mismatches("encode") == {}


def test_analyze_outputs_match_golden_digests():
    assert _mismatches("analyze") == {}


def test_eval_outputs_match_golden_digests():
    assert _mismatches("eval") == {}


def test_arch_outputs_match_golden_digests():
    assert _mismatches("arch") == {}


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for command in GOLDENS:
        path = os.path.join(GOLDEN_DIR, f"{command}.json")
        with open(path, "w") as fh:
            json.dump(compute_digests(command), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
