"""Golden freeze of ``depthkit eval`` and ``depthkit arch``, byte for byte.

Each case runs the CLI in process and hashes its exit code, its stdout
(with the output directory replaced by ``<out>``) and every file it
wrote.  The digests live in ``tests/golden/eval.json`` (every metric)
and ``tests/golden/arch.json`` (every variant and backbone at the
default input, plus two small seeded forwards); a refactor must leave
all of them unchanged.  After an intended output change, regenerate
them with::

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from depthkit import cli
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
# repeat, the fixed-size resize, bias-free convs and both heads
_FORWARD = ["--backbone", "resnet101", "--input", "32x32", "--rois", "4",
            "--forward", "--seed", "3"]
ARCH_CASES = [(f"{v}/{b}", ["arch", "--variant", v, "--backbone", b])
              for b in BACKBONES for v in VARIANTS] + [
    ("raw-MC/resnet101-forward", ["arch", "--variant", "raw-MC", *_FORWARD]),
    ("raw-LC/resnet101-forward", ["arch", "--variant", "raw-LC", *_FORWARD]),
]


def _digest(argv, out_dir):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main([*argv, "--out", out_dir])
    h = hashlib.sha256(f"exit {rc}\n".encode())
    h.update(stdout.getvalue().replace(out_dir, "<out>").encode())
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(f"\0{name}\0".encode() + fh.read())
    return h.hexdigest()


def _eval_cases(work):
    corpora = {"fixtures": _fixture_paths(), "corpus": _corpus(work)}
    return [(name, ["eval", *(a.format(**corpora[corpus]) for a in argv)])
            for name, corpus, argv in CASES]


GOLDENS = {"eval": _eval_cases, "arch": lambda work: ARCH_CASES}


def compute_digests(command):
    """Run every case of one golden file and return its digest by name."""
    digests = {}
    with tempfile.TemporaryDirectory() as work:
        for name, argv in GOLDENS[command](work):
            out_dir = os.path.join(work, "out", name)
            os.makedirs(out_dir)
            digests[name] = _digest(argv, out_dir)
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


def test_golden_covers_every_case():
    assert sorted(_golden("eval")) == sorted(name for name, _, _ in CASES)
    assert sorted(_golden("arch")) == sorted(name for name, _ in ARCH_CASES)


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
