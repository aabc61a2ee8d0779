"""Release gate: seven checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Each
check is independent; a failure prints its FAIL line and then fails the
test normally.
"""
import functools
import os
import time

import numpy as np
import pytest

from depthkit import (
    CameraIntrinsics,
    DepthMap,
    _kernels,
    analysis,
    cli,
    encoding,
    estimate_gravity,
    evaluation,
    hdha_encode,
    netpbm,
)
from depthkit.arch import Lcg, build_architecture, count_parameters, execute_forward, propagate_shapes
from depthkit.geometry import backproject_grid
from depth_scenes import floor_wall, write_cam
from eval_rows import (
    Box,
    Det,
    Gt,
    coco_mean_oracle,
    confusion_oracle,
    det_record,
    gt_record,
    interp_ap_oracle,
    voc_oracle,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def criterion(label):
    """Print one verdict line for the wrapped check."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"FAIL {label}: {exc}")
                raise
            print(f"PASS {label}" + (f": {detail}" if detail else ""))

        return run

    return wrap


# ------------------------------------------------------------- criterion 1

_PARAM_TARGETS = {
    ("baseline", "vgg16"): 137e6,
    ("proc-EC", "vgg16"): 152e6,
    ("prior-late", "vgg16"): 273.5e6,
    ("hdha-split", "vgg16"): 181.5e6,
    ("baseline", "resnet101"): 47e6,
    ("proc-EC", "resnet101"): 76.5e6,
    ("prior-late", "resnet101"): 94.5e6,
    ("hdha-split", "resnet101"): 134e6,
}


def _param_report(variant, backbone):
    graph = build_architecture(variant, backbone)
    return count_parameters(graph, propagate_shapes(graph, (3, 600, 800), 300))


@criterion("criterion 1 (parameter budgets)")
def test_parameter_budgets():
    t0 = time.perf_counter()
    reports = {key: _param_report(*key) for key in _PARAM_TARGETS}
    for key, target in _PARAM_TARGETS.items():
        total = reports[key].total
        assert abs(total - target) <= 0.15 * target, (
            f"{key}: total {total:,} departs from {target:,.0f} by more than 15%"
        )

    for backbone in ("vgg16", "resnet101"):
        base = reports[("baseline", backbone)]
        ec = reports[("proc-EC", backbone)]
        depth_bb = ec.trainable_under("depth_bb/")
        reduce_cost = next(
            r.trainable for r in ec.rows if r.node == "fuse/reduce"
        )
        assert ec.trainable - base.trainable == depth_bb + reduce_cost, backbone

    twice = 2 * reports[("baseline", "vgg16")].trainable
    late = reports[("prior-late", "vgg16")].trainable
    assert abs(late - twice) <= 0.01 * twice
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    return f"8 budget cells within 15%, identities exact, {elapsed:.2f}s"


# ------------------------------------------------------------- criterion 2

@criterion("criterion 2 (shape contracts)")
def test_shape_contracts():
    t0 = time.perf_counter()
    cases = [
        ("raw-LC", "vgg16"),
        ("raw-MC", "resnet101"),
        ("proc-EC", "resnet101"),
    ]
    graphs = {}
    for variant, backbone in cases:
        g = build_architecture(variant, backbone)
        graphs[(variant, backbone)] = g, propagate_shapes(g, (3, 600, 800), 300)

    g, shapes = graphs[("raw-LC", "vgg16")]
    det = next(n for n, s in g.nodes.items() if s.kind == "det_head")
    assert shapes[f"{g.sources[det][0]}:out"] == (300, 8192)

    g, shapes = graphs[("raw-MC", "resnet101")]
    assert shapes["fuse/concat:out"] == (300, 2048, 7, 7)

    g, shapes = graphs[("proc-EC", "resnet101")]
    assert shapes["fuse/concat:out"] == (2048, 38, 50)
    assert shapes["fuse/reduce:out"] == (1024, 38, 50)

    # the same graphs run numerically on 64x64 inputs; every emitted
    # tensor must carry the shape the propagator predicted
    rois = np.array([[0.0, 0.0, 32.0, 32.0], [8.0, 8.0, 64.0, 64.0]])
    for variant, backbone in cases:
        g = build_architecture(variant, backbone)
        shapes = propagate_shapes(g, (3, 64, 64), len(rois))
        filler = Lcg(1)
        inputs = {}
        for name, ispec in g.inputs.items():
            if ispec.rois:
                inputs[name] = rois
            else:
                c = ispec.channels
                inputs[name] = filler.draws(c * 64 * 64).reshape(c, 64, 64)
        outputs = execute_forward(g, inputs, seed=0)
        assert outputs, (variant, backbone)
        for key, arr in outputs.items():
            assert arr.shape == shapes[key], (variant, backbone, key)
            assert np.all(np.isfinite(arr)), (variant, backbone, key)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    return f"propagated and executed, {elapsed:.2f}s"


# ------------------------------------------------------------- criterion 3

@criterion("criterion 3 (encoding endpoints)")
def test_encoding_endpoints():
    depth = DepthMap(np.array([[2.0, 6.0, 4.0, 1.0, 7.0]]))
    gray = encoding.grayscale_encode(depth, 2.0, 6.0)
    q = gray[0]
    assert q[0] == 0 and q[1] == 255 and q[2] == 128  # d_min, d_max, midpoint
    assert q[3] == 0 and q[4] == 255  # clamped below/above

    table = encoding.jet_table()
    assert table.shape == (256, 3)
    assert tuple(table[0]) == (0, 0, 128)
    assert tuple(table[255]) == (128, 0, 0)

    cam = CameraIntrinsics(fx=100.0, fy=100.0, cx=39.5, cy=29.5, baseline=0.075)
    values, floor = floor_wall()
    depth = DepthMap(values)

    img = hdha_encode(depth, cam, gravity=np.array([0.0, 1.0, 0.0]))
    assert img.height[img.valid].min() == 0.0
    floor_core = floor.copy()
    floor_core[:55] = False  # keep clear of the crease
    wall_core = ~floor
    wall_core[45:] = False
    assert np.all(np.abs(img.angle[floor_core & img.valid] - 180.0) < 0.5)
    assert np.all(np.abs(img.angle[wall_core & img.valid] - 90.0) < 0.5)

    normals, ok = _kernels.normals_from_points(backproject_grid(depth, cam), depth.valid, 25)
    tilt = np.deg2rad(10.0)
    seed = np.array([np.sin(tilt), np.cos(tilt), 0.0])
    est = estimate_gravity(normals.reshape(-1, 3), valid=ok.ravel(), initial=seed)
    angle = np.degrees(np.arccos(abs(float(est.direction @ [0.0, 1.0, 0.0]))))
    assert est.iterations <= 5
    assert angle < 1.0, f"gravity off by {angle:.3f} degrees"
    return f"endpoints exact, angles within 0.5 deg, gravity within {angle:.3f} deg"


# ------------------------------------------------------------- criterion 4

def _rand_scene(rng, classes=5, boxes=50, extent=80.0, sides=lambda rng: rng.uniform(4, 60, 2),
                difficult=0.2, copies=lambda rng: int(rng.random() < 0.6), jitter=6.0):
    """Up to ``boxes`` boxes over up to ``classes`` classes in a couple of
    images, then ``copies`` jittered detections of each ground truth."""
    n_classes = int(rng.integers(1, classes + 1))
    gts, dets = [], []
    for _ in range(int(rng.integers(1, boxes + 1))):
        image_id = f"im{rng.integers(0, 3)}"
        cls = int(rng.integers(0, n_classes))
        x1, y1 = rng.uniform(0, extent, 2)
        bw, bh = sides(rng)
        box = Box(x1, y1, x1 + bw, y1 + bh)
        if rng.random() < 0.5:
            gts.append(Gt(image_id, cls, box, difficult=rng.random() < difficult))
        else:
            dets.append(Det(image_id, cls, float(rng.uniform(0, 1)), box))
    # jittered copies of ground truth give the matcher real work
    for gt in gts:
        for _ in range(copies(rng)):
            j = rng.uniform(-jitter, jitter, 4)
            b = gt.box
            jb = Box(b.x1 + j[0], b.y1 + j[1], b.x2 + j[2], b.y2 + j[3])
            if not (jb.x2 > jb.x1 and jb.y2 > jb.y1):
                continue  # degenerate
            dets.append(Det(gt.image_id, gt.class_id, float(rng.uniform(0, 1)), jb))
    return dets, gts, n_classes


@criterion("criterion 4 (oracle equivalence)")
def test_oracle_equivalence():
    rng = np.random.default_rng(20260819)
    checked_voc = checked_coco = 0
    for trial in range(200):
        dets, gts, n_classes = _rand_scene(rng)
        # one draw per (image, class) group keeps every later trial's scene
        # that of the seed
        rng.uniform(0.2, 0.9, len({(d.image_id, d.class_id) for d in dets}))
        det_rec, gt_rec = det_record(dets), gt_record(gts)
        for cid in range(n_classes):
            for use_difficult in (False, True):
                got = evaluation.mean_ap(det_rec, gt_rec, [cid], 0.5, use_difficult)[1][cid]
                want = voc_oracle(dets, gts, cid, 0.5, use_difficult)
                if want is None:
                    assert got is None, trial
                else:
                    assert got == pytest.approx(want, abs=1e-9), trial
                checked_voc += 1
        if trial % 10 == 0:
            class_ids = list(range(n_classes))
            summary = evaluation.coco_ap(det_rec, gt_rec, class_ids)
            for key, thresholds in (
                ("ap", evaluation.COCO_THRESHOLDS),
                ("ap50", [0.5]),
                ("ap75", [0.75]),
            ):
                want = coco_mean_oracle(dets, gts, class_ids, thresholds, "all")
                if want is None:
                    assert summary[key] is None, trial
                else:
                    assert summary[key] == pytest.approx(want, abs=1e-9), (trial, key)
                checked_coco += 1

        # confusion row sums and diff antisymmetry on the same fixture
        classes = [f"c{i}" for i in range(n_classes)]
        cm = evaluation.confusion_matrix(det_rec, gt_rec, classes, 0.5, 0.5)
        per_class_gt = np.zeros(n_classes, dtype=np.int64)
        for g in gts:
            per_class_gt[g.class_id] += 1
        assert np.array_equal(cm.row_totals(), per_class_gt), trial
        shifted = evaluation.confusion_matrix(det_rec, gt_rec, classes, 0.5, 0.25)
        ab = evaluation.confusion_diff(cm, shifted)
        ba = evaluation.confusion_diff(shifted, cm)
        assert np.array_equal(ab.counts, -ba.counts), trial
        assert np.array_equal(ab.fn, -ba.fn), trial
    return f"voc x{checked_voc} and coco x{checked_coco} within 1e-9"


def _bucket_scene(rng):
    """Like ``_rand_scene`` but with box sides from 4 to 160 pixels, so
    every size bucket holds ground truth and detections."""
    sides = [4.0, 24.0, 32.0, 60.0, 96.0, 130.0, 160.0]
    return _rand_scene(rng, classes=3, boxes=30, extent=200.0,
                       sides=lambda rng: rng.choice(sides, 2) * rng.uniform(0.8, 1.2, 2),
                       difficult=0.15, copies=lambda rng: int(rng.integers(0, 3)), jitter=8.0)


def test_size_buckets_match_oracle():
    rng = np.random.default_rng(20261017)
    compared = {"small": 0, "medium": 0, "large": 0}
    for trial in range(40):
        dets, gts, n_classes = _bucket_scene(rng)
        class_ids = list(range(n_classes))
        summary = evaluation.coco_ap(det_record(dets), gt_record(gts), class_ids)
        for bucket in compared:
            want = coco_mean_oracle(dets, gts, class_ids, evaluation.COCO_THRESHOLDS, bucket)
            got = summary[f"ap_{bucket}"]
            if want is None:
                assert got is None, (trial, bucket)
                continue
            assert got == pytest.approx(want, abs=1e-9), (trial, bucket)
            compared[bucket] += 1
    assert all(compared.values()), compared


def test_interpolation_matches_oracle_on_random_flags():
    rng = np.random.default_rng(7)
    sequences = [[], [0], [0, 0, 0], [1], [1, 1, 0, 1]]
    sequences += [rng.integers(0, 2, int(rng.integers(1, 40))).tolist() for _ in range(200)]
    for flags in sequences:
        npos = sum(flags) + int(rng.integers(0 if sum(flags) else 1, 4))
        tp = np.cumsum(flags)
        fp = np.cumsum([1 - f for f in flags])
        for points in ([i / 10 for i in range(11)], [i / 100 for i in range(101)]):
            want = interp_ap_oracle(points, tp / npos, tp / np.maximum(tp + fp, 1))
            # one run with every entry kept
            hits = np.array(flags, dtype=bool)
            got = evaluation._interp_runs(hits, np.ones_like(hits), np.array([len(hits)]),
                                          np.array([npos]), np.array(points))
            assert got.tolist() == [want], (flags, npos)


def test_ranked_runs_with_left_out_entries_match_oracle():
    # _interp_runs reads every run's ranks at once, with entries left out
    # in place: each run must score as its kept entries alone
    rng = np.random.default_rng(11)
    for trial in range(200):
        lengths = rng.integers(0, 30, int(rng.integers(1, 6)))
        tp = rng.random(int(lengths.sum())) < 0.5
        kept = rng.random(len(tp)) < 0.7
        npos = rng.integers(1, 12, len(lengths))
        points = [i / 100 for i in range(101)]
        got = evaluation._interp_runs(tp, kept, lengths, npos, np.array(points))
        ends = np.cumsum(lengths)
        for run, (lo, hi) in enumerate(zip(ends - lengths, ends)):
            flags = tp[lo:hi][kept[lo:hi]].astype(int)
            cum_tp = np.cumsum(flags)
            want = interp_ap_oracle(points, cum_tp / npos[run],
                                     cum_tp / np.arange(1, len(flags) + 1))
            assert got[run] == want, (trial, run)


def _iou_scalar(a, b):
    """The textbook IoU of two boxes in Python floats."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / ((a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter)


def test_array_iou_is_bitwise_the_pair_iou():
    rng = np.random.default_rng(5)
    corners = rng.uniform(0, 100, (300, 2))
    sides = rng.uniform(0.5, 60, (300, 2))
    boxes = np.hstack([corners, corners + sides])
    # touching edges and corners, a disjoint box, duplicates and a nested box
    boxes[1] = [boxes[0, 2], boxes[0, 1], boxes[0, 2] + 5, boxes[0, 3]]
    boxes[2] = [boxes[0, 2], boxes[0, 3], boxes[0, 2] + 3, boxes[0, 3] + 3]
    boxes[3] = [500, 500, 510, 510]
    boxes[4] = boxes[0]
    boxes[5] = [boxes[0, 0] + 0.25, boxes[0, 1] + 0.25, boxes[0, 2] - 0.25, boxes[0, 3] - 0.25]
    table = evaluation.iou(boxes[:, None], boxes[None])
    pairs = [Box(*b) for b in boxes.tolist()]
    want = np.array([[_iou_scalar(a, b) for b in pairs] for a in pairs])
    got_pairs = np.array([[evaluation.iou(a, b) for b in pairs[:40]] for a in pairs[:40]])
    assert table.tobytes() == want.tobytes()
    assert got_pairs.tobytes() == want[:40, :40].tobytes()
    assert isinstance(evaluation.iou(pairs[0], pairs[1]), float)
    assert table[0, 1] == table[0, 2] == table[0, 3] == 0.0 and table[0, 4] == 1.0


# square and oblong sides whose areas fall exactly on 32^2 and 96^2
_EDGE_SIDES = [(32.0, 32.0), (16.0, 64.0), (96.0, 96.0), (48.0, 192.0),
               (31.0, 33.0), (20.0, 20.0), (60.0, 60.0), (130.0, 110.0)]


def _edge_scene(rng):
    """A scene built to reach every branch of the matchers.

    Class 3 has ground truth but no detections; image ``hard`` holds only
    difficult boxes; image ``empty`` holds detections and no ground
    truth; twin boxes give a detection equal IoUs; image ``crowd``, when
    drawn, holds one class's boxes by the dozen.  Each box draws up to seven detections from four scores (so
    scores tie) as exact copies or small shifts of it (so boxes repeat),
    and some sides land exactly on the size-bucket edges.
    """
    gts, dets = [], []
    for image in ("im0", "im1", "hard"):
        for _ in range(int(rng.integers(2, 6))):
            w, h = _EDGE_SIDES[int(rng.integers(len(_EDGE_SIDES)))]
            x1, y1 = (float(v) for v in rng.integers(0, 200, 2))
            gts.append(Gt(image, int(rng.integers(0, 4)), Box(x1, y1, x1 + w, y1 + h),
                          difficult=image == "hard" or rng.random() < 0.15))
        if rng.random() < 0.7:
            # a twin 4 px to the right, a detection halfway with equal IoU
            # on both, then a copy of the first: which twin the halfway
            # one takes decides the copy's fate
            b, cls = gts[-1].box, gts[-1].class_id % 3
            gts.append(Gt(image, cls, Box(b.x1 + 4, b.y1, b.x2 + 4, b.y2)))
            gts[-2] = Gt(image, cls, b, gts[-2].difficult)
            dets.append(Det(image, cls, 0.95, Box(b.x1 + 2, b.y1, b.x2 + 2, b.y2)))
            dets.append(Det(image, cls, 0.6, b))
    # sometimes a crowded image: one class, overlapping boxes on a 12 px grid
    for i in range(int(rng.integers(9, 12)) if rng.random() < 0.3 else 0):
        x1, y1 = 12.0 * (i % 5), 12.0 * (i // 5)
        gts.append(Gt("crowd", 0, Box(x1, y1, x1 + 20, y1 + 20)))
    scores = [0.3, 0.5, 0.5, 0.9]
    for gt in gts:
        cls = gt.class_id if gt.class_id != 3 else int(rng.integers(0, 3))
        for _ in range(int(rng.integers(0, 8))):
            b = gt.box
            if rng.random() < 0.4:
                box = b
            else:
                dx, dy = (float(v) for v in rng.integers(-6, 7, 2) / 2)
                box = Box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
            label = cls if rng.random() < 0.8 else int(rng.integers(0, 3))
            dets.append(Det(gt.image_id, label, scores[int(rng.integers(4))], box))
    for _ in range(3):
        x1, y1 = (float(v) for v in rng.integers(0, 200, 2))
        dets.append(Det("empty", int(rng.integers(0, 3)), 0.5, Box(x1, y1, x1 + 32, y1 + 32)))
    order = rng.permutation(len(dets))
    return [dets[i] for i in order], gts


def _edge_cases_seen(dets, gts):
    per_group = {}
    for d in dets:
        per_group.setdefault((d.class_id, d.image_id), []).append(d)
    gt_images = {g.image_id for g in gts}
    areas = {g.box.area for g in gts} | {d.box.area for d in dets}
    return {
        "group of 5+": max(map(len, per_group.values())) >= 5,
        "score tie": any(len({d.score for d in g}) < len(g) for g in per_group.values()),
        "duplicate box": any(len({d.box for d in g}) < len(g) for g in per_group.values()),
        "only difficult": any(all(g.difficult for g in gts if g.image_id == im)
                              for im in gt_images),
        "no ground truth": any(d.image_id not in gt_images for d in dets),
        "class without dets": bool({g.class_id for g in gts} - {d.class_id for d in dets}),
        "crowded image": max(sum(g.image_id == im and g.class_id == 0 for g in gts)
                             for im in gt_images) >= 9,
        "edge 32^2": 32.0 * 32.0 in areas,
        "edge 96^2": 96.0 * 96.0 in areas,
        "equal IoU": any(
            len(ious) > len(set(ious))
            for d in dets
            if (ious := [evaluation.iou(d.box, g.box) for g in gts
                         if (g.image_id, g.class_id) == (d.image_id, d.class_id)
                         and evaluation.iou(d.box, g.box) > 0.5])
        ),
    }


def test_array_matchers_equal_oracles_on_edge_scenes():
    rng = np.random.default_rng(20261018)
    seen = dict.fromkeys(_edge_cases_seen(*_edge_scene(np.random.default_rng(0))), 0)
    for trial in range(20):
        dets, gts = _edge_scene(rng)
        for case, hit in _edge_cases_seen(dets, gts).items():
            seen[case] += hit
        class_ids = [0, 1, 2, 3]
        det_rec, gt_rec = det_record(dets), gt_record(gts)
        summary = evaluation.coco_ap(det_rec, gt_rec, class_ids)
        for key, thresholds, bucket in (
            ("ap", evaluation.COCO_THRESHOLDS, "all"),
            ("ap50", [0.5], "all"),
            ("ap75", [0.75], "all"),
            ("ap_small", evaluation.COCO_THRESHOLDS, "small"),
            ("ap_medium", evaluation.COCO_THRESHOLDS, "medium"),
            ("ap_large", evaluation.COCO_THRESHOLDS, "large"),
        ):
            assert summary[key] == coco_mean_oracle(dets, gts, class_ids, thresholds, bucket), \
                (trial, key)
        for use_difficult in (False, True):
            got_map, per_class = evaluation.mean_ap(det_rec, gt_rec, class_ids, 0.5, use_difficult)
            want = {cid: voc_oracle(dets, gts, cid, 0.5, use_difficult) for cid in class_ids}
            assert per_class == want, (trial, use_difficult)
            defined = [v for v in want.values() if v is not None]
            assert got_map == (sum(defined) / len(defined) if defined else None)
        for iou_thresh, score_thresh in ((0.5, 0.5), (0.3, 0.0), (0.75, 0.9)):
            cm = evaluation.confusion_matrix(det_rec, gt_rec, ["c0", "c1", "c2", "c3"],
                                             iou_thresh, score_thresh)
            counts, fn = confusion_oracle(dets, gts, 4, iou_thresh, score_thresh)
            assert np.array_equal(cm.counts, counts) and np.array_equal(cm.fn, fn), trial
    assert all(seen.values()), seen


# ------------------------------------------------------------- criterion 5

@criterion("criterion 5 (depth-run dominance, end to end)")
def test_depth_run_dominates_baseline(tmp_path, capsys):
    t0 = time.perf_counter()
    classes = os.path.join(FIXTURES, "classes.json")
    gts = os.path.join(FIXTURES, "gts.jsonl")
    runs = {}
    for name in ("baseline", "withdepth"):
        out = tmp_path / name
        rc = cli.main(["eval", "--metric", "voc",
                       "--dets", os.path.join(FIXTURES, f"dets_{name}.jsonl"),
                       "--gts", gts, "--classes", classes, "--out", str(out)])
        assert rc == 0
        footer = (out / "voc_ap.csv").read_text().splitlines()[-1]
        runs[name] = float(footer.split(",")[1])
    assert runs["withdepth"] > runs["baseline"], runs

    rc = cli.main(["eval", "--metric", "confdiff",
                   "--dets", os.path.join(FIXTURES, "dets_baseline.jsonl"),
                   "--dets-b", os.path.join(FIXTURES, "dets_withdepth.jsonl"),
                   "--gts", gts, "--classes", classes, "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    rows = (tmp_path / "confusion_diff.csv").read_text().splitlines()[1:]
    fn_diffs = [int(row.split(",")[-1]) for row in rows]
    assert sum(fn_diffs) < 0, fn_diffs
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    return (f"mAP {runs['baseline']:.3f} -> {runs['withdepth']:.3f}, "
            f"FN diff {sum(fn_diffs):+d}, {elapsed:.2f}s")


# ------------------------------------------------------------- criterion 6

@criterion("criterion 6 (depth-size statistics)")
def test_depth_size_statistics():
    rng = np.random.default_rng(3)
    depths, areas = [], []
    for i in range(200):
        d = float(rng.uniform(1.0, 8.0))
        depths.append(d)
        areas.append((90.0 / d) ** 2 * float(rng.uniform(0.8, 1.25)))
    r = analysis.pearson_r(depths, areas)
    assert r < -0.5, r
    hm = analysis.build_heatmap(depths, areas, bins_x=20, bins_y=20)
    assert hm.total == len(depths)
    assert analysis.heatmap_similarity(hm, hm) == pytest.approx(1.0, abs=1e-12)
    return f"pearson r {r:.3f}, mass exact, self-similarity 1.0"


# ------------------------------------------------------------- criterion 7

@criterion("criterion 7 (determinism)")
def test_determinism(tmp_path, capsys):
    src = tmp_path / "room.pfm"
    netpbm.write_pfm(str(src), floor_wall()[0])
    cam_path = write_cam(tmp_path / "cam.json", 60, 80, 100.0)

    produced = {}
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli.main(["encode", str(src), "--mode", "hdha",
                         "--intrinsics", cam_path, "--out", str(out)]) == 0
        assert cli.main(["arch", "--variant", "proc-MC", "--backbone", "vgg16",
                         "--out", str(out)]) == 0
        assert cli.main(["eval", "--metric", "voc",
                         "--dets", os.path.join(FIXTURES, "dets_baseline.jsonl"),
                         "--gts", os.path.join(FIXTURES, "gts.jsonl"),
                         "--classes", os.path.join(FIXTURES, "classes.json"),
                         "--out", str(out)]) == 0
        produced[run] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        }
    capsys.readouterr()
    assert produced["a"].keys() == produced["b"].keys()
    for name in produced["a"]:
        assert produced["a"][name] == produced["b"][name], name

    graph = build_architecture("baseline", "vgg16")
    rois = np.array([[0.0, 0.0, 32.0, 32.0], [8.0, 8.0, 64.0, 64.0]])
    runs = []
    for _ in range(2):
        filler = Lcg(9)
        inputs = {}
        for name, ispec in graph.inputs.items():
            if ispec.rois:
                inputs[name] = rois
            else:
                inputs[name] = filler.draws(ispec.channels * 64 * 64).reshape(
                    ispec.channels, 64, 64)
        runs.append(execute_forward(graph, inputs, seed=4))
    for key in runs[0]:
        a, b = runs[0][key], runs[1][key]
        assert a.tobytes() == b.tobytes(), key
    return f"{len(produced['a'])} CLI artifacts byte-identical, forwards bitwise equal"
