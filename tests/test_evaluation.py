"""Detection metrics against brute-force reference implementations."""
import random

import numpy as np
import pytest
from eval_rows import Box, Det, Gt, det_record, gt_record

from depthkit import evaluation as ev
from depthkit.netpbm import ParseError


def D(image, cls, score, x1, y1, x2, y2):
    return Det(image_id=image, class_id=cls, score=score, box=Box(x1, y1, x2, y2))


def G(image, cls, x1, y1, x2, y2, difficult=False):
    return Gt(image_id=image, class_id=cls, box=Box(x1, y1, x2, y2), difficult=difficult)


# --------------------------------------------------------------------- IoU

def test_iou_hand_cases():
    a = Box(0, 0, 10, 10)
    assert ev.iou(a, Box(20, 20, 30, 30)) == 0.0
    assert ev.iou(a, a) == 1.0
    # 5x10 overlap over union 100 + 100 - 50
    assert ev.iou(a, Box(5, 0, 15, 10)) == pytest.approx(50 / 150)
    # touching edges share no area
    assert ev.iou(a, Box(10, 0, 20, 10)) == 0.0


def test_degenerate_boxes_rejected():
    with pytest.raises(ValueError):
        ev.GtRecord(["a"], [1], [(5, 5, 5, 10)], [False])
    with pytest.raises(ValueError):
        ev.GtRecord(["a"], [1], [(0, 0, -1, 5)], [False])


@pytest.mark.parametrize("corners", [(0, 0, float("inf"), 10), (float("-inf"), 0, 5, 10),
                                     (0, float("nan"), 5, 10), (0, 0, 5, float("nan"))])
def test_non_finite_boxes_rejected(corners):
    with pytest.raises(ValueError, match="corners must be finite"):
        ev.DetRecord(["a"], [1], [0.5], [corners])


# ------------------------------------------------------------------ VOC AP

def _voc_ap_reference(dets, gts, class_id, thresh=0.5, use_difficult=False):
    """Literal PASCAL protocol, written for clarity over speed."""
    gt_list = [g for g in gts if g.class_id == class_id]
    npos = sum(1 for g in gt_list if use_difficult or not g.difficult)
    if npos == 0:
        return None
    claimed = set()
    order = sorted((d for d in dets if d.class_id == class_id),
                   key=lambda d: (-d.score, d.image_id, d.box.x1, d.box.y1,
                                  d.box.x2, d.box.y2))
    tps, fps = [], []
    for det in order:
        best, best_ov = None, 0.0
        for idx, gt in enumerate(gt_list):
            if gt.image_id != det.image_id:
                continue
            ov = ev.iou(det.box, gt.box)
            if ov > best_ov:
                best, best_ov = idx, ov
        if best is not None and best_ov >= thresh:
            if gt_list[best].difficult and not use_difficult:
                continue  # neither credit nor penalty
            if best in claimed:
                tps.append(0); fps.append(1)
            else:
                claimed.add(best)
                tps.append(1); fps.append(0)
        else:
            tps.append(0); fps.append(1)
    ap = 0.0
    tp = fp = 0
    curve = []
    for t, f in zip(tps, fps):
        tp += t; fp += f
        curve.append((tp / npos, tp / (tp + fp)))
    for r in [i / 10 for i in range(11)]:
        precs = [p for rec, p in curve if rec >= r]
        ap += max(precs) if precs else 0.0
    return ap / 11


def _random_scene(rng, n_images=4, n_classes=3, n_gts=12, n_dets=25):
    gts, dets = [], []
    for _ in range(n_gts):
        x1, y1 = rng.uniform(0, 60), rng.uniform(0, 60)
        gts.append(G(f"im{rng.randrange(n_images)}", rng.randrange(n_classes),
                     x1, y1, x1 + rng.uniform(4, 30), y1 + rng.uniform(4, 30),
                     difficult=rng.random() < 0.2))
    for _ in range(n_dets):
        if gts and rng.random() < 0.6:
            base = rng.choice(gts)
            jx, jy = rng.uniform(-6, 6), rng.uniform(-6, 6)
            b = base.box
            dets.append(D(base.image_id, rng.choice([base.class_id, rng.randrange(n_classes)]),
                          round(rng.uniform(0.05, 1.0), 3),
                          b.x1 + jx, b.y1 + jy, b.x2 + jx, b.y2 + jy))
        else:
            x1, y1 = rng.uniform(0, 60), rng.uniform(0, 60)
            dets.append(D(f"im{rng.randrange(n_images)}", rng.randrange(n_classes),
                          round(rng.uniform(0.05, 1.0), 3),
                          x1, y1, x1 + rng.uniform(4, 30), y1 + rng.uniform(4, 30)))
    return dets, gts


def test_voc_ap_matches_reference_on_many_scenes():
    rng = random.Random(77)
    checked = 0
    for trial in range(200):
        dets, gts = _random_scene(rng)
        for cls in range(3):
            for use_difficult in (False, True):
                got = ev.mean_ap(det_record(dets), gt_record(gts), [cls], 0.5,
                                 use_difficult)[1][cls]
                want = _voc_ap_reference(dets, gts, cls, 0.5, use_difficult)
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(want, abs=1e-9), trial
                    checked += 1
    assert checked > 500


def test_voc_ap_perfect_detection():
    gts = [G("a", 1, 0, 0, 10, 10), G("b", 1, 5, 5, 25, 25)]
    dets = [D("a", 1, 0.9, 0, 0, 10, 10), D("b", 1, 0.8, 5, 5, 25, 25)]
    assert ev.mean_ap(det_record(dets), gt_record(gts), [1])[1][1] == pytest.approx(1.0)


def test_voc_ap_half_recall_is_six_elevenths():
    gts = [G("a", 1, 0, 0, 10, 10), G("a", 1, 40, 40, 60, 60)]
    dets = [D("a", 1, 0.9, 0, 0, 10, 10)]
    # recall 0.5 at precision 1: points 0.0..0.5 each contribute 1
    assert ev.mean_ap(det_record(dets), gt_record(gts), [1])[1][1] == pytest.approx(6 / 11)


def test_voc_ap_difficult_neither_counts_nor_penalizes():
    gts = [G("a", 1, 0, 0, 10, 10, difficult=True), G("a", 1, 40, 40, 60, 60)]
    dets = [D("a", 1, 0.9, 0, 0, 10, 10), D("a", 1, 0.8, 40, 40, 60, 60)]
    # the difficult match is dropped from the ranking entirely
    assert ev.mean_ap(det_record(dets), gt_record(gts), [1])[1][1] == pytest.approx(1.0)
    # counting difficult restores it as a creditable target
    assert ev.mean_ap(det_record(dets), gt_record(gts), [1],
                      use_difficult=True)[1][1] == pytest.approx(1.0)


def test_voc_ap_duplicate_detection_is_fp():
    gts = [G("a", 1, 0, 0, 10, 10)]
    dets = [D("a", 1, 0.9, 0, 0, 10, 10), D("a", 1, 0.8, 1, 1, 10, 10)]
    # second hit on a claimed box: precision falls but recall holds
    assert ev.mean_ap(det_record(dets), gt_record(gts), [1])[1][1] == pytest.approx(1.0)


def test_voc_ap_none_without_ground_truth():
    dets = det_record([D("a", 1, 0.9, 0, 0, 5, 5)])
    assert ev.mean_ap(dets, gt_record([]), [1])[1][1] is None


def test_mean_ap_skips_undefined_classes():
    gts = [G("a", 1, 0, 0, 10, 10)]
    dets = [D("a", 1, 0.9, 0, 0, 10, 10)]
    m, per_class = ev.mean_ap(det_record(dets), gt_record(gts), [1, 2])
    assert per_class[2] is None
    assert m == pytest.approx(1.0)
    m_none, per = ev.mean_ap(det_record([]), gt_record([]), [1])
    assert m_none is None and per == {1: None}


# ----------------------------------------------------------------- COCO AP

def test_coco_ap50_vs_ap75_on_a_loose_box():
    gts = [G("a", 1, 0, 0, 10, 10)]
    # IoU = 60/140 vs the 6x10 shifted box: between 0.50 and 0.75
    dets = [D("a", 1, 0.9, 4, 0, 14, 10)]
    summary = ev.coco_ap(det_record(dets), gt_record(gts), [1])
    assert ev.iou(dets[0].box, gts[0].box) == pytest.approx(60 / 140)
    assert summary["ap50"] == pytest.approx(0.0)
    assert summary["ap75"] == pytest.approx(0.0)
    close = [D("a", 1, 0.9, 1, 0, 11, 10)]  # IoU = 90/110
    summary = ev.coco_ap(det_record(close), gt_record(gts), [1])
    assert summary["ap50"] == pytest.approx(1.0)
    assert summary["ap75"] == pytest.approx(1.0)
    mid = [D("a", 1, 0.9, 2, 0, 12, 10)]  # IoU = 80/120 = 2/3
    summary = ev.coco_ap(det_record(mid), gt_record(gts), [1])
    assert summary["ap50"] == pytest.approx(1.0)
    assert summary["ap75"] == pytest.approx(0.0)
    # mean over thresholds 0.50..0.95: four pass (2/3 >= .5,.55,.6,.65)
    assert summary["ap"] == pytest.approx(4 / 10)


def test_coco_size_buckets_are_disjoint():
    gts = [
        G("a", 1, 0, 0, 10, 10),        # area 100: small
        G("a", 1, 100, 100, 150, 150),  # area 2500: medium
        G("a", 1, 300, 0, 500, 200),    # area 40000: large
    ]
    dets = [
        D("a", 1, 0.9, 0, 0, 10, 10),
        D("a", 1, 0.8, 100, 100, 150, 150),
        D("a", 1, 0.7, 300, 0, 500, 200),
    ]
    summary = ev.coco_ap(det_record(dets), gt_record(gts), [1])
    assert summary["ap_small"] == pytest.approx(1.0)
    assert summary["ap_medium"] == pytest.approx(1.0)
    assert summary["ap_large"] == pytest.approx(1.0)
    assert summary["ap"] == pytest.approx(1.0)


def test_coco_bucket_boundaries():
    # 32^2 and 96^2 belong to medium, one past each edge does not
    assert ev._area_in_bucket(32.0 * 32.0, "medium")
    assert ev._area_in_bucket(96.0 * 96.0, "medium")
    assert ev._area_in_bucket(32.0 * 32.0 - 1, "small")
    assert ev._area_in_bucket(96.0 * 96.0 + 1, "large")


def test_coco_out_of_bucket_detection_is_ignored_not_fp():
    # small-bucket eval: one small GT hit, plus one large unmatched det
    gts = [G("a", 1, 0, 0, 10, 10)]
    dets = [D("a", 1, 0.95, 0, 0, 10, 10), D("a", 1, 0.9, 200, 200, 400, 420)]
    summary = ev.coco_ap(det_record(dets), gt_record(gts), [1])
    assert summary["ap_small"] == pytest.approx(1.0)
    # but a small unmatched det in the small bucket is a real FP ranked
    # above nothing, so it cannot hurt recall already at 1.0
    assert summary["ap_large"] is None


def test_coco_empty_bucket_reports_none():
    gts = [G("a", 1, 0, 0, 10, 10)]
    dets = [D("a", 1, 0.9, 0, 0, 10, 10)]
    summary = ev.coco_ap(det_record(dets), gt_record(gts), [1])
    assert summary["ap_medium"] is None
    assert summary["ap_large"] is None


def test_coco_difficult_is_always_ignored():
    gts = [G("a", 1, 0, 0, 10, 10, difficult=True)]
    dets = [D("a", 1, 0.9, 0, 0, 10, 10)]
    assert ev.coco_ap(det_record(dets), gt_record(gts), [1])["ap"] is None


# --------------------------------------------------------------- confusion

CLASSES = ("background", "chair", "table")


def test_confusion_diagonal_and_cross():
    gts = [G("a", 1, 0, 0, 10, 10), G("a", 2, 30, 30, 50, 50)]
    dets = [
        D("a", 1, 0.9, 0, 0, 10, 10),    # correct chair
        D("a", 1, 0.8, 30, 30, 50, 50),  # table detected as chair
    ]
    cm = ev.confusion_matrix(det_record(dets), gt_record(gts), CLASSES)
    assert cm.counts[1, 1] == 1
    assert cm.counts[2, 1] == 1
    assert cm.fn.sum() == 0
    assert cm.row_totals().tolist() == [0, 1, 1]


def test_confusion_gt_takes_highest_scoring_candidate():
    gts = [G("a", 1, 0, 0, 10, 10)]
    dets = [D("a", 2, 0.7, 0, 0, 10, 10), D("a", 1, 0.9, 1, 0, 11, 10)]
    cm = ev.confusion_matrix(det_record(dets), gt_record(gts), CLASSES)
    # the 0.9 chair det wins even though the table det fits better
    assert cm.counts[1, 1] == 1
    assert cm.counts[1, 2] == 0


def test_confusion_score_threshold_drops_weak_dets():
    gts = [G("a", 1, 0, 0, 10, 10)]
    dets = [D("a", 1, 0.4, 0, 0, 10, 10)]
    cm = ev.confusion_matrix(det_record(dets), gt_record(gts), CLASSES, score_thresh=0.5)
    assert cm.fn[1] == 1 and cm.counts.sum() == 0
    cm_low = ev.confusion_matrix(det_record(dets), gt_record(gts), CLASSES, score_thresh=0.3)
    assert cm_low.counts[1, 1] == 1


def test_confusion_each_det_matches_at_most_one_gt():
    gts = [G("a", 1, 0, 0, 10, 10), G("a", 1, 0, 0, 11, 10)]
    dets = [D("a", 1, 0.9, 0, 0, 10, 10)]
    cm = ev.confusion_matrix(det_record(dets), gt_record(gts), CLASSES)
    assert cm.counts[1, 1] == 1
    assert cm.fn[1] == 1


def test_confusion_csv_shape():
    cm = ev.confusion_matrix(det_record([]), gt_record([G("a", 1, 0, 0, 5, 5)]), CLASSES)
    lines = cm.to_csv().strip().splitlines()
    assert lines[0] == "class,background,chair,table,FN"
    assert lines[1] == "background,0,0,0,0"
    assert lines[2] == "chair,0,0,0,1"


def test_confusion_diff_signs_and_marks():
    gts = [G("a", 1, 0, 0, 10, 10)]
    gts = gt_record(gts)
    base = ev.confusion_matrix(det_record([D("a", 2, 0.9, 0, 0, 10, 10)]), gts, CLASSES)
    other = ev.confusion_matrix(det_record([D("a", 1, 0.9, 0, 0, 10, 10)]), gts, CLASSES)
    diff = ev.confusion_diff(base, other)
    assert diff.counts[1, 1] == 1 and diff.counts[1, 2] == -1
    text = diff.format_text()
    rows = text.splitlines()
    chair_row = next(r for r in rows if r.lstrip().startswith("chair"))
    assert "1+" in chair_row and "-1+" in chair_row


def test_confusion_diff_requires_same_classes():
    a = ev.confusion_matrix(det_record([]), gt_record([]), CLASSES)
    b = ev.confusion_matrix(det_record([]), gt_record([]), ("background", "chair"))
    with pytest.raises(ValueError):
        ev.confusion_diff(a, b)


# ----------------------------------------------------------------- loaders

def test_jsonl_loaders_round_trip(tmp_path):
    det_path = tmp_path / "dets.jsonl"
    det_path.write_text(
        '{"image_id": "a", "class": "chair", "score": 0.75,'
        ' "x1": 1, "y1": 2, "x2": 3, "y2": 4}\n'
        "\n"
        '{"image_id": "a", "class": 2, "score": 0.5,'
        ' "x1": 0, "y1": 0, "x2": 9, "y2": 9}\n'
    )
    dets = ev.load_detections(str(det_path), list(CLASSES))
    assert dets.class_id[0] == 1 and dets.class_id[1] == 2
    assert tuple(dets.box[0]) == (1, 2, 3, 4)


def test_jsonl_parse_error_reports_line_and_offset(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = '{"image_id": "a", "class": 1, "score": 1, "x1": 0, "y1": 0, "x2": 1, "y2": 1}\n'
    path.write_text(good + "{not json}\n")
    with pytest.raises(ParseError) as err:
        ev.load_detections(str(path))
    assert "line 2" in str(err.value)
    assert err.value.offset == len(good)


def test_jsonl_unknown_class_name(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"image_id": "a", "class": "sofa", "score": 1,'
                    ' "x1": 0, "y1": 0, "x2": 1, "y2": 1}\n')
    with pytest.raises(ParseError):
        ev.load_detections(str(path), list(CLASSES))


def test_image_codes_match_numpy_unique():
    ids = np.array(["b", "", "a\x00", "a", "é", "b", "\u4e2d", "a\x00", "", "Z"], dtype=object)
    names, codes = ev._image_codes(ids)
    expected_names, expected_codes = np.unique(ids, return_inverse=True)
    assert names == expected_names.tolist()
    assert codes.tolist() == expected_codes.tolist()
    assert ev._image_codes(ids[:0])[1].tolist() == []


def test_ap_csv_formats_na_and_map():
    text = ev.ap_csv({1: 0.5, 2: None}, list(CLASSES), 0.5)
    lines = text.strip().splitlines()
    assert lines[0] == "class,ap"
    assert "chair,0.500000" in lines
    assert "table,NA" in lines
    assert lines[-1] == "mAP,0.500000"


def test_coco_csv_lists_all_rows():
    summary = {"ap": 0.25, "ap50": 0.5, "ap75": None,
               "ap_small": None, "ap_medium": 0.1, "ap_large": 1.0}
    lines = ev.coco_csv(summary).strip().splitlines()
    assert lines[0] == "metric,value"
    assert "ap75,NA" in lines
    assert "ap_large,1.000000" in lines
