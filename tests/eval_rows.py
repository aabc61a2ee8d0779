"""Detections and ground truth as rows, their column records as the
loaders build them, their JSON lines as the loaders read them, and the
brute-force oracles over rows: VOC, COCO, confusion matrix and the
greedy matcher."""
import json
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from depthkit import evaluation


class Box(NamedTuple):
    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


class Det(NamedTuple):
    image_id: str
    class_id: int
    score: float
    box: Box


class Gt(NamedTuple):
    image_id: str
    class_id: int
    box: Box
    difficult: bool = False


def D(image, cls, score, x1, y1, x2, y2) -> Det:
    return Det(image, cls, score, Box(x1, y1, x2, y2))


def G(image, cls, x1, y1, x2, y2, difficult=False) -> Gt:
    return Gt(image, cls, Box(x1, y1, x2, y2), difficult)


def det_record(rows) -> evaluation.DetRecord:
    return evaluation.DetRecord([r.image_id for r in rows], [r.class_id for r in rows],
                                [r.score for r in rows], [r.box for r in rows])


def gt_record(rows) -> evaluation.GtRecord:
    return evaluation.GtRecord([r.image_id for r in rows], [r.class_id for r in rows],
                               [r.box for r in rows], [r.difficult for r in rows])


def write_jsonl(path, records):
    """Write each record as one JSON line, as the loaders read them."""
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def _ranked(dets, class_id):
    return sorted((d for d in dets if d.class_id == class_id),
                  key=lambda d: (-d.score, d.image_id, d.box.x1, d.box.y1,
                                 d.box.x2, d.box.y2))


def interp_ap_oracle(points, recall, precision):
    total = 0.0
    for point in points:
        best = 0.0
        for r, p in zip(recall, precision):
            if r >= point and p > best:
                best = p
        total += best
    return total / len(points)


def voc_oracle(dets, gts, class_id, iou_thresh, use_difficult):
    """Literal PASCAL protocol: argmax IoU first, then threshold and flags."""
    gt_list = [g for g in gts if g.class_id == class_id]
    npos = sum(1 for g in gt_list if use_difficult or not g.difficult)
    if npos == 0:
        return None
    claimed = set()
    tps, fps = [], []
    for d in _ranked(dets, class_id):
        best, best_ov = None, 0.0
        for i, g in enumerate(gt_list):
            if g.image_id != d.image_id:
                continue
            ov = evaluation.iou(d.box, g.box)
            if ov > best_ov:
                best, best_ov = i, ov
        if best is not None and best_ov >= iou_thresh:
            if gt_list[best].difficult and not use_difficult:
                continue  # neither credit nor penalty
            if best in claimed:
                tps.append(0)
                fps.append(1)
            else:
                claimed.add(best)
                tps.append(1)
                fps.append(0)
        else:
            tps.append(0)
            fps.append(1)
    tp = np.cumsum(tps)
    fp = np.cumsum(fps)
    return interp_ap_oracle(
        [i / 10 for i in range(11)], tp / npos, tp / np.maximum(tp + fp, 1)
    )


def in_bucket_oracle(box, bucket):
    area = (box.x2 - box.x1) * (box.y2 - box.y1)
    return {"all": True, "small": area < 32 * 32, "medium": 32 * 32 <= area <= 96 * 96,
            "large": area > 96 * 96}[bucket]


def coco_oracle(dets, gts, class_id, thresh, bucket):
    """COCO protocol for one class and IoU threshold, over the size bucket
    ``"all"``, ``"small"``, ``"medium"`` or ``"large"``: ground truth
    outside the bucket is ignored like difficult ground truth, and a
    detection outside it that matches nothing is ignored rather than
    counted as a false positive."""
    gt_list = [g for g in gts if g.class_id == class_id]
    ignored = [g.difficult or not in_bucket_oracle(g.box, bucket) for g in gt_list]
    npos = ignored.count(False)
    if npos == 0:
        return None
    claimed = set()
    flags = []
    for d in _ranked(dets, class_id):
        best = {False: (0.0, None), True: (0.0, None)}
        for i, g in enumerate(gt_list):
            if g.image_id != d.image_id or i in claimed:
                continue
            ov = evaluation.iou(d.box, g.box)
            if ov < thresh:
                continue
            if ov > best[ignored[i]][0]:
                best[ignored[i]] = (ov, i)
        if best[False][1] is not None:
            claimed.add(best[False][1])
            flags.append(1)
        elif best[True][1] is not None:
            claimed.add(best[True][1])
        elif in_bucket_oracle(d.box, bucket):
            flags.append(0)
    if not flags:
        return 0.0
    tp = np.cumsum(flags)
    fp = np.cumsum([1 - f for f in flags])
    return interp_ap_oracle(
        [i / 100 for i in range(101)], tp / npos, tp / np.maximum(tp + fp, 1e-12)
    )


def coco_mean_oracle(dets, gts, class_ids, thresholds, bucket):
    """The mean of the defined ``coco_oracle`` cells, thresholds outer and
    classes inner, or None when no cell is defined."""
    cells = [v for t in thresholds for cid in class_ids
             if (v := coco_oracle(dets, gts, cid, t, bucket)) is not None]
    return sum(cells) / len(cells) if cells else None


def confusion_oracle(dets, gts, k, iou_thresh, score_thresh):
    """Ground truth in input order, each taking the unmatched detection of
    its image with the smallest (-score, x1, y1, x2, y2, index) key."""
    counts = np.zeros((k, k), dtype=np.int64)
    fn = np.zeros(k, dtype=np.int64)
    strong = [d for d in dets if d.score >= score_thresh]
    taken = set()
    for gt in gts:
        best = None
        for j, d in enumerate(strong):
            if d.image_id != gt.image_id or j in taken:
                continue
            if evaluation.iou(d.box, gt.box) < iou_thresh:
                continue
            key = (-d.score, d.box.x1, d.box.y1, d.box.x2, d.box.y2, j)
            if best is None or key < best:
                best = key
        if best is None:
            fn[gt.class_id] += 1
        else:
            taken.add(best[-1])
            counts[gt.class_id, strong[best[-1]].class_id] += 1
    return counts, fn


def greedy_oracle(pairs, order, group, ignored, thresholds):
    """Each group on its own, each of its queries in ``order`` taking the
    first free candidate of highest value at or above the threshold; a
    value is the IoU, less 1 where the plane ignores the candidate,
    computed exactly."""
    match = np.full((len(ignored), len(thresholds), len(pairs.count)), -1)
    for plane, ign in enumerate(ignored):
        for t, thresh in enumerate(thresholds):
            for g in set(group.tolist()):
                taken = set()
                for q in (q for q in order.tolist() if group[q] == g):
                    best = None
                    for j in range(pairs.start[q], pairs.start[q] + pairs.count[q]):
                        cand, iou = int(pairs.cand[j]), float(pairs.ious[j])
                        if cand in taken or iou < thresh:
                            continue
                        value = Fraction(iou) - int(ign[cand])
                        if best is None or value > best[0]:
                            best = (value, cand)
                    if best is not None:
                        taken.add(best[1])
                        match[plane, t, q] = best[1]
    return match
