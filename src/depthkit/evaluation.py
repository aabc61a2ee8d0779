"""Detection-quality metrics: IoU, NMS, average precision, confusion.

Both AP protocols share one ranking per class: the class's ground truth
grouped by image, and its detections sorted by score, each carrying the
IoUs with the ground truth of its image, computed once.  Two match rules
read that ranking.

- 11-point (PASCAL VOC): a detection's best match is the first box of
  highest IoU among *all* boxes in its image.  With no such box, or one
  below the IoU threshold, it is a false positive; on a difficult box it
  is ignored (unless difficult boxes count); on a box already matched it
  is a false positive; otherwise it is a true positive.  Precision is
  interpolated at recalls 0, 0.1, .., 1.
- Multi-threshold (COCO): IoU 0.50 to 0.95 in steps of 0.05, in size
  buckets all / small / medium / large.  A detection takes the
  best-overlap box not yet matched at the threshold, preferring boxes
  that count (not difficult, inside the bucket); matching only an
  ignored box, or matching nothing while itself outside the bucket,
  makes it ignored rather than a false positive.  Every
  (bucket, threshold, class) cell is computed once and every summary
  is a mean over those cells.  Precision is interpolated at 101 recall
  points.

Both interpolate the same way: with ignored detections left out,
recall never decreases with rank, so the best precision at recall >= r
is the running maximum of precision taken from the right, read at the
first rank that reaches r.

The confusion matrix is class-agnostic at match time: each ground-truth
box, in input order, takes the highest-scoring unmatched detection that
overlaps it at the IoU threshold, whatever class that detection claims.
Unmatched ground truth lands in a trailing false-negative column.

Deterministic ordering everywhere: detections sort by score descending
with ties broken by image id then box coordinates ascending.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .netpbm import ParseError

# (10 + i) / 20 rather than 0.5 + 0.05 * i: each threshold must be the
# correctly rounded double of its decimal so that ratio-valued IoUs and
# recalls compare exactly against it
COCO_THRESHOLDS = tuple((10 + i) / 20 for i in range(10))

# size buckets by box area in squared pixels: small < 32^2,
# 32^2 <= medium <= 96^2, large > 96^2
_SMALL_MAX = 32.0 * 32.0
_MEDIUM_MAX = 96.0 * 96.0


@dataclass(frozen=True)
class BBox:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise ValueError(f"degenerate box {(self.x1, self.y1, self.x2, self.y2)}")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class Detection:
    image_id: str
    class_id: int
    score: float
    box: BBox


@dataclass(frozen=True)
class GroundTruth:
    image_id: str
    class_id: int
    box: BBox
    difficult: bool = False


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 for disjoint boxes."""
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def _det_sort_key(d: Detection):
    return (-d.score, d.image_id, d.box.x1, d.box.y1, d.box.x2, d.box.y2)


def nms(dets: list[Detection], iou_thresh: float, top_k: int | None = None) -> list[Detection]:
    """Greedy non-maximum suppression over one image and one class.

    Boxes are visited by descending score (coordinate ascension breaks
    ties); a box is suppressed when its IoU with any kept box reaches
    ``iou_thresh``.  The kept list is truncated to ``top_k`` when given.
    """
    if not 0 < iou_thresh <= 1:
        raise ValueError(f"iou_thresh must be in (0, 1], got {iou_thresh}")
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if len({(d.image_id, d.class_id) for d in dets}) > 1:
        raise ValueError("nms expects detections from a single image and class")
    kept: list[Detection] = []
    for det in sorted(dets, key=_det_sort_key):
        if all(iou(det.box, k.box) < iou_thresh for k in kept):
            kept.append(det)
    if top_k is not None:
        kept = kept[:top_k]
    return kept


# arange/10, not linspace: recall levels must be the correctly rounded
# doubles of i/10 (i/100) or a recall of exactly 3/5 misses 0.6
_VOC_RECALLS = np.arange(11) / 10.0
_COCO_RECALLS = np.arange(101) / 100.0


def _interp_ap(flags: list[int], npos: int, points: np.ndarray) -> float:
    """Interpolated AP of ranked TP (1) / FP (0) flags, ignored ones left out.

    Recall never decreases with rank, so the best precision at recall >= r
    is the running maximum of precision taken from the right, read at the
    first rank reaching r; a point no rank reaches scores 0.
    """
    tp_cum = np.cumsum(flags)
    recall = tp_cum / npos
    precision = tp_cum / np.arange(1, len(flags) + 1)
    best = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    total = 0.0
    # left to right as floats: sum() compensates (3.12+), np.sum pairs
    for value in best[np.searchsorted(recall, points)].tolist():
        total += value
    return total / len(points)


def _rank_class(dets: list[Detection], gts: list[GroundTruth], class_id: int):
    """One class ranked once, for both matchers.

    Returns the class's ground truth and its detections in
    ``_det_sort_key`` order, each paired with the indices (into that
    ground truth) of the boxes in its image and its IoU with each.
    """
    cls_gts = [gt for gt in gts if gt.class_id == class_id]
    by_image: dict[str, list[int]] = {}
    for j, gt in enumerate(cls_gts):
        by_image.setdefault(gt.image_id, []).append(j)
    ranked = []
    for det in sorted((d for d in dets if d.class_id == class_id), key=_det_sort_key):
        cands = by_image.get(det.image_id, [])
        ranked.append((det, cands, [iou(det.box, cls_gts[j].box) for j in cands]))
    return cls_gts, ranked


def voc_ap(
    dets: list[Detection],
    gts: list[GroundTruth],
    class_id: int,
    iou_thresh: float = 0.5,
    use_difficult: bool = False,
) -> float | None:
    """11-point interpolated average precision for one class.

    Difficult ground truth neither counts toward recall nor penalizes a
    detection matched to it (unless ``use_difficult``).  Returns None
    when the class has no creditable ground truth.
    """
    cls_gts, ranked = _rank_class(dets, gts, class_id)
    npos = sum(1 for gt in cls_gts if use_difficult or not gt.difficult)
    if npos == 0:
        return None
    matched: set[int] = set()
    flags = []
    for _, cands, ious in ranked:
        best = max(ious, default=0.0)
        if not (best > 0 and best >= iou_thresh):
            flags.append(0)
            continue
        j = cands[ious.index(best)]
        if cls_gts[j].difficult and not use_difficult:
            continue
        flags.append(0 if j in matched else 1)
        matched.add(j)
    return _interp_ap(flags, npos, _VOC_RECALLS)


def mean_ap(
    dets: list[Detection],
    gts: list[GroundTruth],
    class_ids: list[int],
    iou_thresh: float = 0.5,
    use_difficult: bool = False,
) -> tuple[float | None, dict[int, float | None]]:
    """Per-class 11-point AP and their mean over defined classes."""
    per_class = {
        cid: voc_ap(dets, gts, cid, iou_thresh, use_difficult) for cid in class_ids
    }
    defined = [v for v in per_class.values() if v is not None]
    return (sum(defined) / len(defined) if defined else None), per_class


def _area_in_bucket(area: float, bucket: str) -> bool:
    if bucket == "all":
        return True
    if bucket == "small":
        return area < _SMALL_MAX
    if bucket == "medium":
        return _SMALL_MAX <= area <= _MEDIUM_MAX
    return area > _MEDIUM_MAX


def _coco_cell(ranked, ignored: list[bool], npos: int, thresh: float, bucket: str) -> float:
    """AP for one (bucket, IoU threshold, class) cell of a ranked class."""
    matched: set[int] = set()
    flags = []
    for det, cands, ious in ranked:
        best_iou, best_j = 0.0, -1
        best_ign_iou, best_ign_j = 0.0, -1
        for j, ov in zip(cands, ious):
            if ov < thresh or j in matched:
                continue
            if ignored[j]:
                if ov > best_ign_iou:
                    best_ign_iou, best_ign_j = ov, j
            elif ov > best_iou:
                best_iou, best_j = ov, j
        if best_j >= 0:
            matched.add(best_j)
            flags.append(1)
        elif best_ign_j >= 0:
            matched.add(best_ign_j)
        elif _area_in_bucket(det.box.area, bucket):
            flags.append(0)
    return _interp_ap(flags, npos, _COCO_RECALLS)


def coco_ap(
    dets: list[Detection],
    gts: list[GroundTruth],
    class_ids: list[int],
) -> dict[str, float | None]:
    """Multi-threshold AP summary.

    Returns ``ap`` (mean over IoU 0.50:0.05:0.95), ``ap50``, ``ap75``,
    and ``ap_small`` / ``ap_medium`` / ``ap_large``.  Every mean runs
    over the (class, threshold) cells with creditable ground truth; a
    bucket nobody populates reports None.
    """
    cells: dict[tuple[str, float, int], float | None] = {}
    for cid in set(class_ids):
        cls_gts, ranked = _rank_class(dets, gts, cid)
        for bucket in ("all", "small", "medium", "large"):
            ignored = [gt.difficult or not _area_in_bucket(gt.box.area, bucket)
                       for gt in cls_gts]
            npos = ignored.count(False)
            for t in COCO_THRESHOLDS:
                cells[bucket, t, cid] = (
                    _coco_cell(ranked, ignored, npos, t, bucket) if npos else None
                )

    def mean(bucket: str, thresholds) -> float | None:
        defined = [v for t in thresholds for cid in class_ids
                   if (v := cells[bucket, t, cid]) is not None]
        return sum(defined) / len(defined) if defined else None

    return {
        "ap": mean("all", COCO_THRESHOLDS),
        "ap50": mean("all", COCO_THRESHOLDS[:1]),
        "ap75": mean("all", COCO_THRESHOLDS[5:6]),
        "ap_small": mean("small", COCO_THRESHOLDS),
        "ap_medium": mean("medium", COCO_THRESHOLDS),
        "ap_large": mean("large", COCO_THRESHOLDS),
    }


@dataclass
class ConfusionMatrix:
    """Rows are ground-truth classes; the trailing column is unmatched
    ground truth (false negatives)."""

    classes: tuple[str, ...]
    counts: np.ndarray
    fn: np.ndarray

    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1) + self.fn

    def to_csv(self) -> str:
        return _confusion_csv(self)


@dataclass
class ConfusionDiff:
    """Signed cell-wise difference of two confusion matrices."""

    classes: tuple[str, ...]
    counts: np.ndarray
    fn: np.ndarray

    def to_csv(self) -> str:
        return _confusion_csv(self)

    def format_text(self) -> str:
        """Plain-text table; improvements are marked with a trailing '+'.

        A cell improves when the diagonal gains, an off-diagonal
        confusion shrinks, or the false-negative column shrinks.
        """
        names = self.classes
        width = max(len(n) for n in names + ("FN",)) + 1
        lines = [" " * width + "".join(f"{n:>{width}}" for n in names) + f"{'FN':>{width}}"]
        for i, name in enumerate(names):
            cells = []
            for j in range(len(names)):
                v = int(self.counts[i, j])
                better = (v > 0) if i == j else (v < 0)
                cells.append(f"{v}{'+' if better and v != 0 else ''}".rjust(width))
            v = int(self.fn[i])
            cells.append(f"{v}{'+' if v < 0 else ''}".rjust(width))
            lines.append(f"{name:>{width}}" + "".join(cells))
        return "\n".join(lines) + "\n"


def confusion_matrix(
    dets: list[Detection],
    gts: list[GroundTruth],
    classes: list[str] | tuple[str, ...],
    iou_thresh: float = 0.5,
    score_thresh: float = 0.5,
) -> ConfusionMatrix:
    """Class-agnostic matching of ground truth to detections.

    Detections below ``score_thresh`` are dropped.  Ground-truth boxes
    are visited in input order; each takes the highest-scoring unmatched
    detection overlapping it at ``iou_thresh`` regardless of class.
    Every ground-truth instance lands in exactly one cell, so each row
    sums to that class's instance count.
    """
    k = len(classes)
    counts = np.zeros((k, k), dtype=np.int64)
    fn = np.zeros(k, dtype=np.int64)
    strong = [d for d in dets if d.score >= score_thresh]
    for d in strong:
        if not 0 <= d.class_id < k:
            raise ValueError(f"detection class id {d.class_id} outside table of {k}")
    dets_by_image: dict[str, list[Detection]] = {}
    for d in strong:
        dets_by_image.setdefault(d.image_id, []).append(d)
    used: dict[str, set[int]] = {}
    for gt in gts:
        if not 0 <= gt.class_id < k:
            raise ValueError(f"ground-truth class id {gt.class_id} outside table of {k}")
        cands = dets_by_image.get(gt.image_id, [])
        taken = used.setdefault(gt.image_id, set())
        best = None
        best_key = None
        for j, det in enumerate(cands):
            if j in taken:
                continue
            if iou(det.box, gt.box) < iou_thresh:
                continue
            key = (-det.score, det.box.x1, det.box.y1, det.box.x2, det.box.y2, j)
            if best_key is None or key < best_key:
                best, best_key = j, key
        if best is None:
            fn[gt.class_id] += 1
        else:
            taken.add(best)
            counts[gt.class_id, cands[best].class_id] += 1
    return ConfusionMatrix(classes=tuple(classes), counts=counts, fn=fn)


def confusion_diff(base: ConfusionMatrix, other: ConfusionMatrix) -> ConfusionDiff:
    """Cell-wise ``other - base``.  Class tables must match exactly."""
    if base.classes != other.classes:
        raise ValueError("confusion matrices describe different class tables")
    return ConfusionDiff(
        classes=base.classes,
        counts=other.counts - base.counts,
        fn=other.fn - base.fn,
    )


def _parse_box(raw: dict, where: str, offset: int) -> BBox:
    # a non-finite corner makes the IoU NaN, which every threshold test
    # then misreads, so it is refused like a malformed box
    try:
        corners = tuple(float(raw[k]) for k in ("x1", "y1", "x2", "y2"))
        if not all(math.isfinite(v) for v in corners):
            raise ValueError(f"corners must be finite, got {corners}")
        box = BBox(*corners)
    except KeyError as exc:
        raise ParseError(f"{where}: missing box field {exc}", offset) from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: bad box: {exc}", offset) from None
    return box


def _class_id(raw: dict, classes: list[str] | None, where: str, offset: int) -> int:
    value = raw.get("class")
    if value is None:
        raise ParseError(f"{where}: missing 'class'", offset)
    if isinstance(value, str):
        if classes is None:
            raise ParseError(f"{where}: class given by name {value!r} but no class table loaded",
                             offset)
        try:
            return classes.index(value)
        except ValueError:
            raise ParseError(f"{where}: unknown class {value!r}", offset) from None
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer()) or value < 0):
        raise ParseError(f"{where}: class id must be a non-negative integer, got {value!r}",
                         offset)
    return int(value)


def _difficult(raw: dict, where: str, offset: int) -> bool:
    value = raw.get("difficult", False)
    if not isinstance(value, bool):
        raise ParseError(f"{where}: difficult must be true or false, got {value!r}", offset)
    return value


def _score(raw: dict, where: str, offset: int) -> float:
    # scores order every ranking; NaN compares false with everything, so
    # non-finite scores are refused outright
    try:
        value = float(raw["score"])
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{where}: score must be a number, got {raw['score']!r}", offset) from None
    if not math.isfinite(value):
        raise ParseError(f"{where}: score must be finite, got {value!r}", offset)
    return value


def _iter_jsonl(path: str):
    offset = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if stripped:
                try:
                    record = json.loads(stripped)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"{path} line {lineno}: {exc.msg}", offset) from None
                if not isinstance(record, dict):
                    raise ParseError(f"{path} line {lineno}: record must be a JSON object",
                                     offset)
                yield lineno, offset, record
            offset += len(line)


def load_detections(path: str, classes: list[str] | None = None) -> list[Detection]:
    """Read detections from JSON lines.

    Each record: ``image_id``, ``class`` (table name or non-negative
    integer id), a finite ``score``, and finite box corners ``x1 y1 x2 y2``.
    """
    out = []
    for lineno, offset, raw in _iter_jsonl(path):
        where = f"{path} line {lineno}"
        if "image_id" not in raw:
            raise ParseError(f"{where}: missing 'image_id'", offset)
        if "score" not in raw:
            raise ParseError(f"{where}: missing 'score'", offset)
        out.append(
            Detection(
                image_id=str(raw["image_id"]),
                class_id=_class_id(raw, classes, where, offset),
                score=_score(raw, where, offset),
                box=_parse_box(raw, where, offset),
            )
        )
    return out


def load_groundtruth(path: str, classes: list[str] | None = None) -> list[GroundTruth]:
    """Read ground truth from JSON lines; ``difficult``, a JSON boolean,
    defaults false."""
    out = []
    for lineno, offset, raw in _iter_jsonl(path):
        where = f"{path} line {lineno}"
        if "image_id" not in raw:
            raise ParseError(f"{where}: missing 'image_id'", offset)
        out.append(
            GroundTruth(
                image_id=str(raw["image_id"]),
                class_id=_class_id(raw, classes, where, offset),
                box=_parse_box(raw, where, offset),
                difficult=_difficult(raw, where, offset),
            )
        )
    return out


def load_classes(path: str) -> list[str]:
    """Class table: a JSON array of unique names."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise ParseError(f"{path}: class table must be a JSON array of strings", 0)
    if len(set(raw)) != len(raw):
        raise ParseError(f"{path}: class names must be unique", 0)
    return raw


def format_metric(value: float | None) -> str:
    """A metric as written everywhere: six decimals, or NA when undefined."""
    return "NA" if value is None else f"{value:.6f}"


def _csv_table(header: list, rows) -> str:
    """CSV text of a header row and rows: minimal quoting, LF line ends."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _confusion_csv(table: ConfusionMatrix | ConfusionDiff) -> str:
    return _csv_table(
        ["class", *table.classes, "FN"],
        ([name, *table.counts[i].tolist(), int(table.fn[i])]
         for i, name in enumerate(table.classes)),
    )


def ap_csv(
    per_class: dict[int, float | None],
    classes: list[str] | tuple[str, ...],
    map_value: float | None,
) -> str:
    rows = [
        [classes[cid] if 0 <= cid < len(classes) else str(cid), format_metric(per_class[cid])]
        for cid in sorted(per_class)
    ]
    rows.append(["mAP", format_metric(map_value)])
    return _csv_table(["class", "ap"], rows)


def coco_csv(summary: dict[str, float | None]) -> str:
    return _csv_table(
        ["metric", "value"],
        ([key, format_metric(summary[key])]
         for key in ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large")),
    )
