"""Metrics of detection quality: IoU, average precision, confusion.

Detections and ground truth load into column records, one per file:
image ids, class ids, box corners, and scores or ``difficult`` flags.
Each scorer selects its classes from those columns and codes the image
ids in sorted order, so that codes order like the ids.  Detections rank
by score descending, ties broken by image id then box coordinates
ascending; one ``np.lexsort`` on ``(y2, x2, y1, x1, image, -score)``
gives that order, stable like ``sorted``.  ``iou`` is the one IoU,
element-wise on arrays, and every (detection, candidate box) pair is
scored once per call.

Two AP protocols read the same columns.  A detection's candidates are
the ground truth of its class in its image, in input order.

- 11-point (PASCAL VOC): a detection's best match is the first box of
  highest IoU among its candidates.  With no such box, or one below the
  IoU threshold, it is a false positive; on a difficult box it is
  ignored (unless difficult boxes count); on a box an earlier-ranked
  detection took it is a false positive; otherwise it is a true
  positive.  The best box never depends on what was taken before, so
  the first detection in rank order to take a box is its TP and every
  later one an FP: no loop over ranks is needed.
- Multi-threshold (COCO): IoU 0.50 to 0.95 in steps of 0.05, in size
  buckets all / small / medium / large.  A detection takes the
  best-overlap box not yet matched at the threshold, preferring boxes
  that count (not difficult, inside the bucket); matching only an
  ignored box, or matching nothing while itself outside the bucket,
  makes it ignored rather than a false positive.

  That greedy rule is sequential only within one (class, image) group:
  a detection's candidates belong to its group alone, so groups never
  share a box.  Matching therefore steps over ranks, not detections:
  step k takes the k-th ranked detection of every group at once and
  decides it for all 4 buckets x 10 thresholds in one array operation,
  exactly as the k-th iteration of each group's own loop would, after
  the same k-1 earlier detections.  Ties go to the first of equal IoUs,
  as a scan with a strict ``>`` does.  The number of steps is the
  largest group, not the number of detections.  Groups step together
  only with groups whose candidate counts are within a factor of two
  of theirs, so one crowded image pads no other group.

Both protocols interpolate the same way: with ignored detections left
out, recall never decreases with rank, so the best precision at recall
>= r is the running maximum of precision taken from the right, read at
the first rank that reaches r.  Every (bucket, threshold, class) cell is
computed once, all cells in one pass with the same divisions and the
same left-to-right sum as a cell alone, and every summary is a mean over
those cells.  Precision is interpolated at 11 (VOC) or 101 (COCO)
recall points.

The confusion matrix is class-agnostic at match time: each ground-truth
box, in input order, takes the highest-scoring unmatched detection that
overlaps it at the IoU threshold, whatever class that detection claims.
Boxes of different images never compete, so it too steps over the k-th
box of every image at once.  Unmatched ground truth lands in a trailing
false-negative column.

JSON lines are read once per file and decoded line by line: each line
holds exactly one JSON object, and a malformed line, undecodable text
included, is a ``ParseError`` with its line number and byte offset.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .netpbm import ParseError, decode_json, read_json

# (10 + i) / 20 rather than 0.5 + 0.05 * i: each threshold must be the
# correctly rounded double of its decimal so that ratio-valued IoUs and
# recalls compare exactly against it
COCO_THRESHOLDS = tuple((10 + i) / 20 for i in range(10))

# size buckets by box area in squared pixels: small < 32^2,
# 32^2 <= medium <= 96^2, large > 96^2
_SMALL_MAX = 32.0 * 32.0
_MEDIUM_MAX = 96.0 * 96.0


def _box_fault(corners: tuple) -> str | None:
    """Why corners ``(x1, y1, x2, y2)`` make no box, or None."""
    # a non-finite corner makes the IoU NaN, which every threshold test
    # then misreads
    if not all(map(math.isfinite, corners)):
        return f"corners must be finite, got {corners}"
    if not (corners[2] > corners[0] and corners[3] > corners[1]):
        return f"degenerate box {corners}"
    return None


def _column(values, dtype, n: int) -> np.ndarray:
    col = np.asarray(values, dtype=dtype).reshape(-1)
    if len(col) != n:
        raise ValueError(f"record columns differ in length: {len(col)} values, not {n}")
    return col


class _Record:
    """Rows held as columns; ``len`` is the row count.

    ``image_id`` is an object array of ``str`` (a fixed-width unicode
    array would drop trailing NULs), ``class_id`` int64 (an object array
    of exact ints when one does not fit), ``box`` ``(n, 4)`` float64
    corners ``x1 y1 x2 y2``.  Every box must be finite with ``x2 > x1``
    and ``y2 > y1``, or the record raises ``ValueError``.
    """

    def __init__(self, image_id, class_id, box):
        self.image_id = np.asarray(image_id, dtype=object).reshape(-1)
        n = len(self.image_id)
        class_id = np.asarray(class_id)
        self.class_id = _column(class_id, None if class_id.dtype == object else np.int64, n)
        self.box = _column(box, float, 4 * n).reshape(n, 4)
        x1, y1, x2, y2 = self.box.T
        bad = ~(np.isfinite(self.box).all(axis=1) & (x2 > x1) & (y2 > y1))
        if bad.any():
            raise ValueError(_box_fault(tuple(self.box[bad.argmax()].tolist())))

    def __len__(self) -> int:
        return len(self.image_id)


class DetRecord(_Record):
    """Detections as columns, plus a finite float64 ``score`` per row."""

    def __init__(self, image_id, class_id, score, box):
        super().__init__(image_id, class_id, box)
        self.score = _column(score, float, len(self))
        finite = np.isfinite(self.score)
        if not finite.all():
            raise ValueError(f"scores must be finite, got {self.score[~finite][0]}")


class GtRecord(_Record):
    """Ground truth as columns, plus a bool ``difficult`` per row."""

    def __init__(self, image_id, class_id, box, difficult):
        super().__init__(image_id, class_id, box)
        self.difficult = _column(difficult, bool, len(self))


def iou(a, b):
    """Intersection over union; 0 for disjoint boxes.

    ``a`` and ``b`` are corners ``(..., 4)``, arrays or tuples; they
    broadcast against each other and give an array, or a float for two
    single boxes.  The operations run in one order (intersection sides,
    ``inter = iw * ih``, then ``inter / (area_a + area_b - inter)``), so
    a pair scores the same bits alone or inside any batch.
    """
    p, q = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    iw = np.minimum(p[..., 2], q[..., 2]) - np.maximum(p[..., 0], q[..., 0])
    ih = np.minimum(p[..., 3], q[..., 3]) - np.maximum(p[..., 1], q[..., 1])
    inter = iw * ih
    union = _area(p) + _area(q) - inter
    out = np.zeros(np.shape(inter))
    np.divide(inter, union, out=out, where=~((iw <= 0) | (ih <= 0)))
    return float(out) if out.ndim == 0 else out


def _area(corners: np.ndarray):
    return (corners[..., 2] - corners[..., 0]) * (corners[..., 3] - corners[..., 1])


# arange/10, not linspace: recall levels must be the correctly rounded
# doubles of i/10 (i/100) or a recall of exactly 3/5 misses 0.6
_VOC_RECALLS = np.arange(11) / 10.0
_COCO_RECALLS = np.arange(101) / 100.0


def _interp_runs(tp: np.ndarray, kept: np.ndarray, lengths: np.ndarray,
                 npos: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Interpolated AP of runs of ranked TP flags, one AP per run.

    ``tp`` and ``kept`` are flat bool arrays holding the runs back to
    back, run r being the next ``lengths[r]`` entries; entries not kept
    are left out and ``npos[r]`` sets run r's recall.

    Recall never decreases with rank, so the best precision at recall >= r
    is the running maximum of precision taken from the right, read at the
    first rank reaching r; a point no rank reaches scores 0.  Only true
    positives matter: precision rises only at one, and the first rank
    reaching a recall above 0 is one.  The k-th TP of a run, the s-th
    entry kept, has recall ``k / npos`` and precision ``k / s``: the same
    divisions, so the same bits, as over every rank.
    """
    runs, width = len(lengths), len(points)
    ends = np.cumsum(lengths)
    kept_at = np.flatnonzero(kept)
    hits = np.flatnonzero(tp[kept_at])          # TPs, by position among kept
    run = np.searchsorted(ends, kept_at[hits], side="right")
    first_hit = np.searchsorted(run, np.arange(runs))
    k = np.arange(1, len(hits) + 1) - first_hit[run]
    seen = hits + 1 - np.searchsorted(kept_at, ends - lengths)[run]
    # every run's TPs, then precision 0 for the ranks past its last one
    precision = np.zeros(len(hits) + runs)
    precision[np.arange(len(hits)) + run] = k / seen
    # running maximum from the right within each run: rank the values
    # exactly and put the run above the rank, earlier runs higher
    values, rank = np.unique(precision, return_inverse=True)
    span = np.diff(first_hit, append=len(hits)) + 1
    key = np.repeat(np.arange(runs, 0, -1), span) * len(values) + rank
    best = values[np.maximum.accumulate(key[::-1])[::-1] % len(values)]
    # the first TP reaching points[i] follows every TP below it: count,
    # per run, the TPs whose recall lies below each point
    above = np.searchsorted(points, k / npos[run], side="right")
    below = np.bincount(above * runs + run, minlength=(width + 1) * runs)
    below = below.reshape(width + 1, runs)
    at = np.cumsum(span) - span                 # each run's first slot
    # left to right as floats: sum() compensates (3.12+), np.sum pairs
    total = np.zeros(runs)
    for count in below[:-1]:
        at = at + count
        total += best[at]
    return total / width


_BUCKETS = ("all", "small", "medium", "large")


def _area_in_bucket(area, bucket: str):
    """Size-bucket membership of a box area or an array of them."""
    if bucket == "all":
        return np.full(np.shape(area), True)
    if bucket == "small":
        return area < _SMALL_MAX
    if bucket == "medium":
        return (_SMALL_MAX <= area) & (area <= _MEDIUM_MAX)
    return area > _MEDIUM_MAX


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal sorted ``keys``, longest run
    first (ties in position order), so the runs still going after k
    entries are always a prefix."""
    starts = np.flatnonzero(np.diff(keys, prepend=keys[:1] - 1))
    sizes = np.diff(starts, append=len(keys))
    longest = np.argsort(-sizes, kind="stable")
    return starts[longest], sizes[longest]


class _Pairs(NamedTuple):
    """Box i's candidates are ``cand[start[i]:start[i] + count[i]]``,
    with their IoUs at the same places in ``ious``."""

    start: np.ndarray
    count: np.ndarray
    cand: np.ndarray
    ious: np.ndarray

    def padded(self, rows: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Candidates and IoUs ``(len(rows), width)`` of ``rows``, -1 in
        both past a row's own candidates."""
        slots = np.arange(width)
        real = slots < self.count[rows][:, None]
        at = (self.start[rows][:, None] + slots)[real]
        cand = np.full(real.shape, -1)
        ious = np.full(real.shape, -1.0)
        cand[real], ious[real] = self.cand[at], self.ious[at]
        return cand, ious


def _overlaps(boxes: np.ndarray, keys: np.ndarray, cand_box: np.ndarray,
              cand_keys: np.ndarray) -> _Pairs:
    """Each box against every candidate of the same key, candidates in
    their given order; one ``iou`` call scores every pair."""
    order = np.argsort(cand_keys, kind="stable")
    ranked = cand_keys[order]
    first = np.searchsorted(ranked, keys)
    count = np.searchsorted(ranked, keys, side="right") - first
    start = np.cumsum(count) - count
    owner = np.repeat(np.arange(len(keys)), count)
    cand = order[first[owner] + np.arange(len(owner)) - start[owner]]
    return _Pairs(start, count, cand, iou(boxes[owner], cand_box[cand]))


def _width_classes(width: np.ndarray):
    """``(rows, widest)`` for the rows with candidates, grouped so that
    widths in a group lie within a factor of two: padding a group to its
    widest row at most doubles it, however wide one crowded image is.
    Rows keep their order within a group."""
    has = width > 0
    group = np.ceil(np.log2(np.where(has, width, 1))).astype(np.int64)
    for g in np.unique(group[has]):
        rows = np.flatnonzero(has & (group == g))
        yield rows, int(width[rows].max())


def _class_positions(classes: list, class_id: np.ndarray) -> np.ndarray:
    """Position of each id in ``classes``, -1 for an id not there."""
    position = dict(zip(classes, range(len(classes))))
    ids, row = np.unique(class_id, return_inverse=True)
    return np.array([position.get(i, -1) for i in ids.tolist()], dtype=np.int64)[row]


def _image_codes(image_id: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct image ids in sorted order, and each row's position
    among them: codes order like the ids."""
    ids = image_id.tolist()
    names = sorted(dict.fromkeys(ids))
    code = dict(zip(names, range(len(names))))
    return names, np.array([code[i] for i in ids], dtype=np.intp)


class _Columns:
    """The detections and ground truth of ``class_ids``, ranked and paired.

    ``det_cls``/``gt_cls`` are class positions in ``classes`` (the
    distinct ``class_ids`` in first-seen order); rows of other classes
    are dropped.  ``rank`` lists the detections class by class, each
    class by score descending, then image id and corners ascending;
    ``pairs`` holds each detection's candidates, the ground truth of its
    class in its image in input order.
    """

    def __init__(self, dets: DetRecord, gts: GtRecord, class_ids):
        self.classes = list(dict.fromkeys(class_ids))
        det_cls = _class_positions(self.classes, dets.class_id)
        gt_cls = _class_positions(self.classes, gts.class_id)
        d, g = det_cls >= 0, gt_cls >= 0
        self.det_cls, self.gt_cls = det_cls[d], gt_cls[g]
        self.det_box, self.gt_box = dets.box[d], gts.box[g]
        self.difficult = gts.difficult[g]
        names, image = _image_codes(np.concatenate([dets.image_id[d], gts.image_id[g]]))
        det_img, gt_img = np.split(image, [len(self.det_cls)])
        x1, y1, x2, y2 = self.det_box.T
        ranked = np.lexsort((y2, x2, y1, x1, det_img, -dets.score[d]))
        self.rank = ranked[np.argsort(self.det_cls[ranked], kind="stable")]
        # one key per (class, image): a detection's group and its candidates
        self.det_key = self.det_cls * len(names) + det_img
        gt_key = self.gt_cls * len(names) + gt_img
        self.pairs = _overlaps(self.det_box, self.det_key, self.gt_box, gt_key)
        self.group_rank = ranked[np.argsort(self.det_key[ranked], kind="stable")]


def _class_aps(c: _Columns, tp: np.ndarray, kept: np.ndarray, npos: np.ndarray,
               points: np.ndarray) -> np.ndarray:
    """Interpolated AP ``(rows, classes)`` of every row of ``tp`` and
    ``kept`` flags ``(rows, n)`` per detection, for every class; a class
    with ``npos`` 0 reads 0."""
    sizes = np.bincount(c.det_cls, minlength=len(c.classes))
    ap = _interp_runs(tp[:, c.rank].ravel(), kept[:, c.rank].ravel(), np.tile(sizes, len(tp)),
                      np.maximum(npos, 1).ravel(), points)
    return ap.reshape(len(tp), -1)


def mean_ap(
    dets: DetRecord,
    gts: GtRecord,
    class_ids: list[int],
    iou_thresh: float = 0.5,
    use_difficult: bool = False,
) -> tuple[float | None, dict[int, float | None]]:
    """Per-class 11-point interpolated AP and their mean over the classes
    that have one.

    Difficult ground truth neither counts toward recall nor penalizes a
    detection matched to it (unless ``use_difficult``).  A class without
    creditable ground truth has AP None.

    A detection's best box is the first of highest IoU among all boxes
    of its class in its image; it does not depend on what was matched
    before.  So, in rank order, the first detection to take a creditable
    box is its true positive and every later one a false positive.
    """
    c = _Columns(dets, gts, class_ids)
    if not len(c.gt_cls):
        return None, dict.fromkeys(c.classes)
    best, box = np.zeros(len(c.det_cls)), np.full(len(c.det_cls), -1)
    for rows, width in _width_classes(c.pairs.count):
        cand, ious = c.pairs.padded(rows, width)
        pick = ious.argmax(axis=1)
        best[rows] = ious[np.arange(len(rows)), pick]
        box[rows] = cand[np.arange(len(rows)), pick]
    hit = (best > 0) & (best >= iou_thresh)
    credit = hit & (use_difficult | ~c.difficult[box])
    tp = np.zeros(len(c.det_cls), dtype=bool)
    claims = c.rank[credit[c.rank]]
    tp[claims[np.unique(box[claims], return_index=True)[1]]] = True
    # a best box that is difficult (and not credited) drops the detection
    kept = ~hit | credit
    npos = np.bincount(c.gt_cls[use_difficult | ~c.difficult], minlength=len(c.classes))
    ap = _class_aps(c, tp[None], kept[None], npos[None], _VOC_RECALLS)[0].tolist()
    per_class = {cid: ap[i] if npos[i] else None for i, cid in enumerate(c.classes)}
    defined = [v for v in per_class.values() if v is not None]
    return (sum(defined) / len(defined) if defined else None), per_class


def _coco_flags(c: _Columns, gt_ign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """TP and false-positive flags ``(4, 10, n)`` of every detection in
    every (bucket, threshold) cell; ``gt_ign`` ``(4, g)`` marks the
    ground truth each bucket ignores.

    Step k takes the k-th ranked detection of every (class, image) group
    at once and, for each bucket and threshold, its free box of highest
    IoU (the first of equal ones) at or above the threshold, preferring
    boxes that count over ignored ones.  One value per candidate slot
    encodes that preference exactly: the IoU of a box that counts, the
    IoU minus 1 of an ignored one (exact, as every threshold is at least
    0.5), -2 for no box.
    """
    n = len(c.det_cls)
    det_in = np.stack([_area_in_bucket(_area(c.det_box), b) for b in _BUCKETS])
    tp = np.zeros((len(_BUCKETS), len(COCO_THRESHOLDS), n), dtype=bool)
    # a group without candidates matches nothing: its detections stay
    # false positives inside the bucket
    fp = np.repeat(det_in[:, None], len(COCO_THRESHOLDS), axis=1)
    starts, sizes = _runs(c.det_key[c.group_rank])
    for groups, width in _width_classes(c.pairs.count[c.group_rank[starts]]):
        _coco_steps(c, starts[groups], sizes[groups], width, gt_ign, tp, fp, det_in)
    return tp, fp


def _coco_steps(c: _Columns, starts: np.ndarray, sizes: np.ndarray, width: int,
                gt_ign: np.ndarray, tp: np.ndarray, fp: np.ndarray, det_in: np.ndarray):
    """Match the groups ranked from ``starts`` (``sizes`` long, longest
    first, so the groups still going at step k are a prefix), whose
    candidates all fit ``width`` slots, into ``tp`` and ``fp``."""
    thresholds = np.array(COCO_THRESHOLDS)[:, None]
    # slot-major: every reduction over a group's candidates runs across
    # whole (bucket, threshold, group) planes
    cand = c.pairs.padded(c.group_rank[starts], width)[0].T             # (M, groups)
    ignored = gt_ign[:, cand.clip(0)].transpose(1, 0, 2)[:, :, None]  # (M, 4, 1, groups)
    free = np.ones((width, *tp.shape[:2], len(starts)), dtype=bool)
    for k in range(int(sizes[0])):
        live = int(np.count_nonzero(sizes > k))
        det = c.group_rank[starts[:live] + k]
        ov = c.pairs.padded(det, width)[1].T[:, None, None]
        value = np.where((ov >= thresholds) & free[..., :live], ov - ignored[..., :live], -2.0)
        best = value.max(axis=0)
        # the first slot holding the best value takes it, as a scan with
        # a strict '>' keeps the first of equal IoUs
        ties = (value == best) & (best > -2.0)
        free[..., :live] &= ~(ties & (ties.cumsum(axis=0, dtype=np.min_scalar_type(width)) == 1))
        tp[:, :, det] = best > 0
        fp[:, :, det] = (best == -2.0) & det_in[:, None, det]


def coco_ap(
    dets: DetRecord,
    gts: GtRecord,
    class_ids: list[int],
) -> dict[str, float | None]:
    """Multi-threshold AP summary.

    Returns ``ap`` (mean over IoU 0.50:0.05:0.95), ``ap50``, ``ap75``,
    and ``ap_small`` / ``ap_medium`` / ``ap_large``.  Every mean runs
    over the (class, threshold) cells with creditable ground truth; a
    bucket nobody populates reports None.
    """
    c = _Columns(dets, gts, class_ids)
    gt_ign = np.stack([c.difficult | ~_area_in_bucket(_area(c.gt_box), b) for b in _BUCKETS])
    tp, fp = _coco_flags(c, gt_ign)
    kept = tp | fp
    npos = np.stack([np.bincount(c.gt_cls[~ign], minlength=len(c.classes)) for ign in gt_ign])
    npos = np.repeat(npos, len(COCO_THRESHOLDS), axis=0)           # (40, classes)
    ap = _class_aps(c, tp.reshape(len(npos), -1), kept.reshape(len(npos), -1), npos,
                    _COCO_RECALLS).tolist()
    cells = {
        (bucket, t, cid): ap[row][i] if npos[row, i] else None
        for row, (bucket, t) in enumerate((b, t) for b in _BUCKETS for t in COCO_THRESHOLDS)
        for i, cid in enumerate(c.classes)
    }

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
    dets: DetRecord,
    gts: GtRecord,
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
    strong = dets.score >= score_thresh
    for what, ids in (("detection", dets.class_id[strong]), ("ground-truth", gts.class_id)):
        outside = (ids < 0) | (ids >= k)
        if outside.any():
            raise ValueError(f"{what} class id {ids[outside][0]} outside table of {k}")
    _, image = _image_codes(np.concatenate([dets.image_id[strong], gts.image_id]))
    det_img, gt_img = np.split(image, [np.count_nonzero(strong)])
    det_box = dets.box[strong]
    x1, y1, x2, y2 = det_box.T
    # each image's detections by (-score, x1, y1, x2, y2), ties in input order
    order = np.lexsort((y2, x2, y1, x1, -dets.score[strong], det_img))
    det_cls = dets.class_id[strong].astype(np.int64)[order]
    pairs = _overlaps(gts.box, gt_img, det_box[order], det_img[order])
    # step k takes the k-th ground-truth box of every image: the first
    # free candidate overlapping it is the best-keyed one
    match = np.full(len(gts), -1)
    by_image = np.argsort(gt_img, kind="stable")
    starts, sizes = _runs(gt_img[by_image])
    for images, width in _width_classes(pairs.count[by_image[starts]]):
        taken = np.zeros((len(images), width), dtype=bool)
        for step in range(int(sizes[images[0]])):
            live = int(np.count_nonzero(sizes[images] > step))
            gt = by_image[starts[images[:live]] + step]
            cand, ious = pairs.padded(gt, width)
            free = (cand >= 0) & (ious >= iou_thresh) & ~taken[:live]
            hit = np.flatnonzero(free.any(axis=1))
            pick = free[hit].argmax(axis=1)
            taken[hit, pick] = True
            match[gt[hit]] = cand[hit, pick]
    gt_cls = gts.class_id.astype(np.int64)
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (gt_cls[match >= 0], det_cls[match[match >= 0]]), 1)
    fn = np.bincount(gt_cls[match < 0], minlength=k).astype(np.int64)
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


def _parse_box(raw: dict, where: str, offset: int) -> tuple[float, float, float, float]:
    try:
        corners = (float(raw["x1"]), float(raw["y1"]), float(raw["x2"]), float(raw["y2"]))
    except KeyError as exc:
        raise ParseError(f"{where}: missing box field {exc}", offset) from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: bad box: {exc}", offset) from None
    fault = _box_fault(corners)
    if fault:
        raise ParseError(f"{where}: bad box: {fault}", offset)
    return corners


def _class_id(raw: dict, classes: list[str] | None, where: str, offset: int) -> int:
    value = raw.get("class")
    if type(value) is int and value >= 0:
        return value
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
    value = raw["score"]
    if type(value) is float and math.isfinite(value):
        return value
    try:
        score = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{where}: score must be a number, got {value!r}", offset) from None
    if not math.isfinite(score):
        raise ParseError(f"{where}: score must be finite, got {score!r}", offset)
    return score


def _iter_jsonl(path: str):
    """``(where, byte offset, record)`` of each non-blank line, ``where``
    naming the file and line.

    The file is read once; each line holds exactly one JSON object.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    offset = 0
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        stripped = line.strip()
        if stripped:
            where = f"{path} line {lineno}"
            record = decode_json(stripped, where, offset)
            if not isinstance(record, dict):
                raise ParseError(f"{where}: record must be a JSON object", offset)
            yield where, offset, record
        offset += len(line) + 1


def load_detections(path: str, classes: list[str] | None = None) -> DetRecord:
    """Read detections from JSON lines into one record.

    Each line: ``image_id``, ``class`` (table name or non-negative
    integer id), a finite ``score``, and finite box corners
    ``x1 y1 x2 y2``.  Lines are checked one by one, so a bad one fails
    with its own line number and byte offset.
    """
    image_id, class_id, score, box = [], [], [], []
    for where, offset, raw in _iter_jsonl(path):
        if "image_id" not in raw:
            raise ParseError(f"{where}: missing 'image_id'", offset)
        if "score" not in raw:
            raise ParseError(f"{where}: missing 'score'", offset)
        image_id.append(str(raw["image_id"]))
        class_id.append(_class_id(raw, classes, where, offset))
        score.append(_score(raw, where, offset))
        box.append(_parse_box(raw, where, offset))
    return DetRecord(image_id, class_id, score, box)


def load_groundtruth(path: str, classes: list[str] | None = None) -> GtRecord:
    """Read ground truth from JSON lines into one record; ``difficult``,
    a JSON boolean, defaults false."""
    image_id, class_id, box, difficult = [], [], [], []
    for where, offset, raw in _iter_jsonl(path):
        if "image_id" not in raw:
            raise ParseError(f"{where}: missing 'image_id'", offset)
        image_id.append(str(raw["image_id"]))
        class_id.append(_class_id(raw, classes, where, offset))
        box.append(_parse_box(raw, where, offset))
        difficult.append(_difficult(raw, where, offset))
    return GtRecord(image_id, class_id, box, difficult)


def load_classes(path: str) -> list[str]:
    """Class table: a JSON array of unique names."""
    raw = read_json(path)
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise ParseError(f"{path}: class table must be a JSON array of strings", 0)
    if len(set(raw)) != len(raw):
        raise ParseError(f"{path}: class names must be unique", 0)
    # a lone surrogate decodes from a JSON escape but cannot be written out
    try:
        "".join(raw).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ParseError(f"{path}: class names must encode as UTF-8: {exc}", 0) from None
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
