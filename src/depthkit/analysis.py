"""Scene statistics linking object distance to apparent size.

From ground-truth boxes and their depth maps we sample (average depth,
box area) pairs, accumulate them into 2-D histograms scaled to each
dataset's own range, and compare histograms across datasets by cosine
similarity of the mass-normalized cells.  Pinhole projection makes
apparent area shrink with distance, so the depth-area correlation of a
sane scene collection is strongly negative.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .encoding import DepthMap, quantize_u8
from .evaluation import GtRecord, _class_name, _csv_table
from .netpbm import ParseError, decimal_float


@dataclass
class SampleRecord:
    """(mean depth, box area) samples as columns; ``len`` is the sample
    count.  ``image_id`` is an object array of ``str``, ``class_id`` the
    ground truth's own ids, ``mean_depth`` and ``area`` float64."""

    image_id: np.ndarray
    class_id: np.ndarray
    mean_depth: np.ndarray
    area: np.ndarray

    def __len__(self) -> int:
        return len(self.area)


@dataclass
class Heatmap2D:
    """Counts over a (depth, area) grid.

    ``x_edges`` bound the depth axis (columns), ``y_edges`` the area axis
    (rows): ``counts[i, j]`` covers ``y_edges[i]..y_edges[i+1]`` by
    ``x_edges[j]..x_edges[j+1]``.  The upper edge of each axis is
    inclusive, so every in-range sample lands in exactly one cell.
    """

    x_edges: np.ndarray
    y_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        ny, nx = self.counts.shape
        if len(self.x_edges) != nx + 1 or len(self.y_edges) != ny + 1:
            raise ValueError("edge arrays do not frame the count grid")

    @property
    def total(self) -> float:
        return float(self.counts.sum())


def collect_samples(
    gts: GtRecord,
    depth_maps: Mapping[str, DepthMap] | Callable[[str], DepthMap],
) -> SampleRecord:
    """One (mean depth, area) sample per ground-truth box, in input order.

    The depth average runs over the valid pixels inside the box (corners
    rounded outward, clipped to the image); boxes with no valid depth
    yield no sample.  ``depth_maps`` gives each image's map, as a
    mapping or as a function of the image id; every referenced image
    must be present.  The images are sampled one at a time in first-seen
    order, each map fetched once and dropped after its boxes, so a
    function that loads maps from disk holds one map at a time.
    """
    if not callable(depth_maps):
        held = depth_maps

        def depth_maps(name):
            if name not in held:
                raise ValueError(f"no depth map for image {name!r}")
            return held[name]

    boxes_of: dict[str, list[int]] = {}
    for i, name in enumerate(gts.image_id.tolist()):
        boxes_of.setdefault(name, []).append(i)
    # an area past the float range reads inf, which no axis can frame
    with np.errstate(over="ignore"):
        area = (gts.box[:, 2] - gts.box[:, 0]) * (gts.box[:, 3] - gts.box[:, 1])
    found = []
    for name, boxes in boxes_of.items():
        found += _box_means(depth_maps(name), gts.box, np.array(boxes, dtype=np.intp))
    found.sort()
    rows = np.array([i for i, _ in found], dtype=np.intp)
    return SampleRecord(gts.image_id[rows], gts.class_id[rows],
                        np.array([m for _, m in found], dtype=np.float64), area[rows])


def _box_means(dm: DepthMap, box: np.ndarray, rows: np.ndarray) -> list[tuple[int, float]]:
    """``(row, mean depth)`` of each of ``box[rows]`` that holds valid depth in ``dm``."""
    height, width = dm.values.shape
    # clipped to the image before the cast; a corner past either edge
    # leaves an empty window either way
    x1, y1 = np.floor(box[rows, :2]).T
    x2, y2 = np.ceil(box[rows, 2:]).T
    x1, x2 = (np.clip(v, 0, width).astype(np.int64) for v in (x1, x2))
    y1, y2 = (np.clip(v, 0, height).astype(np.int64) for v in (y1, y2))
    found = []
    for i in np.flatnonzero((x2 > x1) & (y2 > y1)).tolist():
        window = (slice(y1[i], y2[i]), slice(x1[i], x2[i]))
        window_valid = dm.valid[window]
        if window_valid.any():
            found.append((int(rows[i]), dm.values[window][window_valid].mean()))
    return found


def _axis_edges(values: np.ndarray, bins: int, rng: tuple[float, float] | None) -> np.ndarray:
    lo, hi = (float(values.min()), float(values.max())) if rng is None else rng
    if not (hi >= lo and math.isfinite(hi - lo)):
        raise ValueError(f"bad axis range ({lo}, {hi})")
    if hi == lo:
        # degenerate axis: a single bin holds everything
        return np.array([lo, lo + 1.0])
    return np.linspace(lo, hi, bins + 1)


def _bin(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin of each value, -1 outside the edges; the top edge is inclusive."""
    lo, hi = edges[0], edges[-1]
    n = len(edges) - 1
    # a degenerate axis of huge values may have hi == lo: the top edge
    # takes the last bin before any division
    index = np.where(values == hi, n - 1, -1)
    inside = (values >= lo) & (values < hi)
    index[inside] = np.minimum(((values[inside] - lo) / (hi - lo) * n).astype(np.int64), n - 1)
    return index


def build_heatmap(
    depth: np.ndarray,
    area: np.ndarray,
    bins_x: int = 20,
    bins_y: int = 20,
    x_range: tuple[float, float] | None = None,
    y_range: tuple[float, float] | None = None,
) -> Heatmap2D:
    """Histogram of (depth, area) samples over depth (x) and box area (y).

    Axis ranges default to the sample min/max, so two datasets get their
    own local scales; pass explicit ranges to compare on a shared grid.
    Samples outside an explicit range are dropped; with default ranges
    every sample is counted.
    """
    xs = np.asarray(depth, dtype=np.float64)
    ys = np.asarray(area, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("build_heatmap needs two equal-length 1-D arrays")
    if not len(xs):
        raise ValueError("cannot build a heatmap from zero samples")
    if bins_x < 1 or bins_y < 1:
        raise ValueError(f"bin counts must be >= 1, got {bins_x}x{bins_y}")
    x_edges = _axis_edges(xs, bins_x, x_range)
    y_edges = _axis_edges(ys, bins_y, y_range)
    ny, nx = len(y_edges) - 1, len(x_edges) - 1
    i, j = _bin(ys, y_edges), _bin(xs, x_edges)
    cell = (i * nx + j)[(i >= 0) & (j >= 0)]
    counts = np.bincount(cell, minlength=ny * nx).reshape(ny, nx).astype(np.float64)
    return Heatmap2D(x_edges=x_edges, y_edges=y_edges, counts=counts)


def heatmap_similarity(a: Heatmap2D, b: Heatmap2D) -> float:
    """Cosine similarity of the two grids after L1 mass normalization.

    Grid shapes must match; axis ranges may differ (each heatmap lives
    on its own local scale).  1.0 means identical mass distribution.
    """
    if a.counts.shape != b.counts.shape:
        raise ValueError(
            f"heatmap grids differ: {a.counts.shape} vs {b.counts.shape}"
        )
    # a mass past the float range reads inf, which no cell can be a share of
    with np.errstate(over="ignore"):
        total_a, total_b = a.total, b.total
    if total_a == 0 or total_b == 0:
        raise ValueError("cannot compare an empty heatmap")
    if not (math.isfinite(total_a) and math.isfinite(total_b)):
        raise ValueError("heatmap mass overflows the float range")
    va = (a.counts / total_a).ravel()
    vb = (b.counts / total_b).ravel()
    return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))


def pearson_r(x, y) -> float:
    """Pearson correlation; needs two or more finite pairs and spread on
    both axes."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson_r needs two equal-length 1-D arrays")
    if len(x) < 2:
        raise ValueError("pearson_r needs at least two samples")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("pearson_r needs finite samples")
    # r does not depend on scale: each axis is divided by the power of two
    # of its largest magnitude, which keeps every sum in range and commutes
    # with every rounding below (bar underflow of terms far below the sums'
    # last bit), so r keeps the bits of the unscaled sums where they are finite
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    y = np.ldexp(y, -np.frexp(np.abs(y).max())[1])
    dx = x - x.mean()
    dy = y - y.mean()
    denom = np.sqrt((dx * dx).sum() * (dy * dy).sum())
    if denom == 0:
        raise ValueError("pearson_r undefined for a constant sequence")
    return float((dx * dy).sum() / denom)


def samples_csv(samples: SampleRecord, classes: list[str] | None = None) -> str:
    return _csv_table(
        ["image_id", "class", "mean_depth", "area"],
        ([image_id, _class_name(cid, classes), f"{depth:.6f}", f"{area:.6f}"]
         for image_id, cid, depth, area in zip(
             samples.image_id.tolist(), samples.class_id.tolist(),
             samples.mean_depth.tolist(), samples.area.tolist())),
    )


def heatmap_csv(hm: Heatmap2D) -> str:
    """Grid as CSV; the two header rows carry the bin edges."""
    return _csv_table(
        ["x_edges", *(f"{e!r}" for e in hm.x_edges.tolist())],
        [["y_edges", *(f"{e!r}" for e in hm.y_edges.tolist())],
         *([f"{v!r}" for v in row.tolist()] for row in hm.counts)],
    )


def parse_heatmap_csv(data: bytes) -> Heatmap2D:
    """The grid of a heatmap CSV as :func:`heatmap_csv` writes it.  A row
    that does not fit the grid, a cell that is not a finite ASCII decimal,
    edges that decrease or a negative count is a ``ParseError`` at its row.
    """
    rows, offset = [], 0
    for line in data.splitlines(keepends=True):
        i, cells = len(rows), line.rstrip(b"\r\n").decode("latin-1").split(",")
        try:
            if i < 2 and cells.pop(0) != ("x_edges", "y_edges")[i]:
                raise ValueError("expected the x_edges and y_edges header rows")
            row = np.array([decimal_float(cell) for cell in cells])
            # a degenerate axis of huge values has two equal edges
            if i < 2 and (len(row) < 2 or (np.diff(row) < 0).any()):
                raise ValueError("an axis needs two or more edges that never decrease")
            if i >= 2 and (i > len(rows[1]) or len(row) != len(rows[0]) - 1 or (row < 0).any()):
                raise ValueError(f"the edges frame {len(rows[1]) - 1} rows of "
                                 f"{len(rows[0]) - 1} counts of 0 or more")
        except ValueError as exc:
            raise ParseError(f"heatmap CSV row {i + 1}: {exc}", offset) from None
        rows.append(row)
        offset += len(line)
    if len(rows) < 2 or len(rows) <= len(rows[1]):
        raise ParseError("heatmap CSV ends before its last row", offset)
    x_edges, y_edges, *counts = rows
    return Heatmap2D(x_edges=x_edges, y_edges=y_edges, counts=np.array(counts))


def heatmap_to_pgm_bytes(hm: Heatmap2D) -> np.ndarray:
    """Counts scaled to 8-bit for a quick visual render (max count = 255)."""
    peak = hm.counts.max()
    if peak == 0:
        return np.zeros(hm.counts.shape, dtype=np.uint8)
    return quantize_u8(hm.counts / peak * 255.0)
