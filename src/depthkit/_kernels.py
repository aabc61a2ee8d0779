"""Neighborhood-covariance kernel behind surface-normal estimation.

One pure-numpy implementation built on integral images: the sums of
the masked first and second moments of the points over any window cost
four lookups into the integral images of the count and of the nine
moment planes x, y, z, xx, xy, xz, yy, yz, zz.

Window rule: start from the smallest square window holding at least
``k`` cells, clip to the image, and grow it one ring at a time until it
contains ``k`` valid points or its radius reaches ``max(H, W)``.  Growth
is vectorized and reads only the count: each step widens the window of
every still-pending pixel by one ring through four lookups into the
count integral image, so a pixel's moment sums are those of the first
radius at which it holds ``k`` points (or of radius ``max(H, W)``).  A
pixel with fewer than 3 gathered points, or with a degenerate
neighborhood, gets no normal.

Memory rule: no whole-image moment integral, point grid or gather of
the valid points exists.  The kernel reads points through a row source
(``rows(lo, hi)``, the grid rows ``lo..hi-1``, and ``at(i, j)``, the
points of pixels ``(i, j)``), one strip of ``CHECKPOINT_ROWS`` rows or
one chunk's pixels at a time; a whole grid is wrapped as one.  Beside
the input and the outputs, a call holds the count integral image (8
bytes a pixel) and the column sums of the nine other moment planes at
every ``CHECKPOINT_ROWS``-th row (72 bytes a pixel of those rows).  The
valid pixels pass through the per-pixel stage (ring growth, window
sums, covariance, ``eigh``, orientation) ``CHUNK`` at a time in
row-major order, each chunk found in the rows that hold it; the chunks
run across the process-wide pool, so up to one chunk a core is alive.
A chunk's window sums read its band: the integral-image rows of the
nine moment planes that its final windows touch (72 bytes a pixel of
those rows), rebuilt from the nearest checkpoint above them one strip
of ``CHECKPOINT_ROWS`` rows at a time, and drops each plane once its
window sums are read.  A chunk of a dense VGA map touches a few dozen
rows; on a sparse map whose windows span the image the band is the
whole 9-moment integral image.

Bits: a band row holds the sums of a whole-image integral image built
by ``cumsum`` down the columns and then along the rows, added in the
same sequence (each column sum continues its checkpoint row by row,
then each row is summed along its columns), so no window sum, and no
output, depends on where a band starts.  Every step of the per-pixel
stage reads only its own pixel's window, and ``eigh`` decomposes each
matrix of a stack on its own, so neither the chunk size nor the
checkpoint spacing changes an output bit.  Each chunk writes only its
own pixels, so neither does the thread that runs it.  The mean the
moments are centered on is the running sum of the valid points in
row-major order, strip by strip, each strip's sum continuing the last:
the sequence in which ``np.add.reduce`` adds along axis 0, so it equals
``points[valid].mean(axis=0)`` bit for bit.

Pool: one ``ThreadPoolExecutor`` a process, built on first use with one
thread per core the process may run on.  ``pool_map`` spreads work
across it and waits for every item; a caller that is itself a pool
worker runs its items inline, so no worker ever waits on work queued
behind it.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

_DEGENERATE_EIG = 1e-15
# valid pixels per pass of the per-pixel stage; a chunk's temporaries
# peak in the window sums at about 400 bytes a pixel (the 9-moment
# lookups, their running sum and the clipped bounds), 6 MiB a chunk;
# smaller chunks ran no faster on a VGA map
CHUNK = 1 << 14
# plane rows between column-sum checkpoints; a band is rebuilt from the
# checkpoint at or above its first row, so up to this many rows are
# summed and dropped before the band's own rows
CHECKPOINT_ROWS = 16


_pool = None
_pool_lock = threading.Lock()
_on_worker = threading.local()


def _mark_worker() -> None:
    _on_worker.flag = True


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_map(fn, items) -> list:
    """``[fn(x) for x in items]``, the items spread across the process-wide
    pool.  Returns, or raises the first item's error, only after every
    item has finished.  One item, one core, or a caller that is itself a
    pool worker runs the items inline, in order."""
    global _pool
    items = list(items)
    if len(items) < 2 or getattr(_on_worker, "flag", False) or _cores() < 2:
        return [fn(x) for x in items]
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_cores(), initializer=_mark_worker,
                                       thread_name_prefix="depthkit")
    futures = [_pool.submit(fn, x) for x in items]
    wait(futures)
    return [f.result() for f in futures]


class _Grid:
    """The row source of a whole ``(H, W, 3)`` point grid."""

    def __init__(self, points: np.ndarray):
        self.points = points

    def rows(self, lo: int, hi: int) -> np.ndarray:
        return self.points[lo:hi]

    def at(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return self.points[i, j]


def backend_name() -> str:
    """Name of the normals implementation, for run reports."""
    return "numpy"


def base_radius(k: int) -> int:
    """Smallest r such that the (2r+1)^2 window can hold k cells."""
    side = math.isqrt(max(k - 1, 0)) + 1
    return max(side // 2, 1)


def strips(h: int):
    """``(lo, hi)`` of each strip of at most ``CHECKPOINT_ROWS`` rows, top down."""
    return ((lo, min(lo + CHECKPOINT_ROWS, h)) for lo in range(0, h, CHECKPOINT_ROWS))


def valid_mean(source, valid: np.ndarray) -> np.ndarray:
    """``points[valid].mean(axis=0)`` read strip by strip from ``source``;
    zeros when no pixel is valid."""
    total, n = None, 0
    for lo, hi in strips(valid.shape[0]):
        # what the boolean index gathers, in a fraction of its time
        gathered = np.compress(valid[lo:hi].ravel(), source.rows(lo, hi).reshape(-1, 3),
                               axis=0)
        if not gathered.size:
            continue
        if total is not None:
            # the running sum plus the strip's first point, then its
            # others one by one: the whole array's order of additions
            gathered[0] += total
        total = np.add.reduce(gathered, axis=0)
        n += gathered.shape[0]
    return np.zeros(3) if total is None else total / n


def _covariance(sums: list, n: np.ndarray) -> np.ndarray:
    """The ``(N, 3, 3)`` covariances of windows of ``n`` points from their
    nine moment sums, an ``(N,)`` array each."""
    mu = [s / n for s in sums[0:3]]
    cov = np.empty((n.size, 3, 3))
    cov[:, 0, 0] = sums[3] / n - mu[0] * mu[0]
    cov[:, 0, 1] = sums[4] / n - mu[0] * mu[1]
    cov[:, 0, 2] = sums[5] / n - mu[0] * mu[2]
    cov[:, 1, 1] = sums[6] / n - mu[1] * mu[1]
    cov[:, 1, 2] = sums[7] / n - mu[1] * mu[2]
    cov[:, 2, 2] = sums[8] / n - mu[2] * mu[2]
    cov[:, 1, 0] = cov[:, 0, 1]
    cov[:, 2, 0] = cov[:, 0, 2]
    cov[:, 2, 1] = cov[:, 1, 2]
    return cov


def _plane_normals(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit eigenvector of each covariance's smallest eigenvalue, as a
    new ``(N, 3)`` array, and whether its neighborhood spans a plane."""
    evals, evecs = np.linalg.eigh(cov)
    good = np.all(np.isfinite(evals), axis=1) & (evals[:, 1] > _DEGENERATE_EIG)
    return evecs[:, :, 0].copy(), good


def _cumsum_rows(a: np.ndarray) -> np.ndarray:
    """``np.cumsum(a, axis=0, out=a)``: the same additions in the same
    order, a whole row at a time, which on rows of a few hundred values
    takes about a third of cumsum's time."""
    for i in range(1, a.shape[0]):
        np.add(a[i - 1], a[i], out=a[i])
    return a


def _column_sums(source, valid, mean, row, stop, carry):
    """Running column sums of the nine moment planes past the count (x,
    y, z, xx, xy, xz, yy, yz, zz of the points centered on ``mean``, 0 at
    invalid pixels), strip by strip of at most ``CHECKPOINT_ROWS`` rows.

    Yields ``(row, sums)`` from plane row ``row`` up to ``stop``:
    ``sums[c, i]`` sums plane ``c`` down each column through row
    ``row + i``.  ``carry`` holds the sums through row ``row - 1`` (None
    at row 0); each sum adds one row to the previous one, the sequence
    ``cumsum`` runs along axis 0, so the sums do not depend on where a
    run starts.  Every strip's sums are written into one buffer, so they
    hold only until the next strip is asked for.
    """
    buffer = np.empty((9, min(CHECKPOINT_ROWS, stop - row), valid.shape[1]))
    while row < stop:
        end = min(row + CHECKPOINT_ROWS, stop)
        invalid = ~valid[row:end]
        points = source.rows(row, end)
        sums = buffer[:, :end - row]
        for a in range(3):
            np.subtract(points[..., a], mean[a], out=sums[a])
            np.copyto(sums[a], 0.0, where=invalid)
        for c, (a, b) in enumerate(((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)), 3):
            np.multiply(sums[a], sums[b], out=sums[c])
        if carry is not None:
            sums[:, 0] += carry
        _cumsum_rows(sums.swapaxes(0, 1))
        # a copy: the next strip overwrites the buffer
        carry = sums[:, -1].copy()
        yield row, sums
        row = end


def normals_from_points(
    points: np.ndarray, valid: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel surface normals from a pixel-grid point cloud.

    ``points`` is ``(H, W, 3)`` camera-frame coordinates, garbage allowed
    at invalid pixels, or a row source of them (see the module
    docstring).  Returns unit normals oriented to face the camera and a
    mask of pixels where a normal was recovered.
    """
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    source = points if hasattr(points, "rows") else _Grid(
        np.ascontiguousarray(points, dtype=np.float64))
    valid = np.ascontiguousarray(valid, dtype=bool)
    mean = valid_mean(source, valid)
    h, w = valid.shape
    max_r = max(h, w)
    count = np.zeros((h + 1, w + 1))
    count[1:, 1:] = valid
    np.cumsum(_cumsum_rows(count[1:, 1:]), axis=1, out=count[1:, 1:])
    # checkpoints[t]: the column sums through plane row t * CHECKPOINT_ROWS - 1
    checkpoints = [None] + [sums[:, -1].copy()
                            for _, sums in _column_sums(source, valid, mean, 0, h, None)]
    out_n = np.zeros((h, w, 3))
    out_valid = np.zeros((h, w), dtype=bool)

    def band(lo, hi):
        # integral-image rows lo..hi of the nine moment planes past the
        # count, one array a plane; row i sums the plane rows above i, so
        # plane rows lo - 1 .. hi - 1 are kept
        planes = [np.zeros((hi - lo + 1, w + 1)) for _ in range(9)]
        t = max(lo - 1, 0) // CHECKPOINT_ROWS
        for row, sums in _column_sums(source, valid, mean, t * CHECKPOINT_ROWS, hi,
                                      checkpoints[t]):
            skip = max(lo - 1 - row, 0)
            top = row + skip + 1 - lo
            for plane, plane_sums in zip(planes, sums):
                np.cumsum(plane_sums[skip:], axis=1,
                          out=plane[top:top + sums.shape[1] - skip, 1:])
        return planes

    def bounds(ci, cj, r):
        # the window of radius r around (ci, cj), clipped to the image
        return (np.maximum(ci - r, 0), np.minimum(ci + r, h - 1) + 1,
                np.maximum(cj - r, 0), np.minimum(cj + r, w - 1) + 1)

    def window_sums(table, i0, i1, j0, j1):
        return table[i1, j1] - table[i0, j1] - table[i1, j0] + table[i0, j0]

    def moments(ci, cj, radius):
        # the nine moment sums of each pixel's final window, an (N,) array
        # a moment; each band plane is dropped once it is looked up
        i0, i1, j0, j1 = bounds(ci, cj, radius)
        lo = int(i0.min())
        planes = band(lo, int(i1.max()))
        i0 -= lo
        i1 -= lo
        sums = []
        while planes:
            sums.append(window_sums(planes.pop(0), i0, i1, j0, j1))
        return sums

    # a chunk takes the next CHUNK valid pixels in row-major order, found
    # in the rows that hold them; through_row[i] counts those of rows 0..i
    through_row = np.cumsum(np.count_nonzero(valid, axis=1))
    total = int(np.count_nonzero(valid))

    def pixels(start):
        # the chunk of valid pixels from the start-th, as (rows, columns)
        size = min(CHUNK, total - start)
        r0, r1 = np.searchsorted(through_row, (start, start + size - 1), side="right")
        ii, jj = np.nonzero(valid[r0:r1 + 1])
        skip = start - (int(through_row[r0 - 1]) if r0 else 0)
        return ii[skip:skip + size] + r0, jj[skip:skip + size]

    def estimate(start):
        # the per-pixel stage for one chunk; its temporaries die when it
        # returns
        ci, cj = pixels(start)
        r = base_radius(k)
        radius = np.full(ci.size, r)
        counts = window_sums(count, *bounds(ci, cj, r))
        pending = np.nonzero(counts < k)[0]
        while pending.size and r < max_r:
            r += 1
            grown = window_sums(count, *bounds(ci[pending], cj[pending], r))
            counts[pending] = grown
            radius[pending] = r
            pending = pending[grown < k]
        enough = counts >= 3
        if not np.any(enough):
            return
        ci, cj, radius, counts = ci[enough], cj[enough], radius[enough], counts[enough]
        normals, good = _plane_normals(_covariance(moments(ci, cj, radius), counts))
        # the centered point plus the mean: the goldens freeze this
        # rounding, which may differ from the point's in the last bit
        own = source.at(ci, cj)
        own -= mean
        own += mean
        flip = np.einsum("ij,ij->i", normals, own) > 0.0
        np.negative(normals, out=normals, where=flip[:, None])

        out_n[ci[good], cj[good]] = normals[good]
        out_valid[ci[good], cj[good]] = True

    pool_map(estimate, range(0, total, CHUNK))
    return out_n, out_valid
