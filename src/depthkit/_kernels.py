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

Memory rule: no whole-image moment integral exists.  Beside the input
and the outputs, a call holds the count integral image (8 bytes a
pixel) and the column sums of the nine other moment planes at every
``CHECKPOINT_ROWS``-th row (72 bytes a pixel of those rows).  The valid
pixels pass through the per-pixel stage (ring growth, window sums,
covariance, ``eigh``, orientation) ``CHUNK`` at a time in row-major
order, each chunk found in the rows that hold it.  A chunk's window
sums read its band: the integral-image rows of the nine moment planes
that its final windows touch (72 bytes a pixel of those rows), rebuilt
from the nearest checkpoint above them one strip of ``CHECKPOINT_ROWS``
rows at a time.  A chunk of a dense VGA map touches a few dozen rows;
on a sparse map whose windows span the image the band is the whole
9-moment integral image.

Bits: a band row holds the sums of a whole-image integral image built
by ``cumsum`` down the columns and then along the rows, added in the
same sequence (each column sum continues its checkpoint row by row,
then each row is summed along its columns), so no window sum, and no
output, depends on where a band starts.  Every step of the per-pixel
stage reads only its own pixel's window, and ``eigh`` decomposes each
matrix of a stack on its own, so neither the chunk size nor the
checkpoint spacing changes an output bit.
"""
from __future__ import annotations

import itertools
import math

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


def backend_name() -> str:
    """Name of the normals implementation, for run reports."""
    return "numpy"


def base_radius(k: int) -> int:
    """Smallest r such that the (2r+1)^2 window can hold k cells."""
    side = math.isqrt(max(k - 1, 0)) + 1
    return max(side // 2, 1)


def _column_sums(points, valid, mean, row, stop, carry):
    """Running column sums of the nine moment planes past the count (x,
    y, z, xx, xy, xz, yy, yz, zz of the points centered on ``mean``, 0 at
    invalid pixels), strip by strip of at most ``CHECKPOINT_ROWS`` rows.

    Yields ``(row, sums)`` from plane row ``row`` up to ``stop``:
    ``sums[c, i]`` sums plane ``c`` down each column through row
    ``row + i``.  ``carry`` holds the sums through row ``row - 1`` (None
    at row 0); each sum adds one row to the previous one, the sequence
    ``cumsum`` runs along axis 0, so the sums do not depend on where a
    run starts.
    """
    while row < stop:
        end = min(row + CHECKPOINT_ROWS, stop)
        v = valid[row:end]
        x, y, z = (np.where(v, points[row:end, :, a] - mean[a], 0.0) for a in range(3))
        products = (a * b for a, b in ((x, x), (x, y), (x, z), (y, y), (y, z), (z, z)))
        sums = np.empty((9, end - row, v.shape[1]))
        for c, plane in enumerate(itertools.chain((x, y, z), products)):
            sums[c] = plane
            if carry is not None:
                sums[c, 0] += carry[c]
            np.cumsum(sums[c], axis=0, out=sums[c])
        # a copy: a view would keep the whole strip alive
        carry = sums[:, -1].copy()
        yield row, sums
        row = end


def normals_from_points(
    points: np.ndarray, valid: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel surface normals from a pixel-grid point cloud.

    ``points`` is ``(H, W, 3)`` camera-frame coordinates, garbage allowed
    at invalid pixels.  Returns unit normals oriented to face the camera
    and a mask of pixels where a normal was recovered.
    """
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    points = np.ascontiguousarray(points, dtype=np.float64)
    valid = np.ascontiguousarray(valid, dtype=bool)
    if valid.any():
        mean = points[valid].mean(axis=0)
    else:
        mean = np.zeros(3)
    h, w = valid.shape
    max_r = max(h, w)
    count = np.zeros((h + 1, w + 1))
    np.cumsum(np.cumsum(valid, axis=0, dtype=np.float64), axis=1, out=count[1:, 1:])
    # checkpoints[t]: the column sums through plane row t * CHECKPOINT_ROWS - 1
    checkpoints = [None] + [sums[:, -1].copy()
                            for _, sums in _column_sums(points, valid, mean, 0, h, None)]
    out_n = np.zeros((h, w, 3))
    out_valid = np.zeros((h, w), dtype=bool)

    def band(lo, hi):
        # integral-image rows lo..hi of the nine moment planes past the
        # count; row i sums the plane rows above i, so plane rows
        # lo - 1 .. hi - 1 are kept
        rows = np.zeros((hi - lo + 1, w + 1, 9))
        t = max(lo - 1, 0) // CHECKPOINT_ROWS
        strips = _column_sums(points, valid, mean, t * CHECKPOINT_ROWS, hi, checkpoints[t])
        for row, sums in strips:
            skip = max(lo - 1 - row, 0)
            top = row + skip + 1 - lo
            for c in range(9):
                np.cumsum(sums[c, skip:], axis=1,
                          out=rows[top:top + sums.shape[1] - skip, 1:, c])
        return rows

    def bounds(ci, cj, r):
        # the window of radius r around (ci, cj), clipped to the image
        return (np.maximum(ci - r, 0), np.minimum(ci + r, h - 1) + 1,
                np.maximum(cj - r, 0), np.minimum(cj + r, w - 1) + 1)

    def window_sums(table, i0, i1, j0, j1):
        return table[i1, j1] - table[i0, j1] - table[i1, j0] + table[i0, j0]

    def estimate(ci, cj):
        # the per-pixel stage for one chunk of valid pixels; its
        # temporaries die when it returns
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
        ci, cj, n = ci[enough], cj[enough], counts[enough]
        i0, i1, j0, j1 = bounds(ci, cj, radius[enough])
        lo = int(i0.min())
        sums = window_sums(band(lo, int(i1.max())), i0 - lo, i1 - lo, j0, j1)
        mu = sums[:, 0:3] / n[:, None]
        cov = np.empty((sums.shape[0], 3, 3))
        cov[:, 0, 0] = sums[:, 3] / n - mu[:, 0] * mu[:, 0]
        cov[:, 0, 1] = sums[:, 4] / n - mu[:, 0] * mu[:, 1]
        cov[:, 0, 2] = sums[:, 5] / n - mu[:, 0] * mu[:, 2]
        cov[:, 1, 1] = sums[:, 6] / n - mu[:, 1] * mu[:, 1]
        cov[:, 1, 2] = sums[:, 7] / n - mu[:, 1] * mu[:, 2]
        cov[:, 2, 2] = sums[:, 8] / n - mu[:, 2] * mu[:, 2]
        cov[:, 1, 0] = cov[:, 0, 1]
        cov[:, 2, 0] = cov[:, 0, 2]
        cov[:, 2, 1] = cov[:, 1, 2]

        evals, evecs = np.linalg.eigh(cov)
        good = np.all(np.isfinite(evals), axis=1) & (evals[:, 1] > _DEGENERATE_EIG)
        normals = evecs[:, :, 0]
        # the centered point plus the mean: the goldens freeze this
        # rounding, which may differ from the point's in the last bit
        own = (points[ci, cj] - mean) + mean
        flip = np.einsum("ij,ij->i", normals, own) > 0.0
        normals = np.where(flip[:, None], -normals, normals)

        out_n[ci[good], cj[good]] = normals[good]
        out_valid[ci[good], cj[good]] = True

    # a chunk takes the next CHUNK valid pixels in row-major order, found
    # in the rows that hold them; through_row[i] counts those of rows 0..i
    through_row = np.cumsum(np.count_nonzero(valid, axis=1))
    total = int(np.count_nonzero(valid))
    for start in range(0, total, CHUNK):
        size = min(CHUNK, total - start)
        r0, r1 = np.searchsorted(through_row, (start, start + size - 1), side="right")
        ii, jj = np.nonzero(valid[r0:r1 + 1])
        skip = start - (int(through_row[r0 - 1]) if r0 else 0)
        estimate(ii[skip:skip + size] + r0, jj[skip:skip + size])
    return out_n, out_valid
