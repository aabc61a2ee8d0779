"""Neighborhood-covariance kernel behind surface-normal estimation.

One pure-numpy implementation built on integral images: the masked
first and second moments of the points are summed once into a 10-plane
integral image, so the sums over any window cost four lookups.

Window rule: start from the smallest square window holding at least
``k`` cells, clip to the image, and grow it one ring at a time until it
contains ``k`` valid points or its radius reaches ``max(H, W)``.  Growth
is vectorized: each step widens the window of every still-pending pixel
by one ring through the same four-lookup window sum, so a pixel's sums
are those of the first radius at which it holds ``k`` points (or of
radius ``max(H, W)``).  A pixel with fewer than 3 gathered points, or
with a degenerate neighborhood, gets no normal.

Memory rule: the integral image is built one moment plane at a time,
and the valid pixels then pass through the per-pixel stage (window
sums, ring growth, covariance, ``eigh``, orientation) ``CHUNK`` at a
time.  Beside the input, the outputs and the index of valid pixels, a
call holds the integral image (80 bytes a pixel) plus one chunk of
temporaries; the centered coordinates (24 bytes a pixel) live only
while the integral image is built.  Every step of the per-pixel stage
reads only its own pixel's window, and ``eigh`` decomposes each matrix
of a stack on its own, so the chunk size changes no output bit.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

_DEGENERATE_EIG = 1e-15
# valid pixels per pass of the per-pixel stage; a chunk's temporaries
# peak in the window sums at about 512 bytes a pixel (four 10-moment
# lookups, their running sum and the clipped bounds), 8 MiB a chunk,
# a third of a VGA map's 24 MiB integral image; smaller chunks ran no
# faster on a VGA map
CHUNK = 1 << 14


def backend_name() -> str:
    """Name of the normals implementation, for run reports."""
    return "numpy"


def base_radius(k: int) -> int:
    """Smallest r such that the (2r+1)^2 window can hold k cells."""
    side = math.isqrt(max(k - 1, 0)) + 1
    return max(side // 2, 1)


def _moment_integral(points: np.ndarray, valid: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Integral image ``(H+1, W+1, 10)`` of the masked moments of the
    points centered on ``mean``: count, x, y, z, xx, xy, xz, yy, yz, zz.

    A window sum is then four lookups regardless of window size.  Each
    plane is summed straight into its slot: cumsum adds in sequence along
    its axis, so this equals summing the stacked planes, bit for bit.
    """
    h, w = valid.shape
    # centered coordinates are 0 at invalid pixels, so every product is too
    x, y, z = (np.where(valid, points[..., a] - mean[a], 0.0) for a in range(3))
    products = (a * b for a, b in ((x, x), (x, y), (x, z), (y, y), (y, z), (z, z)))
    integ = np.zeros((h + 1, w + 1, 10))
    for c, plane in enumerate(itertools.chain((valid, x, y, z), products)):
        np.cumsum(np.cumsum(plane, axis=0, dtype=np.float64), axis=1, out=integ[1:, 1:, c])
    return integ


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
    integ = _moment_integral(points, valid, mean)
    h, w = valid.shape
    out_n = np.zeros((h, w, 3))
    out_valid = np.zeros((h, w), dtype=bool)

    def window_sums(ci, cj, r):
        # sums over the window of radius r around (ci, cj), clipped to the image
        i0 = np.maximum(ci - r, 0)
        i1 = np.minimum(ci + r, h - 1) + 1
        j0 = np.maximum(cj - r, 0)
        j1 = np.minimum(cj + r, w - 1) + 1
        return integ[i1, j1] - integ[i0, j1] - integ[i1, j0] + integ[i0, j0]

    ii, jj = np.nonzero(valid)
    max_r = max(h, w)
    for start in range(0, ii.size, CHUNK):
        ci, cj = ii[start:start + CHUNK], jj[start:start + CHUNK]
        r = base_radius(k)
        sums = window_sums(ci, cj, r)
        pending = np.nonzero(sums[:, 0] < k)[0]
        while pending.size and r < max_r:
            r += 1
            grown = window_sums(ci[pending], cj[pending], r)
            sums[pending] = grown
            pending = pending[grown[:, 0] < k]
        enough = sums[:, 0] >= 3
        if not np.any(enough):
            continue
        sums = sums[enough]
        ci, cj = ci[enough], cj[enough]
        n = sums[:, 0]
        mu = sums[:, 1:4] / n[:, None]
        cov = np.empty((sums.shape[0], 3, 3))
        cov[:, 0, 0] = sums[:, 4] / n - mu[:, 0] * mu[:, 0]
        cov[:, 0, 1] = sums[:, 5] / n - mu[:, 0] * mu[:, 1]
        cov[:, 0, 2] = sums[:, 6] / n - mu[:, 0] * mu[:, 2]
        cov[:, 1, 1] = sums[:, 7] / n - mu[:, 1] * mu[:, 1]
        cov[:, 1, 2] = sums[:, 8] / n - mu[:, 1] * mu[:, 2]
        cov[:, 2, 2] = sums[:, 9] / n - mu[:, 2] * mu[:, 2]
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
    return out_n, out_valid
