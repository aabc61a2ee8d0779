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
"""
from __future__ import annotations

import math

import numpy as np

_DEGENERATE_EIG = 1e-15


def backend_name() -> str:
    """Name of the normals implementation, for run reports."""
    return "numpy"


def base_radius(k: int) -> int:
    """Smallest r such that the (2r+1)^2 window can hold k cells."""
    side = math.isqrt(max(k - 1, 0)) + 1
    return max(side // 2, 1)


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
    centered = np.where(valid[..., None], points - mean, 0.0)

    h, w = valid.shape
    out_n = np.zeros((h, w, 3))
    out_valid = np.zeros((h, w), dtype=bool)

    # Integral images of the masked first and second moments; a window sum
    # is then four lookups regardless of window size.
    # centered is 0 at invalid pixels, so every product is too
    x, y, z = np.moveaxis(centered, -1, 0)
    planes = np.stack([valid, x, y, z, x * x, x * y, x * z, y * y, y * z, z * z], axis=-1)
    integ = np.zeros((h + 1, w + 1, 10))
    np.cumsum(np.cumsum(planes, axis=0), axis=1, out=integ[1:, 1:])

    def window_sums(ci, cj, r):
        # sums over the window of radius r around (ci, cj), clipped to the image
        i0 = np.maximum(ci - r, 0)
        i1 = np.minimum(ci + r, h - 1) + 1
        j0 = np.maximum(cj - r, 0)
        j1 = np.minimum(cj + r, w - 1) + 1
        return integ[i1, j1] - integ[i0, j1] - integ[i1, j0] + integ[i0, j0]

    ii, jj = np.nonzero(valid)
    if ii.size == 0:
        return out_n, out_valid
    r = base_radius(k)
    max_r = max(h, w)
    sums = window_sums(ii, jj, r)

    pending = np.nonzero(sums[:, 0] < k)[0]
    while pending.size and r < max_r:
        r += 1
        grown = window_sums(ii[pending], jj[pending], r)
        sums[pending] = grown
        pending = pending[grown[:, 0] < k]

    counts = sums[:, 0]
    enough = counts >= 3
    if not np.any(enough):
        return out_n, out_valid
    sums = sums[enough]
    ii, jj = ii[enough], jj[enough]
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
    own = centered[ii, jj] + mean
    flip = np.einsum("ij,ij->i", normals, own) > 0.0
    normals = np.where(flip[:, None], -normals, normals)

    out_n[ii[good], jj[good]] = normals[good]
    out_valid[ii[good], jj[good]] = True
    return out_n, out_valid
