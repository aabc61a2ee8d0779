"""Scene geometry recovered from a depth map.

Back-projection through the pinhole model, window-based surface normals,
an iterative gravity-direction estimate, and the HDHA encoding that
packs disparity, height and gravity angle into three channels.

Camera frame convention: x right, y down (toward the floor in an
upright camera), z forward along the optical axis.  The default gravity
seed is the camera +y axis, so a camera-facing floor normal measures
180 degrees against gravity and wall normals measure 90.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .encoding import CameraIntrinsics, DepthMap, HdhaImage


@dataclass
class GravityEstimate:
    direction: np.ndarray
    iterations: int
    converged: bool
    parallel_count: int
    orthogonal_count: int


def _backproject(u, v, out: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Fill ``out[..., 0]`` and ``out[..., 1]`` from pixel columns ``u``,
    rows ``v`` and the depths already in ``out[..., 2]``: in place,
    ``(u - cx) * d / fx`` and ``(v - cy) * d / fy`` in that order of
    operations."""
    x, y, d = (out[..., a] for a in range(3))
    np.subtract(u, cam.cx, out=x)
    np.subtract(v, cam.cy, out=y)
    for plane, f in ((x, cam.fx), (y, cam.fy)):
        np.multiply(plane, d, out=plane)
        np.divide(plane, f, out=plane)
    return out


def backproject_grid(depth: DepthMap, cam: CameraIntrinsics,
                     lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Camera-frame coordinates of every pixel of rows ``lo..hi-1`` (by
    default all), ``(hi - lo, W, 3)``.

    Invalid pixels get zero vectors; consult ``depth.valid``.  A pixel's
    point does not depend on the rows asked for.
    """
    h, w = depth.values.shape
    hi = h if hi is None else hi
    grid = np.zeros((hi - lo, w, 3))
    np.copyto(grid[..., 2], depth.values[lo:hi], where=depth.valid[lo:hi])
    return _backproject(np.arange(w, dtype=np.float64),
                        np.arange(lo, hi, dtype=np.float64)[:, None], grid, cam)


class _DepthRows:
    """The row source of a depth map's point grid: rows and pixels are
    back-projected when the normals kernel asks for them."""

    def __init__(self, depth: DepthMap, cam: CameraIntrinsics):
        self.depth, self.cam = depth, cam

    def rows(self, lo: int, hi: int) -> np.ndarray:
        return backproject_grid(self.depth, self.cam, lo, hi)

    def at(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        points = np.empty((i.size, 3))
        points[:, 2] = np.where(self.depth.valid[i, j], self.depth.values[i, j], 0.0)
        return _backproject(j, i, points, self.cam)


_DEFAULT_GRAVITY = np.array([0.0, 1.0, 0.0])
GRAVITY_MAX_ITERS = 5
GRAVITY_TOL = 1e-4


def _unit_gravity(g) -> np.ndarray:
    """``g / |g|`` in float64.  A component that is not finite, or a norm
    that overflows or vanishes, leaves no direction: ``ValueError``."""
    g = np.asarray(g, dtype=np.float64)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(g)
    if not (np.isfinite(norm) and norm > 0):
        raise ValueError("gravity must be a finite nonzero vector")
    return g / norm


def _scatter(n: np.ndarray, cluster: np.ndarray) -> np.ndarray:
    """``v.T @ v`` of the rows ``v = n[cluster]``, gathered for the product
    only; ``np.compress`` gathers the same rows as the boolean index in
    a fraction of its time."""
    v = np.compress(cluster, n, axis=0)
    return v.T @ v


def estimate_gravity(
    normals: np.ndarray,
    valid: np.ndarray | None = None,
    initial: np.ndarray | None = None,
) -> GravityEstimate:
    """Iteratively refine the gravity direction from surface normals.

    Each pass splits normals into a near-parallel cluster (floor-like,
    within the angular threshold of gravity or its opposite) and a
    near-orthogonal cluster (wall-like), then re-estimates gravity as the
    direction minimizing alignment with walls while maximizing alignment
    with floors: the smallest eigenvector of
    ``sum_orth n n^T - sum_par n n^T``.  The threshold is 45 degrees on
    the first pass and 15 after; iteration stops when the direction moves
    less than ``GRAVITY_TOL`` radians or after ``GRAVITY_MAX_ITERS``
    passes.  The sign is kept aligned with the previous estimate.
    ``initial`` (default the camera +y axis) must be a finite nonzero
    vector, or ``ValueError``.
    """
    n = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
    # the mask joins each pass's clusters rather than gathering the valid
    # normals once: every row's dot with g is its own, so both clusters
    # hold the normals n[valid] would give, in the same order
    valid = (np.ones(n.shape[0], dtype=bool) if valid is None
             else np.asarray(valid, dtype=bool).ravel())
    if not valid.any():
        raise ValueError("no valid normals to estimate gravity from")
    g = _unit_gravity(_DEFAULT_GRAVITY if initial is None else initial)

    converged = False
    iters = 0
    n_par = n_orth = 0
    for it in range(GRAVITY_MAX_ITERS):
        thresh_deg = 45.0 if it == 0 else 15.0
        cos_par = np.cos(np.deg2rad(thresh_deg))
        sin_thr = np.sin(np.deg2rad(thresh_deg))
        align = np.abs(n @ g)
        par = (align > cos_par) & valid
        orth = (align < sin_thr) & valid
        n_par = int(par.sum())
        n_orth = int(orth.sum())
        iters = it + 1
        if n_par + n_orth == 0:
            break
        m = np.zeros((3, 3))
        if n_orth:
            m += _scatter(n, orth)
        if n_par:
            m -= _scatter(n, par)
        _, vecs = np.linalg.eigh(m)
        g_new = vecs[:, 0]
        if g_new @ g < 0:
            g_new = -g_new
        delta = np.arccos(np.clip(g_new @ g, -1.0, 1.0))
        g = g_new
        if delta < GRAVITY_TOL:
            converged = True
            break
    return GravityEstimate(
        direction=g,
        iterations=iters,
        converged=converged,
        parallel_count=n_par,
        orthogonal_count=n_orth,
    )


def hdha_encode(
    depth: DepthMap,
    cam: CameraIntrinsics,
    gravity: np.ndarray | None = None,
    k_neighbors: int = 25,
) -> HdhaImage:
    """Build the three-channel geometric encoding of a depth map.

    Channels: horizontal disparity ``fx * baseline / d`` in pixel units;
    height of the back-projected point along the up direction, shifted so
    the lowest valid point sits at exactly 0; angle in degrees between
    the local surface normal and gravity.  A pixel is valid when the
    depth reading is valid and a surface normal was recovered; invalid
    pixels hold 0 in every channel.

    ``gravity`` defaults to an estimate from this map's own normals; a
    map with no recovered normal (every reading invalid, or too few
    points near each other to span a plane) skips the estimate and
    encodes to all zeros.  A given ``gravity`` with no direction raises
    ``ValueError`` before the normals kernel runs.
    """
    g = None if gravity is None else _unit_gravity(gravity)
    # no point grid is held: the kernel and the height channel each
    # back-project the rows they read, one strip at a time
    normals, n_valid = _kernels.normals_from_points(
        _DepthRows(depth, cam), depth.valid, k_neighbors)
    if g is None:
        # with no normal to estimate from, every pixel is invalid and
        # encodes to 0 whatever the direction
        g = (estimate_gravity(normals, valid=n_valid).direction if n_valid.any()
             else _DEFAULT_GRAVITY)

    valid = depth.valid & n_valid
    invalid = ~valid
    angle = normals @ g
    del normals
    np.clip(angle, -1.0, 1.0, out=angle)
    np.arccos(angle, out=angle)
    np.degrees(angle, out=angle)
    np.copyto(angle, 0.0, where=invalid)

    hd = np.where(depth.valid, depth.values, 1.0)
    np.divide(cam.fx * cam.baseline, hd, out=hd)
    np.copyto(hd, 0.0, where=invalid)

    # height increases opposite gravity; shift so the scene's lowest
    # valid point reads exactly 0
    height = np.empty(depth.values.shape)
    for lo, hi in _kernels.strips(height.shape[0]):
        np.matmul(backproject_grid(depth, cam, lo, hi), g, out=height[lo:hi])
    np.negative(height, out=height)
    if valid.any():
        height -= height[valid].min()
    np.copyto(height, 0.0, where=invalid)
    return HdhaImage(hd=hd, height=height, angle=angle, valid=valid)
