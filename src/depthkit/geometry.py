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


def backproject_grid(depth: DepthMap, cam: CameraIntrinsics) -> np.ndarray:
    """Camera-frame coordinates for every pixel, ``(H, W, 3)``.

    Invalid pixels get zero vectors; consult ``depth.valid``.
    """
    h, w = depth.values.shape
    u = np.arange(w, dtype=np.float64)
    v = np.arange(h, dtype=np.float64)
    uu, vv = np.meshgrid(u, v)
    d = np.where(depth.valid, depth.values, 0.0)
    x = (uu - cam.cx) * d / cam.fx
    y = (vv - cam.cy) * d / cam.fy
    return np.stack([x, y, d], axis=-1)


_DEFAULT_GRAVITY = np.array([0.0, 1.0, 0.0])


def estimate_gravity(
    normals: np.ndarray,
    valid: np.ndarray | None = None,
    initial: np.ndarray | None = None,
    max_iters: int = 5,
    tol: float = 1e-4,
) -> GravityEstimate:
    """Iteratively refine the gravity direction from surface normals.

    Each pass splits normals into a near-parallel cluster (floor-like,
    within the angular threshold of gravity or its opposite) and a
    near-orthogonal cluster (wall-like), then re-estimates gravity as the
    direction minimizing alignment with walls while maximizing alignment
    with floors: the smallest eigenvector of
    ``sum_orth n n^T - sum_par n n^T``.  The threshold is 45 degrees on
    the first pass and 15 after; iteration stops when the direction moves
    less than ``tol`` radians or after ``max_iters`` passes.  The sign is
    kept aligned with the previous estimate.
    """
    n = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
    if valid is not None:
        n = n[np.asarray(valid, dtype=bool).ravel()]
    if n.shape[0] == 0:
        raise ValueError("no valid normals to estimate gravity from")
    g = _DEFAULT_GRAVITY.copy() if initial is None else np.asarray(initial, dtype=np.float64)
    norm = np.linalg.norm(g)
    if norm == 0:
        raise ValueError("initial gravity must be a nonzero vector")
    g = g / norm

    converged = False
    iters = 0
    n_par = n_orth = 0
    for it in range(max_iters):
        thresh_deg = 45.0 if it == 0 else 15.0
        cos_par = np.cos(np.deg2rad(thresh_deg))
        sin_thr = np.sin(np.deg2rad(thresh_deg))
        dots = n @ g
        par = np.abs(dots) > cos_par
        orth = np.abs(dots) < sin_thr
        n_par = int(par.sum())
        n_orth = int(orth.sum())
        iters = it + 1
        if n_par + n_orth == 0:
            break
        m = np.zeros((3, 3))
        if n_orth:
            no = n[orth]
            m += no.T @ no
        if n_par:
            npar = n[par]
            m -= npar.T @ npar
        _, vecs = np.linalg.eigh(m)
        g_new = vecs[:, 0]
        if g_new @ g < 0:
            g_new = -g_new
        delta = np.arccos(np.clip(g_new @ g, -1.0, 1.0))
        g = g_new
        if delta < tol:
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
    encodes to all zeros.
    """
    grid = backproject_grid(depth, cam)
    normals, n_valid = _kernels.normals_from_points(grid, depth.valid, k_neighbors)
    if gravity is not None:
        g = np.asarray(gravity, dtype=np.float64)
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(g)
        # a component that is not finite or a norm that overflows or
        # vanishes leaves no direction
        if not (np.isfinite(norm) and norm > 0):
            raise ValueError("gravity must be a finite nonzero vector")
        g = g / norm
    elif n_valid.any():
        g = estimate_gravity(normals, valid=n_valid).direction
    else:
        # no normal to estimate from: every pixel is invalid and encodes
        # to 0 whatever the direction
        g = _DEFAULT_GRAVITY

    valid = depth.valid & n_valid
    hd = np.where(depth.valid, cam.fx * cam.baseline / np.where(depth.valid, depth.values, 1.0), 0.0)
    hd = np.where(valid, hd, 0.0)

    # height increases opposite gravity; shift so the scene's lowest
    # valid point reads exactly 0
    h_raw = -(grid @ g)
    if valid.any():
        h_raw = h_raw - h_raw[valid].min()
    height = np.where(valid, h_raw, 0.0)

    dots = np.clip(normals @ g, -1.0, 1.0)
    angle = np.degrees(np.arccos(dots))
    angle = np.where(valid, angle, 0.0)
    return HdhaImage(hd=hd, height=height, angle=angle, valid=valid)
