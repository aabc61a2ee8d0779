"""Backprojection, surface normals, gravity, HDHA."""
import numpy as np
import pytest

from depthkit import CameraIntrinsics, DepthMap, estimate_gravity, hdha_encode
from depthkit import _kernels
from depthkit.geometry import backproject_grid

CAM = CameraIntrinsics(fx=100.0, fy=100.0, cx=39.5, cy=29.5, baseline=0.075)


def _floor_wall_scene(h=60, w=80, cam_height=1.2, wall_z=6.0, cam=CAM):
    """Horizontal floor below the camera meeting a frontal wall."""
    us, vs = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    ys = (vs - cam.cy) / cam.fy
    depth = np.full((h, w), wall_z)
    floor = ys > cam_height / wall_z
    depth[floor] = cam_height / ys[floor]
    return DepthMap(depth), floor


# ----------------------------------------------------------- backprojection

def test_backprojection_hand_case():
    cam = CameraIntrinsics(fx=500.0, fy=400.0, cx=1.0, cy=1.0)
    depth = DepthMap(np.array([[2.0, 0.0], [4.0, 1.0]]))
    pts = backproject_grid(depth, cam)
    # x = (u - cx) / fx * z, y = (v - cy) / fy * z, z = depth
    np.testing.assert_allclose(pts[0, 0], [-1.0 / 500.0 * 2.0, -1.0 / 400.0 * 2.0, 2.0])
    np.testing.assert_allclose(pts[1, 1], [0.0, 0.0, 1.0])


def test_backprojection_zeroes_invalid_pixels():
    depth = DepthMap(np.array([[1.0, 0.0], [np.nan, 3.0]]))
    pts = backproject_grid(depth, CAM)
    assert pts.shape == (2, 2, 3)
    np.testing.assert_array_equal(depth.valid, [[True, False], [False, True]])
    assert not pts[~depth.valid].any()
    assert pts[0, 0, 2] == 1.0 and pts[1, 1, 2] == 3.0


# ----------------------------------------------------------------- normals

def test_plane_normals():
    depth, floor = _floor_wall_scene()
    normals, valid = _kernels.normals_from_points(backproject_grid(depth, CAM), depth.valid, 25)
    # squarely inside each region the normal is exact; pixels whose
    # windows straddle the floor/wall crease (rows 50-54) are excluded
    wall_core = ~floor
    wall_core[20:, :] = False
    floor_core = floor.copy()
    floor_core[:55, :] = False
    for region, expected in ((wall_core, [0.0, 0.0, -1.0]), (floor_core, [0.0, -1.0, 0.0])):
        region = region & valid
        assert region.sum() > 100
        errs = np.linalg.norm(normals[region] - expected, axis=1)
        assert errs.max() < 1e-6


def _oracle_normals(points, valid, k):
    """Per-pixel loops: grow a square window, gather, take the covariance."""
    h, w = valid.shape
    normals = np.zeros((h, w, 3))
    ok = np.zeros((h, w), dtype=bool)
    radius = np.zeros((h, w), dtype=int)
    count = np.zeros((h, w), dtype=int)
    r0 = 1
    while (2 * r0 + 1) ** 2 < k:
        r0 += 1
    for i in range(h):
        for j in range(w):
            if not valid[i, j]:
                continue
            r = r0
            while True:
                rows = slice(max(i - r, 0), min(i + r, h - 1) + 1)
                cols = slice(max(j - r, 0), min(j + r, w - 1) + 1)
                gathered = points[rows, cols][valid[rows, cols]]
                if len(gathered) >= k or r >= max(h, w):
                    break
                r += 1
            radius[i, j], count[i, j] = r, len(gathered)
            if len(gathered) < 3:
                continue
            centered = gathered - gathered.mean(axis=0)
            evals, evecs = np.linalg.eigh(centered.T @ centered / len(gathered))
            if evals[1] <= 1e-15:
                continue
            n = evecs[:, 0]
            normals[i, j] = -n if n @ points[i, j] > 0 else n
            ok[i, j] = True
    return normals, ok, radius, count


def _curved_grid(h, w, rng):
    us, vs = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    z = 3.0 + 0.4 * np.sin(us / 3.0) + 0.3 * np.cos(vs / 4.0) + 0.05 * rng.random((h, w))
    return np.stack([(us - w / 2) / 20.0 * z, (vs - h / 2) / 20.0 * z, z], axis=-1)


@pytest.mark.parametrize("case", ["holes", "sparse", "pair"])
def test_normals_match_brute_force_oracle(case):
    rng = np.random.default_rng(11)
    h, w, k = 16, 20, 25
    points = _curved_grid(h, w, rng)
    valid = rng.random((h, w)) > 0.3
    if case == "holes":
        valid[:, 14:] = True  # a solid band whose pixels keep the base window
        valid[3:12, 4:13] = False  # pixels on this hole's rim grow two or more rings
    elif case == "sparse":
        valid[:] = False  # fewer than k points in the whole grid
        valid[rng.integers(0, h, 12), rng.integers(0, w, 12)] = True
    else:
        valid[:] = False  # fewer than 3 points: no normal anywhere
        valid[2, 3] = valid[9, 14] = True
    # garbage at invalid pixels must not leak into any window
    points[~valid] = 1e6
    ref_n, ref_ok, radius, count = _oracle_normals(points, valid, k)
    r0 = _kernels.base_radius(k)
    if case == "holes":
        assert (radius[valid] == r0).any() and (radius[valid] >= r0 + 2).any()
        assert (count[valid] >= k).all()
    elif case == "sparse":
        assert (radius[valid] == max(h, w)).all() and (count[valid] < k).all()
        assert ref_ok.any()
    else:
        assert (count[valid] < 3).all()

    normals, ok = _kernels.normals_from_points(points, valid, k)
    np.testing.assert_array_equal(ok, ref_ok)
    assert np.abs(normals[ok] - ref_n[ok]).max(initial=0.0) < 1e-6
    assert not normals[~ok].any()


def test_normals_face_the_camera():
    depth, _ = _floor_wall_scene()
    points = backproject_grid(depth, CAM)
    normals, ok = _kernels.normals_from_points(points, depth.valid, 25)
    assert normals.shape == points.shape
    assert ok.any() and not (ok & ~depth.valid).any()
    dots = np.einsum("ij,ij->i", normals[ok], points[ok])
    assert (dots <= 1e-12).all()


def test_isolated_points_get_no_normal():
    vals = np.zeros((9, 9))
    vals[4, 4] = 2.0
    vals[0, 0] = 3.0
    depth = DepthMap(vals)
    normals, valid = _kernels.normals_from_points(backproject_grid(depth, CAM), depth.valid, 9)
    # two points can never span a plane
    assert not valid.any()


def test_window_grows_until_enough_points():
    # a sparse checkerboard forces windows to widen past the base radius
    vals = np.zeros((21, 21))
    us, vs = np.meshgrid(np.arange(21), np.arange(21))
    keep = (us + vs) % 4 == 0
    ys = (vs - 10.0) / 100.0
    vals[keep] = 5.0 - ys[keep]  # gently sloped sheet, full rank
    depth = DepthMap(vals)
    normals, valid = _kernels.normals_from_points(backproject_grid(depth, CAM), depth.valid, 25)
    interior = np.zeros_like(valid)
    interior[6:15, 6:15] = True
    assert (valid & interior & keep).sum() > 10


# ----------------------------------------------------------------- gravity

def test_gravity_recovers_from_tilted_start():
    depth, _ = _floor_wall_scene()
    normals, valid = _kernels.normals_from_points(backproject_grid(depth, CAM), depth.valid, 25)
    tilt = np.deg2rad(10.0)
    initial = np.array([np.sin(tilt), np.cos(tilt), 0.0])
    est = estimate_gravity(normals, valid, initial=initial)
    angle = np.rad2deg(np.arccos(abs(float(est.direction @ [0.0, 1.0, 0.0]))))
    assert angle < 1.0
    assert est.converged


def test_gravity_default_seed_is_camera_down():
    depth, _ = _floor_wall_scene()
    normals, valid = _kernels.normals_from_points(backproject_grid(depth, CAM), depth.valid, 25)
    est = estimate_gravity(normals, valid)
    assert est.direction @ [0.0, 1.0, 0.0] > 0.99


def test_gravity_needs_normals():
    with pytest.raises(ValueError):
        estimate_gravity(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        estimate_gravity(np.ones((4, 3)), initial=np.zeros(3))


# -------------------------------------------------------------------- hdha

def test_hdha_channels_on_floor_wall_scene():
    depth, floor = _floor_wall_scene()
    enc = hdha_encode(depth, CAM)
    # disparity: fx * baseline / z, exact on the wall
    wall = ~floor & enc.valid
    np.testing.assert_allclose(enc.hd[wall], 100.0 * 0.075 / 6.0, rtol=1e-12)
    # height is shifted so the lowest valid point sits exactly at 0
    assert enc.height[enc.valid].min() == 0.0
    # floor normals oppose gravity (180 degrees), wall normals are orthogonal
    floor_core = floor.copy()
    floor_core[:55, :] = False
    wall_core = ~floor
    wall_core[20:, :] = False
    assert np.abs(enc.angle[floor_core & enc.valid] - 180.0).max() < 0.5
    assert np.abs(enc.angle[wall_core & enc.valid] - 90.0).max() < 0.5


def test_hdha_fixed_gravity_skips_estimation():
    depth, _ = _floor_wall_scene()
    g = np.array([0.0, 1.0, 0.0])
    enc = hdha_encode(depth, CAM, gravity=g)
    enc2 = hdha_encode(depth, CAM)
    np.testing.assert_allclose(enc.angle[enc.valid], enc2.angle[enc2.valid], atol=0.5)


def test_hdha_height_spans_scene_extent():
    depth, _ = _floor_wall_scene(cam_height=1.2)
    enc = hdha_encode(depth, CAM)
    # scene spans from the floor to the top of the wall
    top = enc.height[enc.valid].max()
    # wall top at y = (0 - cy)/fy * 6 = -1.77m, floor at +1.2m below camera
    assert top == pytest.approx(1.2 + 29.5 / 100.0 * 6.0, rel=0.05)
