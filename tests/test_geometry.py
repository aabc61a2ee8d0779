"""Backprojection, surface normals, gravity, HDHA."""
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_run import numpy_peak
from depth_scenes import dropout, floor_wall
from depthkit import CameraIntrinsics, DepthMap, estimate_gravity, hdha_encode
from depthkit import _kernels
from depthkit.geometry import _DepthRows, backproject_grid

CAM = CameraIntrinsics(fx=100.0, fy=100.0, cx=39.5, cy=29.5, baseline=0.075)


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


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backprojection_matches_meshgrid_and_stack(seed):
    # the reference formula, kept here: two meshgrids, one masked depth,
    # and the three planes stacked
    rng = np.random.default_rng(seed)
    h, w = rng.integers(1, 60, 2)
    values = rng.uniform(0.3, 9.0, (h, w))
    values[rng.random((h, w)) < 0.2] = 0.0
    values[rng.random((h, w)) < 0.05] = np.nan
    values[rng.random((h, w)) < 0.05] = -np.inf
    depth = DepthMap(values)
    cam = CameraIntrinsics(fx=rng.uniform(50, 700), fy=rng.uniform(50, 700),
                           cx=rng.uniform(-5, w + 5), cy=rng.uniform(-5, h + 5))
    uu, vv = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    d = np.where(depth.valid, depth.values, 0.0)
    expected = np.stack([(uu - cam.cx) * d / cam.fx, (vv - cam.cy) * d / cam.fy, d], axis=-1)
    assert np.array_equal(_bits(backproject_grid(depth, cam)), _bits(expected))


def test_backprojected_rows_are_the_grid_rows():
    rng = np.random.default_rng(3)
    values = rng.uniform(0.5, 8.0, (37, 23))
    values[rng.random(values.shape) < 0.3] = 0.0
    depth = DepthMap(values)
    grid = backproject_grid(depth, CAM)
    for lo, hi in ((0, 37), (0, 1), (5, 21), (36, 37), (9, 9)):
        assert np.array_equal(_bits(backproject_grid(depth, CAM, lo, hi)), _bits(grid[lo:hi]))
    rows, cols = np.nonzero(rng.random(values.shape) < 0.5)
    assert np.array_equal(_bits(_DepthRows(depth, CAM).at(rows, cols)), _bits(grid[rows, cols]))


# ----------------------------------------------------------------- normals

def test_plane_normals():
    values, floor = floor_wall()
    depth = DepthMap(values)
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


def _oracle_case(case):
    """(points, valid, k) of one oracle case on a 16x20 grid."""
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
    return points, valid, k


@pytest.mark.parametrize("case", ["holes", "sparse", "pair"])
def test_normals_match_brute_force_oracle(case):
    points, valid, k = _oracle_case(case)
    h, w = valid.shape
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


@pytest.mark.parametrize("case", ["holes", "sparse"])
def test_chunk_size_changes_no_bit(monkeypatch, case):
    points, valid, k = _oracle_case(case)
    if case == "holes":
        # chunks of 7 split the valid pixels, in row-major order, with
        # edges inside the rim: a pixel that grows two or more rings sits
        # on each side of some edge, next to pixels keeping the base window
        radius = _oracle_normals(points, valid, k)[2][valid]
        r0 = _kernels.base_radius(k)
        edges = np.arange(7, radius.size, 7)
        assert edges.size > 20
        grows = radius >= r0 + 2
        assert (grows[edges - 1] & grows[edges]).any()
        assert any(r.max() >= r0 + 2 and r.min() == r0 for r in np.split(radius, edges))
    results = []
    for chunk in (1, 7, valid.size + 1):
        monkeypatch.setattr(_kernels, "CHUNK", chunk)
        results.append(_kernels.normals_from_points(points, valid, k))
    assert results[0][1].any()
    for normals, ok in results[1:]:
        assert np.array_equal(normals, results[0][0])
        assert np.array_equal(ok, results[0][1])


@pytest.mark.parametrize("case", ["holes", "sparse"])
def test_checkpoint_spacing_changes_no_bit(monkeypatch, case):
    # bands rebuilt from checkpoints every row, every 7 rows, or only
    # from the top of the image; sparse windows span the whole image
    points, valid, k = _oracle_case(case)
    expected = _kernels.normals_from_points(points, valid, k)
    assert expected[1].any()
    for spacing in (1, 7, valid.shape[0] + 1):
        for chunk in (1, 7):
            monkeypatch.setattr(_kernels, "CHECKPOINT_ROWS", spacing)
            monkeypatch.setattr(_kernels, "CHUNK", chunk)
            normals, ok = _kernels.normals_from_points(points, valid, k)
            assert np.array_equal(normals, expected[0]), (spacing, chunk)
            assert np.array_equal(ok, expected[1]), (spacing, chunk)


def _row_source_case(case):
    """A depth map of one row-source case: dense with holes, sparse with
    windows that span the map, or with no valid pixel."""
    rng = np.random.default_rng(23)
    values = floor_wall()[0]
    if case == "dense":
        dropout(values, rng, 6, (0, 50), (6, 9), 0.05)
    elif case == "sparse":
        values[rng.random(values.shape) > 0.004] = 0.0
    else:
        values[:] = 0.0
    return DepthMap(values)


@pytest.mark.parametrize("case", ["dense", "sparse", "empty"])
def test_row_source_kernel_is_bitwise_the_grid_kernel(monkeypatch, case):
    # many chunks, each reading its band and its own points through the
    # source; the windows of the sparse case grow to max(H, W)
    depth = _row_source_case(case)
    monkeypatch.setattr(_kernels, "CHUNK", 97)
    expected = _kernels.normals_from_points(backproject_grid(depth, CAM), depth.valid, 25)
    normals, ok = _kernels.normals_from_points(_DepthRows(depth, CAM), depth.valid, 25)
    assert np.array_equal(_bits(normals), _bits(expected[0]))
    assert np.array_equal(ok, expected[1])
    assert ok.any() == (case != "empty")
    if case == "sparse":
        assert 3 <= depth.valid.sum() < 25


@settings(max_examples=80, deadline=None)
@given(h=st.integers(1, 60), w=st.integers(1, 12), blank=st.integers(0, 40),
       density=st.sampled_from([0.0, 0.01, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_strip_mean_is_bitwise_the_gathered_mean(h, w, blank, density, seed):
    # magnitudes over eight decades make the order of additions show
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(h, w, 3)) * 10.0 ** rng.uniform(-4, 4, (h, w, 1))
    valid = rng.random((h, w)) < density
    valid[:blank] = False
    if density == 0.01 and not valid.any():
        valid[rng.integers(h), rng.integers(w)] = True  # one valid pixel
    mean = _kernels.valid_mean(_kernels._Grid(points), valid)
    expected = points[valid].mean(axis=0) if valid.any() else np.zeros(3)
    assert np.array_equal(_bits(mean), _bits(expected))


class _ThreadRows(_kernels._Grid):
    """A whole-grid row source that records the threads reading points."""

    def __init__(self, points):
        super().__init__(points)
        self.threads = set()

    def at(self, i, j):
        self.threads.add(threading.current_thread().name)
        return super().at(i, j)


@pytest.mark.parametrize("case", ["holes", "sparse"])
def test_pooled_chunks_are_bitwise_the_inline_chunks(monkeypatch, case):
    points, valid, k = _oracle_case(case)
    monkeypatch.setattr(_kernels, "CHUNK", 7)
    results = []
    for cores in (1, 2):
        monkeypatch.setattr(_kernels, "_cores", lambda: cores)
        source = _ThreadRows(points)
        results.append(_kernels.normals_from_points(source, valid, k))
        on_main = source.threads == {threading.current_thread().name}
        assert on_main == (cores == 1), source.threads
    assert results[0][1].any()
    assert np.array_equal(_bits(results[1][0]), _bits(results[0][0]))
    assert np.array_equal(results[1][1], results[0][1])


def test_hdha_encode_runs_as_pool_tasks(monkeypatch):
    # as many encodes as the pool has workers, each with many chunks: a
    # worker that queued its chunks behind the other encodes would wait
    # forever, so each runs its chunks inline
    monkeypatch.setattr(_kernels, "CHUNK", 256)
    maps = [DepthMap(floor_wall(cam_height=1.0 + 0.1 * i)[0])
            for i in range(max(2, _kernels._cores()))]
    expected = [hdha_encode(d, CAM) for d in maps]
    results = []
    runner = threading.Thread(target=lambda: results.append(
        _kernels.pool_map(lambda d: hdha_encode(d, CAM), maps)), daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "pooled encodes did not finish"
    for enc, ref in zip(results[0], expected):
        for channel in ("hd", "height", "angle"):
            assert np.array_equal(_bits(getattr(enc, channel)), _bits(getattr(ref, channel)))
        assert np.array_equal(enc.valid, ref.valid)


_VGA_CAM = CameraIntrinsics(fx=500.0, fy=500.0, cx=319.5, cy=239.5, baseline=0.075)


def test_hdha_memory_is_bounded_by_the_map():
    # a VGA floor/wall scene with dropout holes: beside the normals, the
    # encode holds the count integral image, the moment checkpoints and
    # up to two chunks' bands and temporaries, one a pool worker, and
    # peaks in the normals kernel at about 19.4 MiB (15.5 MiB with the
    # chunks run inline); the whole point grid held through the kernel
    # would take it to about 25.5 MiB, and a whole-image 10-moment
    # integral image to about 50 MiB
    values = floor_wall(480, 640, fy=_VGA_CAM.fy, cy=_VGA_CAM.cy)[0]
    dropout(values, np.random.default_rng(5), 40, (0, 440), (30, 40), 0.05)
    enc, peak = numpy_peak(hdha_encode, DepthMap(values), _VGA_CAM)
    assert enc.valid.sum() > 200_000
    assert peak < 21 * 2**20, peak


def test_hdha_memory_when_windows_span_the_map():
    # fewer than k valid points in a VGA map: every window grows to
    # max(H, W), so one chunk's band is the whole 9-moment integral image
    rng = np.random.default_rng(7)
    values = np.zeros((480, 640))
    values.flat[rng.choice(values.size, 20, replace=False)] = rng.uniform(2.0, 4.0, 20)
    enc, peak = numpy_peak(hdha_encode, DepthMap(values), _VGA_CAM)
    assert enc.valid.sum() == 20
    assert peak < 80 * 2**20, peak


def test_normals_face_the_camera():
    depth = DepthMap(floor_wall()[0])
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
    depth = DepthMap(floor_wall()[0])
    normals, valid = _kernels.normals_from_points(backproject_grid(depth, CAM), depth.valid, 25)
    tilt = np.deg2rad(10.0)
    initial = np.array([np.sin(tilt), np.cos(tilt), 0.0])
    est = estimate_gravity(normals, valid, initial=initial)
    angle = np.rad2deg(np.arccos(abs(float(est.direction @ [0.0, 1.0, 0.0]))))
    assert angle < 1.0
    assert est.converged


def test_gravity_default_seed_is_camera_down():
    depth = DepthMap(floor_wall()[0])
    normals, valid = _kernels.normals_from_points(backproject_grid(depth, CAM), depth.valid, 25)
    est = estimate_gravity(normals, valid)
    assert est.direction @ [0.0, 1.0, 0.0] > 0.99


def _pitched_room(pitch, h=120, w=160):
    """A noise-free room ray-cast through a camera pitched down by ``pitch``
    radians, after the benchmark corpus's rule: floor, ceiling, back wall
    and two side walls of a level room, no boxes, no holes.  Returns the
    depth map, its intrinsics and the mask of floor pixels."""
    cam = CameraIntrinsics(fx=131.25, fy=131.25, cx=(w - 1) / 2, cy=(h - 1) / 2)
    cam_h, half_w, offset, back = 1.3, 2.2, 0.3, 6.0
    ceiling = cam_h - 2.7
    # rays in the camera frame (x right, y down, z forward, unit z), then
    # into a level world frame by the downward pitch about x
    dx = np.broadcast_to(((np.arange(w) - cam.cx) / cam.fx)[None, :], (h, w))
    dy_c = np.broadcast_to(((np.arange(h) - cam.cy) / cam.fy)[:, None], (h, w))
    c, s = np.cos(pitch), np.sin(pitch)
    dy = c * dy_c + s
    dz = -s * dy_c + c
    # a ray's camera-frame z is 1, so the depth of a hit is its parameter t
    t = np.full((h, w), np.inf)
    plane_id = np.full((h, w), -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, (plane, d) in enumerate(((cam_h, dy), (ceiling, dy), (back, dz),
                                        (offset - half_w, dx), (offset + half_w, dx))):
            hit = plane / d
            nearer = (hit > 0) & (hit < t)
            t = np.where(nearer, hit, t)
            plane_id[nearer] = i
    return DepthMap(t), cam, plane_id == 0


@pytest.mark.parametrize("pitch_deg", [5.0, 12.5, 20.0])
def test_gravity_and_floor_normals_match_a_pitched_room(pitch_deg):
    pitch = np.deg2rad(pitch_deg)
    depth, cam, floor = _pitched_room(pitch)
    normals, valid = _kernels.normals_from_points(backproject_grid(depth, cam), depth.valid, 25)
    assert valid.all()
    est = estimate_gravity(normals, valid)
    truth = np.array([0.0, np.cos(pitch), np.sin(pitch)])
    off = np.rad2deg(np.arccos(min(float(est.direction @ truth), 1.0)))
    assert off < 0.1, f"gravity {off:.4f} degrees off"
    assert est.converged and est.iterations <= 5
    # k = 25 on a fully valid map: a 5x5 window, whole inside the image two
    # pixels in from its edge; keep the pixels whose window is all floor
    core = np.zeros_like(floor)
    core[2:-2, 2:-2] = np.lib.stride_tricks.sliding_window_view(floor, (5, 5)).all(axis=(2, 3))
    assert core.sum() > 1000
    # a camera-facing floor normal points up, against gravity
    cos = np.clip(normals[core] @ -truth, -1.0, 1.0)
    assert np.rad2deg(np.arccos(cos)).max() < 0.1


def _gravity_cases():
    depth = DepthMap(floor_wall()[0])
    normals, valid = _kernels.normals_from_points(backproject_grid(depth, CAM), depth.valid, 25)
    yield normals, valid, None
    yield normals, valid, np.array([np.sin(0.3), np.cos(0.3), 0.0])
    rng = np.random.default_rng(11)
    for frac in (0.9, 0.5, 0.01):
        n = rng.normal(size=(37, 53, 3))
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        n[:20, :, 1] += 4.0  # a floor-like share pulls the estimate
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        mask = rng.random((37, 53)) < frac
        n[~mask] = 0.0  # the kernel's fill at pixels with no normal
        yield n, mask, rng.normal(size=3)


def test_gravity_mask_matches_the_gathered_normals():
    # the reference: the valid normals gathered into their own array
    for normals, valid, initial in _gravity_cases():
        got = estimate_gravity(normals, valid, initial=initial)
        ref = estimate_gravity(normals[valid], initial=initial)
        assert np.array_equal(_bits(got.direction), _bits(ref.direction))
        assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
        assert got.parallel_count == ref.parallel_count
        assert got.orthogonal_count == ref.orthogonal_count
        assert ref.parallel_count + ref.orthogonal_count > 0


def test_gravity_needs_normals():
    with pytest.raises(ValueError):
        estimate_gravity(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        estimate_gravity(np.ones((4, 3)), valid=np.zeros(4, dtype=bool))
    with pytest.raises(ValueError):
        estimate_gravity(np.ones((4, 3)), initial=np.zeros(3))


@pytest.mark.parametrize("initial", [[np.nan, 0.0, 0.0], [np.inf, 1.0, 0.0],
                                     [0.0, -np.inf, 1.0], [1e308, 1e308, 0.0]],
                         ids=["nan", "inf", "minus-inf", "overflow"])
def test_gravity_refuses_a_start_with_no_direction(initial):
    normals = np.tile([0.0, 1.0, 0.0], (4, 1))
    # tier-1 turns any overflow warning into a failure
    with pytest.raises(ValueError, match="finite nonzero"):
        estimate_gravity(normals, initial=np.array(initial))


def test_hdha_checks_gravity_before_the_normals_kernel(monkeypatch):
    depth = DepthMap(floor_wall()[0])
    calls = []
    monkeypatch.setattr(_kernels, "normals_from_points", lambda *a: calls.append(a))
    for gravity in ([0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [1e308, 1e308, 0.0]):
        with pytest.raises(ValueError, match="finite nonzero"):
            hdha_encode(depth, CAM, gravity=np.array(gravity))
    assert calls == []


# -------------------------------------------------------------------- hdha

def test_hdha_channels_on_floor_wall_scene():
    values, floor = floor_wall()
    depth = DepthMap(values)
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
    depth = DepthMap(floor_wall()[0])
    g = np.array([0.0, 1.0, 0.0])
    enc = hdha_encode(depth, CAM, gravity=g)
    enc2 = hdha_encode(depth, CAM)
    np.testing.assert_allclose(enc.angle[enc.valid], enc2.angle[enc2.valid], atol=0.5)


@pytest.mark.parametrize("shape", [(60, 80), (37, 23), (17, 1)])
def test_hdha_height_is_the_whole_grid_product(shape):
    # the height channel takes its product strip by strip; each pixel's
    # value is that of the product over the whole point grid
    rng = np.random.default_rng(shape[1])
    values = rng.uniform(2.0, 2.5, shape)
    values[rng.random(shape) < 0.2] = 0.0
    depth = DepthMap(values)
    g = np.array([0.1, 0.9, 0.3])
    enc = hdha_encode(depth, CAM, gravity=g)
    expected = -(backproject_grid(depth, CAM) @ (g / np.linalg.norm(g)))
    expected -= expected[enc.valid].min()
    expected[~enc.valid] = 0.0
    assert enc.valid.sum() > values.size // 2
    assert np.array_equal(_bits(enc.height), _bits(expected))


def test_hdha_height_spans_scene_extent():
    depth = DepthMap(floor_wall(cam_height=1.2)[0])
    enc = hdha_encode(depth, CAM)
    # scene spans from the floor to the top of the wall
    top = enc.height[enc.valid].max()
    # wall top at y = (0 - cy)/fy * 6 = -1.77m, floor at +1.2m below camera
    assert top == pytest.approx(1.2 + 29.5 / 100.0 * 6.0, rel=0.05)
