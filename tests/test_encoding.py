"""Depth-to-image encodings: quantization, grayscale, jet table, stats."""
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_run import numpy_peak
from depthkit import (
    CameraIntrinsics,
    ChannelStats,
    DepthMap,
    compute_channel_stats,
    grayscale_encode,
    jet_encode,
    jet_table,
    load_depth,
    quantize_u8,
)
from depthkit import netpbm
from depthkit.encoding import hdha_to_rgb, spill_hdha
from depthkit.geometry import HdhaImage


def _depth(values, mask=None):
    return DepthMap(np.asarray(values, dtype=np.float64), mask)


# ---------------------------------------------------------------- quantize

def test_quantize_rounds_half_away_from_zero():
    vals = np.array([0.0, 0.4999, 0.5, 1.5, 254.5, 255.0])
    np.testing.assert_array_equal(quantize_u8(vals), [0, 0, 1, 2, 255, 255])


def test_quantize_clips_out_of_range():
    np.testing.assert_array_equal(quantize_u8(np.array([-3.0, 300.0])), [0, 255])


def _quantize_reference(values, valid=None):
    # the multiply-by-sign formula on fresh arrays
    arr = np.asarray(values, dtype=np.float64)
    out = np.clip(np.floor(np.abs(arr) + 0.5) * np.sign(arr), 0, 255)
    if valid is not None:
        out = np.where(valid, out, 0)
    return out.astype(np.uint8)


def test_quantize_matches_the_sign_formula():
    ties = np.arange(-3, 259) + 0.5
    special = [0.0, -0.0, -1e-300, 1e-300, 0.49999999999999994, -0.49999999999999994,
               254.49999999999997, 255.0, 255.5, 256.0, 1e300, -1e300, np.inf, -np.inf]
    rng = np.random.default_rng(2)
    values = np.concatenate([ties, special, rng.uniform(-50.0, 300.0, 500)])
    mask = rng.random(values.size) < 0.7
    kept = values.copy()
    for valid in (None, mask):
        got = quantize_u8(values, valid)
        assert got.dtype == np.uint8
        assert np.array_equal(got, _quantize_reference(values, valid))
    # an (H, W, 3) image under an (H, W, 1) mask, as the HDHA render passes it
    image, image_mask = values[:768].reshape(16, 16, 3), mask[:256].reshape(16, 16, 1)
    assert np.array_equal(quantize_u8(image, image_mask), _quantize_reference(image, image_mask))
    assert np.array_equal(values.view(np.uint64), kept.view(np.uint64))


# --------------------------------------------------------------- grayscale

def test_grayscale_maps_range_endpoints():
    d = _depth([[2.0, 4.0], [6.0, 6.0]])
    enc = grayscale_encode(d, 2.0, 6.0)
    np.testing.assert_array_equal(enc, [[0, 128], [255, 255]])


def test_grayscale_clamps_beyond_range():
    d = _depth([[0.5, 9.0]])
    enc = grayscale_encode(d, 1.0, 5.0)
    np.testing.assert_array_equal(enc, [[0, 255]])


def test_grayscale_invalid_pixels_code_to_zero():
    d = _depth([[0.0, 3.0]])
    assert not d.valid[0, 0]
    enc = grayscale_encode(d, 1.0, 5.0)
    assert enc[0, 0] == 0


def test_grayscale_rejects_empty_range():
    with pytest.raises(ValueError):
        grayscale_encode(_depth([[1.0]]), 5.0, 5.0)


@settings(max_examples=200)
@given(
    st.lists(st.floats(0.1, 99.0), min_size=2, max_size=30),
    st.floats(0.1, 50.0),
    st.floats(0.2, 49.0),
)
def test_grayscale_is_monotone_in_depth(depths, lo, width):
    hi = lo + width
    enc = grayscale_encode(_depth([depths]), lo, hi)
    order = np.argsort(depths)
    codes = enc[0][order]
    assert np.all(np.diff(codes.astype(int)) >= 0)


# --------------------------------------------------------------------- jet

def _jet_reference():
    """Independent rebuild of the 256-entry jet table in exact arithmetic."""
    table = np.zeros((256, 3), dtype=np.uint8)
    for t in range(256):
        u = Fraction(t, 255)
        for col, center in enumerate((Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))):
            v = Fraction(3, 2) - abs(4 * u - 4 * center)
            v = min(max(v, Fraction(0)), Fraction(1))
            table[t, col] = int(v * 255 + Fraction(1, 2))
    return table


def test_jet_table_matches_exact_arithmetic():
    np.testing.assert_array_equal(jet_table(), _jet_reference())


def test_jet_table_endpoints_and_midpoint():
    table = jet_table()
    assert tuple(table[0]) == (0, 0, 128)
    assert tuple(table[255]) == (128, 0, 0)
    # the t=128 entry sits a hair above 129.5 in exact arithmetic; a
    # float-rounded table gets 129 here
    assert tuple(table[128]) == (130, 255, 126)


def test_jet_table_channel_peaks():
    table = jet_table().astype(int)
    assert table[:, 1].max() == 255
    assert table[191, 0] == 255 and table[64, 2] == 255


def test_jet_encode_uses_table_and_zeroes_invalid():
    d = _depth([[1.0, 3.0, 0.0]])
    gray = grayscale_encode(d, 1.0, 3.0)
    rgb = jet_encode(gray, d.valid)
    table = jet_table()
    np.testing.assert_array_equal(rgb[0, 0], table[0])
    np.testing.assert_array_equal(rgb[0, 1], table[255])
    np.testing.assert_array_equal(rgb[0, 2], (0, 0, 0))


def test_jet_table_is_read_only():
    assert jet_table().shape == (256, 3)
    with pytest.raises(ValueError):
        jet_table()[0, 0] = 9


@pytest.mark.parametrize("seed", range(6))
def test_jet_render_and_summary_match_the_gathering_expressions(seed):
    # references: the 3-byte row gather, np.where and astype of the jet
    # render, and min and max of the gathered valid depths
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 70, 2))
    values = rng.uniform(0.2, 9.0, shape) * 10.0 ** rng.uniform(-3, 3, shape)
    values[rng.random(shape) < rng.choice([0.0, 0.3, 0.99])] = 0.0
    depth = DepthMap(values)
    gray = grayscale_encode(depth, 0.1, 50.0)
    rgb = jet_encode(gray, depth.valid)
    expected = np.where(depth.valid[..., None], jet_table()[gray], 0).astype(np.uint8)
    assert rgb.dtype == np.uint8 and rgb.flags.c_contiguous
    assert np.array_equal(rgb, expected)
    info = depth.summary()
    if depth.valid.any():
        vals = values[depth.valid]
        assert (info["min"], info["max"]) == (float(vals.min()), float(vals.max()))
    else:
        assert (info["min"], info["max"]) == (None, None)


# ------------------------------------------------------------------- stats

def _fake_hdha(channels, valid):
    return HdhaImage(hd=channels[0], height=channels[1], angle=channels[2], valid=valid)


def test_channel_stats_pool_across_images():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 5.0, size=(3, 2, 2))
    b = rng.uniform(0.0, 5.0, size=(3, 2, 2))
    va = np.array([[True, True], [True, False]])
    vb = np.array([[True, True], [True, True]])
    stats = compute_channel_stats([_fake_hdha(a, va), _fake_hdha(b, vb)])
    for c in range(3):
        pooled = np.concatenate([a[c][va], b[c][vb]])
        assert stats.means[c] == pytest.approx(pooled.mean())
        # population std, not the sample estimator
        assert stats.stds[c] == pytest.approx(pooled.std(ddof=0))


def test_channel_stats_match_the_concatenated_pool():
    # the reference: every image's stacked channels gathered, concatenated
    # and reduced by np.mean and np.std; the batch holds a map with no
    # valid pixel and maps of different shapes
    images = _stats_case(8)
    assert not images[1].valid.any()
    stacked = np.concatenate([img.channels()[img.valid] for img in images], axis=0)
    stats = compute_channel_stats(images)
    assert np.array_equal(np.array(stats.means).view(np.uint64),
                          stacked.mean(axis=0).view(np.uint64))
    assert np.array_equal(np.array(stats.stds).view(np.uint64),
                          stacked.std(axis=0).view(np.uint64))


def _stats_case(seed, shapes=((40, 60, 0.8), (7, 9, 0.0), (120, 33, 0.35), (1, 1, 1.0))):
    # maps of different shapes, one of them with no valid pixel
    rng = np.random.default_rng(seed)
    images = []
    for h, w, frac in shapes:
        chans = rng.uniform(-1.0, 1.0, (3, h, w)) * [[[1e3]], [[2.5]], [[180.0]]] + 7.0
        images.append(_fake_hdha(chans, rng.random((h, w)) < frac))
    return images


def test_spilled_maps_read_back_pool_and_render_as_the_held_maps(tmp_path):
    images = _stats_case(9)
    spilled = [spill_hdha(img, str(tmp_path / f"{i}.hdha")) for i, img in enumerate(images)]
    for img, spill in zip(images, spilled):
        assert spill.shape == img.shape and spill.count == np.count_nonzero(img.valid)
        assert os.path.getsize(spill.path) == 25 * img.valid.size
        for lo, hi in ((0, img.shape[0]), (img.shape[0] // 3, img.shape[0] // 2 + 1)):
            held, read = img.strip(lo, hi), spill.strip(lo, hi)
            for name in ("hd", "height", "angle", "valid"):
                assert np.array_equal(getattr(read, name).view(np.uint8),
                                      getattr(held, name).view(np.uint8)), name
    stats = compute_channel_stats(images)
    assert compute_channel_stats(spilled) == stats
    for img, spill in zip(images, spilled):
        for with_stats in (None, stats):
            assert np.array_equal(hdha_to_rgb(spill, with_stats), hdha_to_rgb(img, with_stats))


def test_channel_stats_memory_is_a_strip(tmp_path):
    # two VGA maps of which about 80% of pixels are valid, held and then
    # spilled: the stats hold one strip of each plane and its gathers,
    # 0.1 and 0.6 MiB; one column of every valid pixel took 3.8 MiB, and
    # grew with the batch
    rng = np.random.default_rng(12)
    held = [_fake_hdha(rng.normal(size=(3, 480, 640)) * [[[9.0]], [[0.8]], [[40.0]]],
                       rng.random((480, 640)) < 0.8) for _ in range(2)]
    stacked = np.concatenate([img.channels()[img.valid] for img in held], axis=0)
    spilled = [spill_hdha(img, str(tmp_path / f"{i}.hdha")) for i, img in enumerate(held)]
    for images in (held, spilled):
        stats, peak = numpy_peak(compute_channel_stats, images)
        assert np.array_equal(np.array(stats.means), stacked.mean(axis=0))
        assert peak < 2**20, peak


def test_channel_stats_reject_constant_channel():
    a = np.stack([np.ones((2, 2)), np.full((2, 2), 5.0), np.zeros((2, 2))])
    v = np.ones((2, 2), dtype=bool)
    with pytest.raises(ValueError):
        compute_channel_stats([_fake_hdha(a, v)])


def test_channel_stats_reject_all_invalid():
    a = np.zeros((3, 2, 2))
    v = np.zeros((2, 2), dtype=bool)
    with pytest.raises(ValueError):
        compute_channel_stats([_fake_hdha(a, v)])


def test_channel_stats_standardize_valid_pixels():
    rng = np.random.default_rng(5)
    chans = rng.uniform(1.0, 4.0, size=(3, 4, 4))
    chans[1] *= 7
    valid = np.ones((4, 4), dtype=bool)
    valid[0, 0] = False
    chans[:, 0, 0] = 1e6  # an invalid pixel must not enter the stats
    img = _fake_hdha(chans, valid)
    stats = compute_channel_stats([img])
    z = (img.channels() - np.asarray(stats.means)) / np.asarray(stats.stds)
    for c in range(3):
        assert z[..., c][valid].mean() == pytest.approx(0.0, abs=1e-12)
        assert z[..., c][valid].std() == pytest.approx(1.0)


def test_channel_stats_json_round_trip(tmp_path):
    stats = ChannelStats(means=(1.0, 2.0, 3.0), stds=(4.0, 5.0, 6.0))
    path = tmp_path / "stats.json"
    stats.to_json(str(path))
    back = ChannelStats.from_json(str(path))
    assert back == stats


def test_channel_stats_reject_nonpositive_std():
    with pytest.raises(ValueError):
        ChannelStats(means=(0.0,), stds=(0.0,))


# ------------------------------------------------------------------ loading

def test_load_depth_pfm_is_meters(tmp_path):
    vals = np.array([[0.5, 2.0], [0.0, np.inf]], dtype=np.float32)
    path = tmp_path / "d.pfm"
    netpbm.write_pfm(str(path), vals)
    d = load_depth(str(path))
    np.testing.assert_array_equal(d.valid, [[True, True], [False, False]])
    assert d.values[0, 1] == 2.0
    assert d.values[1, 1] == 0.0


def test_load_depth_pgm16_is_millimeters(tmp_path):
    vals = np.array([[1500, 0], [250, 65535]], dtype=np.uint16)
    path = tmp_path / "d.pgm"
    netpbm.write_pgm16(str(path), vals)
    d = load_depth(str(path))
    assert d.values[0, 0] == pytest.approx(1.5)
    assert not d.valid[0, 1]
    assert d.values[1, 1] == pytest.approx(65.535)


def test_load_depth_builds_its_map_in_place(tmp_path):
    # a VGA PFM with holes: the float32 raster and its float64 copy,
    # zeroed in place, are 3.5 MiB; a second float64 array for the
    # zeroed values took 5.6 MiB
    rng = np.random.default_rng(2)
    vals = rng.uniform(0.5, 8.0, (480, 640)).astype(np.float32)
    vals[rng.random(vals.shape) < 0.1] = 0.0
    vals[0, :3] = (np.nan, np.inf, -1.0)
    path = tmp_path / "d.pfm"
    netpbm.write_pfm(str(path), vals)
    depth, peak = numpy_peak(load_depth, str(path))
    valid = np.isfinite(vals) & (vals > 0)
    assert np.array_equal(depth.valid, valid)
    assert np.array_equal(depth.values, np.where(valid, vals.astype(np.float64), 0.0))
    assert peak < 4 * 2**20, peak


def test_load_depth_rejects_8bit_pgm(tmp_path):
    path = tmp_path / "d.pgm"
    netpbm.write_pgm8(str(path), np.ones((2, 2), dtype=np.uint8))
    with pytest.raises(netpbm.ParseError):
        load_depth(str(path))


def test_intrinsics_json_round_trip(tmp_path):
    path = tmp_path / "cam.json"
    path.write_text('{"fx": 518.8, "fy": 519.4, "cx": 325.6, "cy": 253.7}')
    cam = CameraIntrinsics.from_json(str(path))
    assert (cam.fx, cam.baseline) == (518.8, 0.075)


# ---------------------------------------------------------------- rendering

def test_hdha_to_rgb_zscore_window():
    chans = np.full((3, 1, 4), 0.5)
    chans[0] = [[-3.0, 0.0, 3.0, 9.0]]
    img = _fake_hdha(chans, np.ones((1, 4), dtype=bool))
    stats = ChannelStats(means=(0.0, 0.0, 0.0), stds=(1.0, 1.0, 1.0))
    rgb = hdha_to_rgb(img, stats=stats)
    # z in [-3, 3] spans the byte range; outside clamps
    assert rgb[0, 0, 0] == 0
    assert rgb[0, 1, 0] == 128
    assert rgb[0, 2, 0] == 255
    assert rgb[0, 3, 0] == 255


def test_hdha_to_rgb_minmax_without_stats():
    chans = np.zeros((3, 1, 3))
    chans[0] = [[2.0, 4.0, 6.0]]
    chans[1] = [[1.0, 1.5, 2.0]]
    chans[2] = [[0.0, 90.0, 180.0]]
    valid = np.array([[True, True, True]])
    rgb = hdha_to_rgb(_fake_hdha(chans, valid))
    np.testing.assert_array_equal(rgb[0, :, 0], [0, 128, 255])
    np.testing.assert_array_equal(rgb[0, :, 1], [0, 128, 255])
    np.testing.assert_array_equal(rgb[0, :, 2], [0, 128, 255])


def test_hdha_to_rgb_invalid_pixels_black():
    chans = np.ones((3, 1, 2))
    chans[:, 0, 1] = 5.0
    valid = np.array([[False, True]])
    rgb = hdha_to_rgb(_fake_hdha(chans, valid))
    np.testing.assert_array_equal(rgb[0, 0], (0, 0, 0))


def _render_reference(image, stats=None):
    # the render on fresh arrays: zeros_like, one expression per branch
    chans = image.channels()
    out = np.zeros_like(chans)
    if stats is not None:
        out = ((chans - np.asarray(stats.means)) / np.asarray(stats.stds) + 3.0) / 6.0 * 255.0
    else:
        for c in range(3):
            vals = chans[..., c][image.valid]
            if vals.size and vals.max() > vals.min():
                out[..., c] = (chans[..., c] - vals.min()) / (vals.max() - vals.min()) * 255.0
    out = np.clip(out, 0.0, 255.0)
    return _quantize_reference(out, np.broadcast_to(image.valid[..., None], out.shape))


def _render_case(seed, shape=(30, 41)):
    rng = np.random.default_rng(seed)
    scale, offset = np.array([4.0, 0.7, 50.0]), np.array([12.0, 1.0, 90.0])
    chans = rng.normal(size=(3, *shape)) * scale[:, None, None] + offset[:, None, None]
    chans[1] = 5.0  # a constant channel renders to 0 without stats
    valid = rng.random(shape) < 0.75
    chans[:, ~valid] = 0.0
    return _fake_hdha(chans, valid)


@pytest.mark.parametrize("with_stats", [False, True])
def test_hdha_to_rgb_matches_the_reference_and_leaves_its_input(with_stats):
    image = _render_case(4)
    stats = ChannelStats((11.0, 4.0, 95.0), (3.5, 0.25, 40.0)) if with_stats else None
    kept = [plane.copy() for plane in (image.hd, image.height, image.angle, image.valid)]
    rgb = hdha_to_rgb(image, stats)
    assert np.array_equal(rgb, _render_reference(image, stats))
    for plane, copy in zip((image.hd, image.height, image.angle, image.valid), kept):
        assert np.array_equal(plane.view(np.uint8), copy.view(np.uint8))


def test_hdha_to_rgb_memory_is_bounded_by_the_map(tmp_path):
    # one VGA render, held and then spilled, holds the uint8 result
    # (0.9 MiB) and the float copy of one strip's channels: 1.4 and
    # 1.7 MiB; the (H, W, 3) float copy of the whole map took 7.9 MiB
    held = _render_case(6, shape=(480, 640))
    for image in (held, spill_hdha(held, str(tmp_path / "map.hdha"))):
        for stats in (None, ChannelStats((11.0, 4.0, 95.0), (3.5, 0.25, 40.0))):
            rgb, peak = numpy_peak(hdha_to_rgb, image, stats)
            assert rgb.shape == (480, 640, 3)
            assert peak < rgb.nbytes + 2**20, peak
