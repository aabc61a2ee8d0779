"""Depth-to-image encodings: quantization, grayscale, jet table, stats."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from depthkit.encoding import hdha_to_rgb
from depthkit.geometry import HdhaImage


def _depth(values, mask=None):
    return DepthMap(np.asarray(values, dtype=np.float64), mask)


# ---------------------------------------------------------------- quantize

def test_quantize_rounds_half_away_from_zero():
    vals = np.array([0.0, 0.4999, 0.5, 1.5, 254.5, 255.0])
    np.testing.assert_array_equal(quantize_u8(vals), [0, 0, 1, 2, 255, 255])


def test_quantize_clips_out_of_range():
    np.testing.assert_array_equal(quantize_u8(np.array([-3.0, 300.0])), [0, 255])


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
    with pytest.raises(ValueError):
        jet_table()[0, 0] = 9


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
