"""Depth/size statistics: sampling, heatmaps, similarity, correlation."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from depthkit.analysis import (
    Heatmap2D,
    SampleRecord,
    build_heatmap,
    collect_samples,
    heatmap_csv,
    heatmap_similarity,
    heatmap_to_pgm_bytes,
    parse_heatmap_csv,
    pearson_r,
    samples_csv,
)
from depthkit.encoding import DepthMap
from eval_rows import Box, Gt, gt_record


def _gt(image_id, box, class_id=1):
    return Gt(image_id=image_id, class_id=class_id, box=Box(*box))


def _ramp_map():
    # 6x8 plane of values 1..48, all valid
    return DepthMap(np.arange(48, dtype=np.float64).reshape(6, 8) + 1.0)


# ---------------------------------------------------------------- sampling

def test_sample_mean_over_outward_rounded_window():
    # floor(1.2)=1, floor(0.5)=0, ceil(3.0)=3, ceil(2.5)=3:
    # window rows 0..2, cols 1..2 holds 2,3,10,11,18,19
    samples = collect_samples(
        gt_record([_gt("a", (1.2, 0.5, 3.0, 2.5))]), {"a": _ramp_map()}
    )
    assert len(samples) == 1
    assert samples.mean_depth[0] == pytest.approx((2 + 3 + 10 + 11 + 18 + 19) / 6)
    assert samples.area[0] == pytest.approx(1.8 * 2.0)
    assert samples.image_id[0] == "a"
    assert samples.class_id[0] == 1


def test_sample_skips_invalid_pixels_in_window():
    values = np.arange(48, dtype=np.float64).reshape(6, 8) + 1.0
    values[0, 1] = 0.0  # drops the reading of 2 from the window above
    samples = collect_samples(
        gt_record([_gt("a", (1.2, 0.5, 3.0, 2.5))]), {"a": DepthMap(values)}
    )
    assert samples.mean_depth[0] == pytest.approx((3 + 10 + 11 + 18 + 19) / 5)


def test_sample_window_clips_to_image():
    samples = collect_samples(
        gt_record([_gt("a", (5.0, 3.0, 100.0, 100.0))]), {"a": _ramp_map()}
    )
    window = (np.arange(48, dtype=np.float64).reshape(6, 8) + 1.0)[3:6, 5:8]
    assert samples.mean_depth[0] == pytest.approx(window.mean())
    # the area still comes from the stated box, not the clipped window
    assert samples.area[0] == pytest.approx(95.0 * 97.0)


def test_box_with_no_valid_depth_yields_no_sample():
    values = np.ones((6, 8))
    values[:3, :3] = 0.0
    samples = collect_samples(
        gt_record([_gt("a", (0.0, 0.0, 3.0, 3.0)), _gt("a", (4.0, 4.0, 6.0, 6.0))]),
        {"a": DepthMap(values)},
    )
    assert len(samples) == 1
    assert samples.mean_depth[0] == 1.0


def test_box_entirely_outside_image_yields_no_sample():
    samples = collect_samples(
        gt_record([_gt("a", (-5.0, -5.0, -1.0, -1.0))]), {"a": _ramp_map()}
    )
    assert len(samples) == 0


def test_missing_depth_map_is_an_error():
    with pytest.raises(ValueError, match="nowhere"):
        collect_samples(gt_record([_gt("nowhere", (0, 0, 2, 2))]), {"a": _ramp_map()})


def test_samples_preserve_input_order():
    gts = [
        _gt("a", (0.0, 0.0, 2.0, 2.0), class_id=2),
        _gt("a", (3.0, 3.0, 5.0, 5.0), class_id=1),
    ]
    samples = collect_samples(gt_record(gts), {"a": _ramp_map()})
    assert samples.class_id.tolist() == [2, 1]


# ---------------------------------------------------------------- heatmaps

def _columns(pairs):
    return np.array(pairs, dtype=np.float64).reshape(-1, 2).T


def test_heatmap_conserves_mass_on_default_ranges():
    rng = np.random.default_rng(7)
    pairs = list(zip(rng.uniform(1, 10, 200), rng.uniform(10, 5000, 200)))
    hm = build_heatmap(*_columns(pairs), bins_x=20, bins_y=20)
    assert hm.total == 200
    assert hm.counts.shape == (20, 20)


def test_heatmap_upper_edge_lands_in_last_bin():
    hm = build_heatmap(
        *_columns([(1.0, 1.0), (5.0, 9.0)]), bins_x=4, bins_y=4
    )
    # maxima sit in the last column / last row, not outside the grid
    assert hm.counts[0, 0] == 1
    assert hm.counts[3, 3] == 1
    assert hm.total == 2


def test_heatmap_bin_placement_hand_case():
    # x edges 1,2,3,4,5; y edges 0,10,20,30,40
    pairs = [(1.0, 0.0), (2.0, 15.0), (4.999, 39.0), (5.0, 40.0)]
    hm = build_heatmap(*_columns(pairs), bins_x=4, bins_y=4)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1
    expected[1, 1] = 1
    expected[3, 3] = 2
    assert np.array_equal(hm.counts, expected)


def test_degenerate_axis_collapses_to_single_bin():
    hm = build_heatmap(
        *_columns([(2.0, 10.0), (2.0, 50.0)]), bins_x=20, bins_y=2
    )
    assert hm.counts.shape == (2, 1)
    assert hm.total == 2


def test_explicit_range_drops_outside_samples():
    pairs = [(1.0, 10.0), (5.0, 10.0), (9.0, 10.0)]
    hm = build_heatmap(
        *_columns(pairs), bins_x=4, bins_y=1, x_range=(0.0, 6.0)
    )
    assert hm.total == 2


def test_heatmap_rejects_empty_and_bad_bins():
    with pytest.raises(ValueError):
        build_heatmap([], [])
    with pytest.raises(ValueError):
        build_heatmap(*_columns([(1.0, 1.0)]), bins_x=0)


def test_edges_must_frame_the_grid():
    with pytest.raises(ValueError):
        Heatmap2D(
            x_edges=np.array([0.0, 1.0]),
            y_edges=np.array([0.0, 1.0]),
            counts=np.zeros((2, 2)),
        )


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.floats(0.5, 100.0, allow_nan=False),
            st.floats(1.0, 1e4, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_every_sample_lands_in_exactly_one_cell(pairs):
    hm = build_heatmap(*_columns(pairs), bins_x=7, bins_y=5)
    assert hm.total == len(pairs)
    assert (hm.counts >= 0).all()


def _loop_counts(pairs, x_edges, y_edges):
    """The reference: each sample binned on its own."""
    def index(v, edges):
        lo, hi = edges[0], edges[-1]
        n = len(edges) - 1
        if v < lo or v > hi:
            return None
        if v == hi:
            return n - 1
        return min(int((v - lo) / (hi - lo) * n), n - 1)

    counts = np.zeros((len(y_edges) - 1, len(x_edges) - 1))
    for x, y in pairs:
        i, j = index(y, y_edges), index(x, x_edges)
        if i is not None and j is not None:
            counts[i, j] += 1
    return counts


@settings(max_examples=100)
@given(
    st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=40),
    st.integers(1, 9),
    st.integers(1, 9),
    st.none() | st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 1e3)),
)
@example([(1e17, 1.0), (1e17, 2.0)], 3, 3, None)
@example([(0.0, 1.0), (5e-324, 2.0)], 4, 2, None)
def test_heatmap_bins_like_the_per_sample_loop(pairs, bins_x, bins_y, x_span):
    x_range = None if x_span is None else (x_span[0], x_span[0] + x_span[1])
    hm = build_heatmap(*_columns(pairs), bins_x=bins_x, bins_y=bins_y, x_range=x_range)
    assert np.array_equal(hm.counts, _loop_counts(pairs, hm.x_edges, hm.y_edges))


# ------------------------------------------------------------- similarity

def _frame(counts):
    counts = np.asarray(counts, dtype=np.float64)
    ny, nx = counts.shape
    return Heatmap2D(
        x_edges=np.arange(nx + 1, dtype=np.float64),
        y_edges=np.arange(ny + 1, dtype=np.float64),
        counts=counts,
    )


def test_self_similarity_is_one():
    rng = np.random.default_rng(3)
    hm = _frame(rng.integers(0, 9, size=(6, 6)).astype(float) + 1)
    assert heatmap_similarity(hm, hm) == pytest.approx(1.0, abs=1e-12)


def test_similarity_is_scale_invariant():
    counts = np.array([[1.0, 3.0], [0.0, 2.0]])
    assert heatmap_similarity(_frame(counts), _frame(counts * 7)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_disjoint_mass_scores_zero():
    a = _frame([[4.0, 0.0], [0.0, 0.0]])
    b = _frame([[0.0, 0.0], [0.0, 3.0]])
    assert heatmap_similarity(a, b) == 0.0


def test_similarity_rejects_mismatched_or_empty_grids():
    with pytest.raises(ValueError, match="differ"):
        heatmap_similarity(_frame(np.ones((2, 2))), _frame(np.ones((3, 2))))
    with pytest.raises(ValueError, match="empty"):
        heatmap_similarity(_frame(np.zeros((2, 2))), _frame(np.ones((2, 2))))


def test_similarity_ignores_axis_scales():
    # same mass layout on wildly different ranges still matches exactly
    counts = np.array([[2.0, 0.0], [1.0, 5.0]])
    a = _frame(counts)
    b = Heatmap2D(
        x_edges=np.array([0.0, 500.0, 1000.0]),
        y_edges=np.array([-3.0, 0.0, 3.0]),
        counts=counts.copy(),
    )
    assert heatmap_similarity(a, b) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ correlation

def test_pearson_matches_numpy_corrcoef():
    rng = np.random.default_rng(11)
    x = rng.normal(size=64)
    y = 0.3 * x + rng.normal(size=64)
    assert pearson_r(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)


def test_pearson_exact_at_the_extremes():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson_r(x, 2 * x + 5) == pytest.approx(1.0)
    assert pearson_r(x, -0.5 * x) == pytest.approx(-1.0)


def test_pearson_rejects_degenerate_input():
    with pytest.raises(ValueError):
        pearson_r([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson_r([1.0, 1.0], [2.0, 3.0])
    with pytest.raises(ValueError):
        pearson_r([1.0, 2.0, 3.0], [1.0, 2.0])


def test_projected_size_shrinks_with_distance():
    # pinhole geometry: a fixed-size object at depth d covers ~ (f*S/d)^2
    # pixels, so depth and area must correlate strongly negatively
    depth_maps = {}
    gts = []
    for i in range(30):
        d = 1.0 + 0.2 * i
        image_id = f"img{i}"
        depth_maps[image_id] = DepthMap(np.full((40, 40), d))
        side = 36.0 / d
        gts.append(_gt(image_id, (2.0, 2.0, 2.0 + side, 2.0 + side)))
    samples = collect_samples(gt_record(gts), depth_maps)
    r = pearson_r(samples.mean_depth, samples.area)
    assert r < -0.5


# ---------------------------------------------------------- serialization

def _record(rows):
    image_id, class_id, depth, area = zip(*rows)
    return SampleRecord(np.array(image_id, dtype=object), np.array(class_id),
                        np.array(depth), np.array(area))


def test_samples_csv_names_classes_and_formats_floats():
    samples = _record([("im1", 1, 2.5, 100.0), ("im2", 9, 3.0, 12.25)])
    text = samples_csv(samples, classes=["background", "chair"])
    lines = text.splitlines()
    assert lines[0] == "image_id,class,mean_depth,area"
    assert lines[1] == "im1,chair,2.500000,100.000000"
    # class id 9 has no name in a 2-entry table: keep the raw id
    assert lines[2] == "im2,9,3.000000,12.250000"


def test_samples_csv_without_class_table():
    text = samples_csv(_record([("a", 3, 1.0, 2.0)]))
    assert text.splitlines()[1] == "a,3,1.000000,2.000000"


def test_heatmap_csv_round_trip_is_exact():
    rng = np.random.default_rng(5)
    pairs = list(zip(rng.uniform(1, 7, 50), rng.uniform(3, 999, 50)))
    hm = build_heatmap(*_columns(pairs), bins_x=6, bins_y=4)
    back = parse_heatmap_csv(heatmap_csv(hm))
    assert np.array_equal(back.x_edges, hm.x_edges)
    assert np.array_equal(back.y_edges, hm.y_edges)
    assert np.array_equal(back.counts, hm.counts)


def test_parse_heatmap_csv_wants_edge_headers():
    with pytest.raises(ValueError, match="x_edges"):
        parse_heatmap_csv("1,2,3\n4,5,6\n")


def test_heatmap_pgm_bytes_scale_peak_to_255():
    hm = _frame([[0.0, 5.0], [10.0, 2.5]])
    img = heatmap_to_pgm_bytes(hm)
    assert img.dtype == np.uint8
    # 127.5 and 63.75 round half away from zero
    assert img.tolist() == [[0, 128], [255, 64]]


def test_heatmap_pgm_bytes_all_zero_grid():
    img = heatmap_to_pgm_bytes(_frame(np.zeros((3, 3))))
    assert img.dtype == np.uint8
    assert not img.any()
