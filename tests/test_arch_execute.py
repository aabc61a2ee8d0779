"""Seeded numeric execution: generator stream, kernels, full forwards."""
import copy

import numpy as np
import pytest

from cli_run import numpy_peak
from depthkit.arch import (
    BACKBONES,
    VARIANTS,
    GraphError,
    LayerSpec,
    Lcg,
    build_architecture,
    count_parameters,
    execute_forward,
    propagate_shapes,
)
from depthkit.arch import execute
from depthkit.arch.execute import (
    BLOCK,
    LCG_A,
    LCG_C,
    _bilinear,
    _bilinear_resize,
    _conv2d,
    _maxpool,
    _products,
    _roi_align,
    _run_node,
    _states_to_weights,
    _streamed,
    _windows,
)

M64 = 1 << 64


# the first state of this seed is 2^64 - 1, the largest
EDGE_SEED = 15635871386175874928
# the first state of this seed is 0, the smallest
ZERO_SEED = (-LCG_C * pow(LCG_A, -1, M64)) % M64


def _weight(state):
    """Integer oracle of the weight rule: the high 52 bits of the state as
    the significand of ``f`` in [1, 2), then ``(f - 1.5) * 0.2``."""
    return ((1.0 + (state >> 12) * 2.0**-52) - 1.5) * 0.2


def _scalar_stream(seed, n):
    """Step-at-a-time reference for the vectorized generator."""
    state = seed % M64
    out = []
    for _ in range(n):
        state = (LCG_A * state + LCG_C) % M64
        out.append(_weight(state))
    return np.array(out)


# ---------------------------------------------------------------- generator

def test_draws_match_scalar_recurrence():
    for seed in (0, 1, 7, 2**63 + 11):
        np.testing.assert_array_equal(Lcg(seed).draws(257), _scalar_stream(seed, 257))


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_draws_match_scalar_recurrence_across_blocks(n):
    # the draw after the call checks the state the call left behind
    for seed in (7, EDGE_SEED):
        lcg = Lcg(seed)
        got = np.append(lcg.draws(n), lcg.draws(1))
        np.testing.assert_array_equal(got, _scalar_stream(seed, n + 1))


def test_draws_are_half_open_at_the_extreme_states():
    assert (LCG_A * ZERO_SEED + LCG_C) % M64 == 0
    assert Lcg(ZERO_SEED).draws(1)[0] == -0.1
    assert (LCG_A * EDGE_SEED + LCG_C) % M64 == M64 - 1
    top = Lcg(EDGE_SEED).draws(1)[0]
    assert top == 0.09999999999999996
    assert top < 0.1


def test_draws_are_consumed_sequentially():
    # later calls continue the stream, also across generator block edges
    sizes = [1, 9, 64, 26, BLOCK - 100, 7, BLOCK + 2, 1, BLOCK - 2]
    whole = Lcg(3).draws(sum(sizes))
    split = Lcg(3)
    parts = np.concatenate([split.draws(k) for k in sizes])
    np.testing.assert_array_equal(whole, parts)


def test_draws_stay_inside_half_open_interval():
    vals = Lcg(123).draws(10_000)
    assert vals.min() >= -0.1
    assert vals.max() < 0.1


def _rounding_ties():
    # states exactly halfway between two floats of exponent e, and their
    # neighbours; even k rounds the tie down, odd k rounds it up
    rng = np.random.default_rng(11)
    ks = [2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1]
    ks += [int(k) for k in rng.integers(2**52, 2**53, size=8)]
    for e in (54, 60, 63):
        for k in ks:
            tie = (k << (e - 52)) | (1 << (e - 53))
            yield from (tie - 1, tie, tie + 1)


def _oracle_states():
    # edge states (2^12 - 1 is the last whose high 52 bits are all zero),
    # the ties of a uint64 -> float64 cast, and 100k random states
    edges = [0, 1, 2**12 - 1, 2**12, 2**32 - 1, 2**32, 2**53 - 1, 2**53 + 1, 2**63,
             M64 - 1024, M64 - 1025, M64 - 1]
    ties = list(_rounding_ties())
    # ties round to even, so both directions are exercised
    assert {float(t) > t for t in ties[1::3]} == {False, True}
    rng = np.random.default_rng(5)
    return np.concatenate([
        np.array(edges + ties, dtype=np.uint64),
        rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False),
    ])


def test_block_conversion_matches_integer_oracle():
    states = _oracle_states()
    got = np.empty(states.size)
    _states_to_weights(states, got)
    want = np.array([_weight(int(s)) for s in states])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_weights_stay_within_1e16_of_the_scaled_state():
    # why the recorded forward digests hold for this rule and for
    # 0.2 * (s / 2^64) - 0.1 alike: the two differ far below the 7 digits
    # the CLI prints of each output sum
    states = _oracle_states()
    got = np.empty(states.size)
    _states_to_weights(states, got)
    scaled = np.array([int(s) / 2.0**64 * 0.2 - 0.1 for s in states])
    assert np.abs(got - scaled).max() <= 1e-16


def test_different_seeds_differ():
    assert not np.array_equal(Lcg(0).draws(32), Lcg(1).draws(32))


def test_zero_draws():
    assert Lcg(5).draws(0).size == 0


@pytest.mark.parametrize("seed", [-1, M64])
def test_seed_outside_64_bits_is_rejected(seed):
    # no silent reduction mod 2^64: -1 would run with the weights of 2^64 - 1
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64 - 1\]"):
        Lcg(seed)


# ------------------------------------------------------------------ kernels

def _conv_reference(x, w, b, stride, pad):
    n, cin, h, ww = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - k) // stride + 1
    ow = (ww + 2 * pad - k) // stride + 1
    out = np.zeros((n, cout, oh, ow))
    for i in range(n):
        for co in range(cout):
            for y in range(oh):
                for z in range(ow):
                    patch = xp[i, :, y * stride:y * stride + k, z * stride:z * stride + k]
                    out[i, co, y, z] = (patch * w[co]).sum()
            if b is not None:
                out[i, co] += b[co]
    return out


def test_conv2d_matches_direct_loop():
    # the conv draws its weight then its bias; a twin generator replays them
    # (one image, 1x1, stride 1) multiplies the image's planes in place
    x = np.random.default_rng(0).standard_normal((2, 3, 7, 6))
    for n, k, stride, pad in ((2, 3, 1, 1), (2, 3, 2, 1), (2, 3, 1, 0), (2, 3, 2, 0), (1, 1, 1, 0)):
        got = _conv2d(x[:n], 4, k, True, Lcg(stride + 2 * pad), stride, pad)
        twin = Lcg(stride + 2 * pad)
        w = twin.draws(4 * 3 * k * k).reshape(4, 3, k, k)
        b = twin.draws(4)
        np.testing.assert_allclose(got, _conv_reference(x[:n], w, b, stride, pad), atol=1e-10)


def test_maxpool_matches_direct_loop():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 2, 6, 6))
    got = _maxpool(x, 2, 2, 0)
    for c in range(2):
        for y in range(3):
            for z in range(3):
                expect = x[0, c, 2 * y:2 * y + 2, 2 * z:2 * z + 2].max()
                assert got[0, c, y, z] == expect


def test_maxpool_pad_uses_minus_infinity():
    x = np.full((1, 1, 2, 2), -5.0)
    got = _maxpool(x, 3, 2, 1)
    # padding must never win the max
    assert got.shape == (1, 1, 1, 1)
    assert got[0, 0, 0, 0] == -5.0


def test_bilinear_resize_identity_and_doubling():
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    np.testing.assert_array_equal(_bilinear_resize(x, 4, 4), x)
    up = _bilinear_resize(x, 8, 8)
    assert up.shape == (1, 1, 8, 8)
    # half-pixel centers: corners replicate, interior interpolates
    assert up[0, 0, 0, 0] == 0.0
    assert up[0, 0, 7, 7] == 15.0
    assert up[0, 0, 3, 3] == pytest.approx(x[0, 0].mean() * (7.5 / 7.5), abs=2.0)


def test_bilinear_resize_exact_on_linear_ramp():
    # bilinear interpolation reproduces an affine field exactly away
    # from the replicated border
    h, w = 6, 9
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    x = (2.0 * xs + 3.0 * ys + 1.0).reshape(1, 1, h, w)
    out = _bilinear_resize(x, 12, 18)
    sy, sx = h / 12.0, w / 18.0
    for oy in range(2, 10):
        for ox in range(2, 16):
            src_y = (oy + 0.5) * sy - 0.5
            src_x = (ox + 0.5) * sx - 0.5
            assert out[0, 0, oy, ox] == pytest.approx(2.0 * src_x + 3.0 * src_y + 1.0)


def test_roi_align_single_bin_center():
    feat = np.arange(25, dtype=float).reshape(1, 5, 5)
    # one roi spanning [0,4) x [0,4) pooled 2x2: one sample per bin at
    # the bin center, so at (1,1), (1,3), (3,1), (3,3) exactly
    rois = np.array([[0.0, 0.0, 4.0, 4.0]])
    out = _roi_align(feat, rois, 2, 1.0)
    assert out.shape == (1, 1, 2, 2)
    np.testing.assert_allclose(out[0, 0], [[feat[0, 1, 1], feat[0, 1, 3]],
                                           [feat[0, 3, 1], feat[0, 3, 3]]])


def test_roi_align_scale_maps_image_to_feature():
    feat = np.zeros((1, 4, 4))
    feat[0, 1, 1] = 8.0
    # image-space box, 1/4 scale: center of the single bin lands on (1.5, 1.5)
    rois = np.array([[2.0, 2.0, 10.0, 10.0]])
    out = _roi_align(feat, rois, 1, 0.25)
    assert out[0, 0, 0, 0] == pytest.approx(8.0 * 0.25)


def _four_corner(feat, ys, xs):
    """Reference sampler: ``(C, H, W)`` at clamped float coordinates ``ys``
    and ``xs`` of one shape, each corner weighted by its own product."""
    h, w = feat.shape[-2:]
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = ys - y0
    wx = xs - x0
    return (feat[:, y0, x0] * (1 - wy) * (1 - wx) + feat[:, y0, x1] * (1 - wy) * wx
            + feat[:, y1, x0] * wy * (1 - wx) + feat[:, y1, x1] * wy * wx)


def test_bilinear_matches_four_corner_reference():
    # values in [1, 2] keep the sums free of cancellation, so only the
    # order of the products can move the last bits
    feat = np.random.default_rng(11).uniform(1.0, 2.0, (2, 3, 5, 7))
    # integers, the last row and column exactly, fractions, and points
    # outside the map on either side
    ys = np.array([-1.5, 0.0, 1.0, 2.25, 3.999, 4.0, 4.5, 9.0])
    xs = np.array([-0.1, 0.0, 0.5, 3.0, 5.75, 6.0, 6.0001, 20.0, 2.5])
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    got = _bilinear(feat, ys, xs)
    assert got.shape == (2, 3, 8, 9)
    for i in range(2):
        np.testing.assert_allclose(got[i], _four_corner(feat[i], yy, xx), rtol=1e-14, atol=0)


def test_roi_align_matches_four_corner_reference():
    feat = np.random.default_rng(12).uniform(1.0, 2.0, (3, 6, 8))
    pool, scale = 3, 0.5
    rois = np.array([
        [0.0, 0.0, 14.0, 10.0],     # the whole map, last row and column included
        [-6.0, -4.0, 30.0, 20.0],   # runs past the map on every side
        [4.0, 2.0, 4.0, 2.0],       # a point: every bin on one integer sample
        [9.0, 7.0, 3.0, 1.0],       # corners given in reverse order
    ])
    grid = (np.arange(pool) + 0.5) / pool
    expect = np.empty((len(rois), 3, pool, pool))
    for i, roi in enumerate(rois):
        x1, y1, x2, y2 = roi * scale
        yy = np.repeat(y1 + grid * (y2 - y1), pool)
        xx = np.tile(x1 + grid * (x2 - x1), pool)
        expect[i] = _four_corner(feat, yy, xx).reshape(3, pool, pool)
    np.testing.assert_allclose(_roi_align(feat, rois, pool, scale), expect, rtol=1e-14, atol=0)


def test_bilinear_resize_keeps_the_row_first_formula_bits():
    # the resize formula the sampler replaced, with its order of operations
    x = np.random.default_rng(13).standard_normal((2, 3, 5, 7))
    oh, ow = 9, 4
    ih, iw = x.shape[-2:]
    ys = np.clip((np.arange(oh) + 0.5) * (ih / oh) - 0.5, 0.0, ih - 1.0)
    xs = np.clip((np.arange(ow) + 0.5) * (iw / ow) - 0.5, 0.0, iw - 1.0)
    y0, x0 = np.floor(ys).astype(int), np.floor(xs).astype(int)
    y1, x1 = np.minimum(y0 + 1, ih - 1), np.minimum(x0 + 1, iw - 1)
    wy, wx = (ys - y0)[:, None], xs - x0
    top = x[:, :, y0][:, :, :, x0] * (1 - wx) + x[:, :, y0][:, :, :, x1] * wx
    bot = x[:, :, y1][:, :, :, x0] * (1 - wx) + x[:, :, y1][:, :, :, x1] * wx
    assert np.array_equal(_bilinear_resize(x, oh, ow), top * (1 - wy) + bot * wy)


@pytest.mark.parametrize("spec", [
    LayerSpec(kind="conv2d", out_channels=4, kernel=3, stride=2, pad=1),
    LayerSpec(kind="maxpool", kernel=3, stride=2, pad=1),
    LayerSpec(kind="bilinear_resize", out_size=(5, 9)),
    LayerSpec(kind="rpn_head", hidden=4, num_anchors=2),
    LayerSpec(kind="flatten"),
], ids=lambda spec: spec.kind)
def test_chw_tensor_runs_as_a_batch_of_one(spec):
    x = np.random.default_rng(14).standard_normal((3, 6, 7))
    products = _products(spec.weight_shapes([x.shape]))
    single = _run_node(spec, [x], 1, products, Lcg(5))
    batch = _run_node(spec, [x[None]], 1, products, Lcg(5))
    assert single.keys() == batch.keys()
    for port in single:
        assert np.array_equal(single[port], batch[port][0]), port


@pytest.mark.parametrize("lead", [(), (3,)])
def test_streamed_fc_matches_materialised_product(lead):
    # 500 rows of 5000 inputs stream as 192 + 192 + 116 rows
    n_in, n_out = 5000, 500
    x = np.random.default_rng(2).standard_normal(lead + (n_in,))
    streamed = Lcg(4)
    got = _streamed(x, n_out, streamed, True)
    whole = Lcg(4)
    w = whole.draws(n_out * n_in).reshape(n_out, n_in)
    b = whole.draws(n_out)
    np.testing.assert_allclose(got, x @ w.T + b, rtol=1e-12)
    assert streamed.state == whole.state


def test_streamed_conv_matches_materialised_product():
    # K = 600 * 3 * 3 = 5400 inputs a row: 200 output channels stream as 192 + 8 rows
    c_out, c_in, k = 200, 600, 3
    x = np.random.default_rng(6).standard_normal((1, c_in, 5, 4))
    streamed = Lcg(8)
    got = _conv2d(x, c_out, k, True, streamed, 1, 1)
    whole = Lcg(8)
    w = whole.draws(c_out * c_in * k * k).reshape(c_out, c_in, k, k)
    b = whole.draws(c_out)
    np.testing.assert_allclose(got, _conv_reference(x, w, b, 1, 1), atol=1e-10)
    assert streamed.state == whole.state


def _untiled_conv(x, c_out, k, bias, lcg, stride, pad):
    """The conv over its whole im2col matrix, one matmul per row block."""
    view = _windows(x, k, stride, pad, 0.0)
    n, _, oh, ow = view.shape[:4]
    cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh * ow, -1)
    return _streamed(cols, c_out, lcg, bias).transpose(0, 2, 1).reshape(n, c_out, oh, ow)


@pytest.mark.parametrize("tile_rows", [1, 3])
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_tiled_conv_is_bitwise_the_untiled_conv(monkeypatch, k, n, tile_rows):
    # two 64-row blocks over tiles of whole output rows (spanning batch items
    # when tile_rows is 3); a row holds 19+ positions, so every product has
    # over 1,200 outputs and takes OpenBLAS's blocked kernel
    c_in = 5
    x = np.random.default_rng(k).standard_normal((n, c_in, 19, 41))
    ow = (41 + 2 - k) // 2 + 1
    monkeypatch.setattr(execute, "WEIGHT_BLOCK_VALUES", 1)
    monkeypatch.setattr(execute, "TILE_VALUES", tile_rows * ow * c_in * k * k)
    assert len(execute._Im2col(_windows(x, k, 2, 1, 0.0)).bounds) >= 4
    tiled, untiled = Lcg(k), Lcg(k)
    got = _conv2d(x, 128, k, True, tiled, 2, 1)
    assert np.array_equal(got, _untiled_conv(x, 128, k, True, untiled, 2, 1))
    assert tiled.state == untiled.state


def test_streamed_det_head_matches_materialised_product():
    # scores, then deltas, each weight before its bias
    graph = build_architecture("baseline", "vgg16")
    spec = graph.nodes["det"]
    x = np.random.default_rng(3).standard_normal((2, 4096))
    streamed = Lcg(9)
    got = _run_node(spec, [x], 2, _products(spec.weight_shapes([x.shape])), streamed)
    whole = Lcg(9)
    for port, n_out in (("scores", 21), ("deltas", 84)):
        w = whole.draws(n_out * 4096).reshape(n_out, 4096)
        b = whole.draws(n_out)
        np.testing.assert_allclose(got[port], x @ w.T + b, rtol=1e-12)
    assert streamed.state == whole.state


# ----------------------------------------------------------------- forwards

def _toy_inputs(graph, h, w, seed=99):
    filler = Lcg(seed)
    inputs = {}
    for name, ispec in graph.inputs.items():
        if ispec.rois:
            inputs[name] = np.array([
                [0.0, 0.0, w / 2, h / 2],
                [w / 4, h / 4, w - 1.0, h - 1.0],
            ])
        else:
            inputs[name] = filler.draws(ispec.channels * h * w).reshape(ispec.channels, h, w)
    return inputs


@pytest.mark.parametrize("variant", ["baseline", "raw-LC", "proc-MC"])
def test_forward_shapes_match_propagation(variant):
    graph = build_architecture(variant, "vgg16")
    h = w = 64
    shapes = propagate_shapes(graph, (3, h, w), 2)
    outputs = execute_forward(graph, _toy_inputs(graph, h, w), seed=0)
    assert set(outputs) == {"det:scores", "det:deltas", "rpn:objectness", "rpn:deltas"}
    for key, arr in outputs.items():
        assert arr.shape == shapes[key], key
        assert np.isfinite(arr).all()


def test_forward_is_bitwise_deterministic():
    graph = build_architecture("baseline", "vgg16")
    inputs = _toy_inputs(graph, 64, 64)
    a = execute_forward(graph, inputs, seed=5)
    b = execute_forward(graph, inputs, seed=5)
    for key in a:
        assert a[key].tobytes() == b[key].tobytes()


def test_forward_seed_changes_outputs():
    graph = build_architecture("baseline", "vgg16")
    inputs = _toy_inputs(graph, 64, 64)
    a = execute_forward(graph, inputs, seed=0)
    b = execute_forward(graph, inputs, seed=1)
    assert not np.array_equal(a["det:scores"], b["det:scores"])


def test_forward_checks_input_shapes():
    graph = build_architecture("baseline", "vgg16")
    inputs = _toy_inputs(graph, 64, 64)
    inputs["rgb"] = inputs["rgb"][:2]
    with pytest.raises(GraphError):
        execute_forward(graph, inputs, seed=0)


def test_forward_rejects_missing_and_extra_inputs():
    graph = build_architecture("baseline", "vgg16")
    inputs = _toy_inputs(graph, 64, 64)
    with pytest.raises(GraphError):
        execute_forward(graph, {"rgb": inputs["rgb"]}, seed=0)
    with pytest.raises(GraphError):
        execute_forward(graph, dict(inputs, ghost=np.zeros(3)), seed=0)


def test_forward_propagates_shapes_itself():
    # no propagate_shapes call needed: sizes come from the tensors
    graph = build_architecture("baseline", "vgg16")
    outputs = execute_forward(graph, _toy_inputs(graph, 64, 64), seed=0)
    assert outputs["det:scores"].shape == (2, 21)


def test_forward_rejects_a_negative_seed():
    graph = build_architecture("baseline", "vgg16")
    with pytest.raises(ValueError, match="seed"):
        execute_forward(graph, _toy_inputs(graph, 32, 32), seed=-1)


def test_forward_leaves_the_graph_unchanged():
    # a forward's 64x64 shapes must not leak into later exports of the graph
    graph = build_architecture("raw-EC", "vgg16")
    before = copy.deepcopy(graph)
    execute_forward(graph, _toy_inputs(graph, 64, 64), seed=0)
    assert graph == before


@pytest.mark.parametrize("backbone", BACKBONES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_drawn_values_equal_counted_parameters(monkeypatch, variant, backbone):
    # the executor draws exactly the weights the counter reports; only the
    # frozen batch-norm pairs are counted without being drawn
    graph = build_architecture(variant, backbone)
    inputs = _toy_inputs(graph, 32, 32)
    drawn = []

    def counting_draws(self, n):
        drawn.append(n)
        return np.zeros(n)

    monkeypatch.setattr(Lcg, "draws", counting_draws)
    execute_forward(graph, inputs, seed=0)
    bn = sum(2 * s.out_channels for s in graph.nodes.values()
             if s.kind == "conv2d" and s.batch_norm)
    shapes = propagate_shapes(graph, (3, 32, 32), 2)
    assert sum(drawn) == count_parameters(graph, shapes).total - bn


def test_forward_memory_is_bounded_by_the_input():
    # fc6 alone holds 102.8M weights (784 MiB as float64) and the resnet101
    # proposal conv 4.72M (36 MiB); every weight streams in row blocks, so
    # the resnet101 case peaks at about 15 MiB, and at about 114 MiB if no
    # activation is freed once its last reader has run.  At 128x128 vgg16's
    # conv1_2 im2col alone would be 72 MiB; in tiles, the forward peaks at 27
    for variant, backbone, side, mib in (("raw-LC", "vgg16", 32, 24), ("raw-LC", "vgg16", 128, 40),
                                         ("hdha-split", "resnet101", 64, 24)):
        graph = build_architecture(variant, backbone)
        inputs = _toy_inputs(graph, side, side)
        peak = numpy_peak(execute_forward, graph, inputs, 0)[1]
        assert peak < mib * 2**20, (variant, backbone, side, peak)
