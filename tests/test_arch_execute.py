"""Seeded numeric execution: generator stream, kernels, full forwards."""
import tracemalloc

import numpy as np
import pytest

from depthkit.arch import (
    BACKBONES,
    VARIANTS,
    GraphError,
    Lcg,
    build_architecture,
    count_parameters,
    execute_forward,
    propagate_shapes,
)
from depthkit.arch.execute import (
    BLOCK,
    LCG_A,
    LCG_C,
    _bilinear_resize,
    _conv2d,
    _fc,
    _maxpool,
    _roi_align,
    _states_to_weights,
)

M64 = 1 << 64


# the first state of this seed is 2^64 - 1, which rounds to 2^64 as a float
EDGE_SEED = 15635871386175874928


def _scalar_stream(seed, n):
    """Step-at-a-time reference for the vectorized generator."""
    state = seed % M64
    out = []
    for _ in range(n):
        state = (LCG_A * state + LCG_C) % M64
        out.append(state / 2.0**64 * 0.2 - 0.1)
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


def test_edge_seed_draws_exactly_the_upper_bound():
    assert (LCG_A * EDGE_SEED + LCG_C) % M64 == M64 - 1
    assert Lcg(EDGE_SEED).draws(1)[0] == 0.1


def test_draws_are_consumed_sequentially():
    # later calls continue the stream, also across generator block edges
    sizes = [1, 9, 64, 26, BLOCK - 100, 7, BLOCK + 2, 1, BLOCK - 2]
    whole = Lcg(3).draws(sum(sizes))
    split = Lcg(3)
    parts = np.concatenate([split.draws(k) for k in sizes])
    np.testing.assert_array_equal(whole, parts)


def test_draws_stay_inside_closed_interval():
    vals = Lcg(123).draws(10_000)
    assert vals.min() >= -0.1
    assert vals.max() <= 0.1


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


def test_block_conversion_matches_integer_oracle():
    edges = [0, 1, 2**32 - 1, 2**32, 2**53 - 1, 2**53 + 1, 2**63,
             M64 - 1024, M64 - 1025, M64 - 1]
    ties = list(_rounding_ties())
    # ties round to even, so both directions are exercised
    assert {float(t) > t for t in ties[1::3]} == {False, True}
    rng = np.random.default_rng(5)
    states = np.concatenate([
        np.array(edges + ties, dtype=np.uint64),
        rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False),
    ])
    got = np.empty(states.size)
    _states_to_weights(states, got, np.empty_like(states))
    want = np.array([int(s) / 2.0**64 * 0.2 - 0.1 for s in states])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_different_seeds_differ():
    assert not np.array_equal(Lcg(0).draws(32), Lcg(1).draws(32))


def test_zero_draws():
    assert Lcg(5).draws(0).size == 0


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
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 7, 6))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    for stride, pad in ((1, 1), (2, 1), (1, 0), (2, 0)):
        got = _conv2d(x, w, b, stride, pad)
        np.testing.assert_allclose(got, _conv_reference(x, w, b, stride, pad), atol=1e-10)


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


@pytest.mark.parametrize("lead", [(), (3,)])
def test_streamed_fc_matches_materialised_product(lead):
    # 500 rows of 5000 inputs stream as 192 + 192 + 116 rows
    n_in, n_out = 5000, 500
    x = np.random.default_rng(2).standard_normal(lead + (n_in,))
    streamed = Lcg(4)
    got = _fc(x, n_out, streamed)
    whole = Lcg(4)
    w = whole.draws(n_out * n_in).reshape(n_out, n_in)
    b = whole.draws(n_out)
    np.testing.assert_allclose(got, x @ w.T + b, rtol=1e-12)
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
    propagate_shapes(graph, (3, h, w), 2)
    outputs = execute_forward(graph, _toy_inputs(graph, h, w), seed=0)
    assert set(outputs) == {"det:scores", "det:deltas", "rpn:objectness", "rpn:deltas"}
    for key, arr in outputs.items():
        assert arr.shape == graph.shapes[key], key
        assert np.isfinite(arr).all()


def test_forward_is_bitwise_deterministic():
    graph = build_architecture("baseline", "vgg16")
    propagate_shapes(graph, (3, 64, 64), 2)
    inputs = _toy_inputs(graph, 64, 64)
    a = execute_forward(graph, inputs, seed=5)
    b = execute_forward(graph, inputs, seed=5)
    for key in a:
        assert a[key].tobytes() == b[key].tobytes()


def test_forward_seed_changes_outputs():
    graph = build_architecture("baseline", "vgg16")
    propagate_shapes(graph, (3, 64, 64), 2)
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
    assert sum(drawn) == count_parameters(graph).total - bn


def test_forward_memory_is_bounded_by_the_input():
    # fc6 alone holds 102.8M weights (784 MiB as float64); streamed, the
    # whole forward stays far below that
    graph = build_architecture("raw-LC", "vgg16")
    inputs = _toy_inputs(graph, 32, 32)
    tracemalloc.start()
    try:
        execute_forward(graph, inputs, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
