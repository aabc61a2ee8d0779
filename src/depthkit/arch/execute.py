"""Deterministic numeric execution of an architecture graph.

The executor exists to exercise wiring end to end: every weight comes
from a seeded 64-bit linear congruential generator, so a forward pass
is a pure function of (graph, inputs, seed) and bitwise reproducible.

Generator: ``x' = (6364136223846793005 * x + 1442695040888963407) mod 2^64``,
seeded directly with ``seed``.  Each successive state maps to a weight
via ``0.2 * (x / 2^64) - 0.1`` in float64, uniform over [-0.1, 0.1]:
``x / 2^64`` rounds to 1.0 for states within 2^10 of 2^64, so 0.1
itself can be drawn.

The conversion never mixes integer and float operands, and every step
is exact but one.  Or-ing the high 32 bits of a state into the
significand of 2^84 gives the float ``2^84 + hi * 2^32``; subtracting
``2^84 + 2^52`` leaves ``hi * 2^32 - 2^52`` exactly.  Or-ing the low 32
bits into the significand of 2^52 gives ``2^52 + lo`` exactly.  Their
sum is the state plus one rounding, so it equals a correctly rounded
uint64 -> float64 cast.  Multiplying by ``0.2 * 2^-64`` then rounds
exactly as ``* 2^-64`` followed by ``* 0.2`` does, since scaling by a
power of two commutes with rounding, and the final ``- 0.1`` is the
same subtraction.  Weights are drawn in node construction order;
within a node, tensor after tensor of ``LayerSpec.weight_shapes``, each
in C (row-major) order.  Frozen batch-norm executes as identity and
draws nothing.

Construction order is topological by construction (edges always point
backward), so nodes execute in that same order and each node's weights
are freed right after use.  An fc weight is never whole: it is drawn
and multiplied one row block at a time (whole multiples of
``FC_ROW_ALIGN`` rows, about ``FC_BLOCK_VALUES`` values).  Conv and head
weights are drawn whole; the largest in the shipped graphs is the
ResNet-101 proposal conv, 4.72M values (36 MiB).  The generator holds
``BLOCK`` states.  Peak memory is thus the live activations plus one
such tensor: it is set by the input, not by the parameter count.
"""
from __future__ import annotations

import math

import numpy as np

from .graph import CONCAT_AXIS, ArchGraph, LayerSpec, StructuralError, propagate_shapes

LCG_A = 6364136223846793005
LCG_C = 1442695040888963407
_M64 = 1 << 64
# generator states filled and converted per step; a step touches 24 bytes
# a state (states, high halves, output), 1.5 MiB, inside a 2 MiB L2 cache
BLOCK = 1 << 16
# an fc weight is drawn about this many values at a time, in whole
# multiples of FC_ROW_ALIGN rows
FC_BLOCK_VALUES = 1 << 20
FC_ROW_ALIGN = 64


def _affine_power(n: int) -> tuple[int, int]:
    """Coefficients (a, c) such that advancing n steps is x -> a*x + c."""
    a, c = LCG_A, LCG_C
    ra, rc = 1, 0
    while n:
        if n & 1:
            ra = (a * ra) % _M64
            rc = (a * rc + c) % _M64
        c = (a * c + c) % _M64
        a = (a * a) % _M64
        n >>= 1
    return ra, rc


# _JUMPS[k] advances 2^k steps (the doubling fill); the stride advances BLOCK
_JUMPS = [tuple(np.uint64(v) for v in _affine_power(1 << k))
          for k in range(BLOCK.bit_length() - 1)]
_BLOCK_A, _BLOCK_C = (np.uint64(v) for v in _affine_power(BLOCK))

_SHIFT_32 = np.uint64(32)
_LOW_32 = np.uint64(0xFFFFFFFF)
_EXP_84 = np.uint64(0x4530000000000000)  # float64 bits of 2^84
_EXP_52 = np.uint64(0x4330000000000000)  # float64 bits of 2^52
_HI_OFFSET = 2.0**84 + 2.0**52
_SCALE = 0.2 * 2.0**-64


def _states_to_weights(states: np.ndarray, out: np.ndarray, hi: np.ndarray) -> None:
    """Write ``0.2 * (s / 2^64) - 0.1`` of each uint64 state into ``out``.

    ``hi`` is uint64 scratch of the same size; ``out`` holds the low
    halves until the add.  Every pass stays in one dtype; the module
    docstring gives the rule and why it is exact.
    """
    np.right_shift(states, _SHIFT_32, out=hi)
    np.bitwise_or(hi, _EXP_84, out=hi)
    hi = hi.view(np.float64)
    np.subtract(hi, _HI_OFFSET, out=hi)
    lo = out.view(np.uint64)
    np.bitwise_and(states, _LOW_32, out=lo)
    np.bitwise_or(lo, _EXP_52, out=lo)
    np.add(hi, out, out=out)
    np.multiply(out, _SCALE, out=out)
    np.subtract(out, 0.1, out=out)


class Lcg:
    """Sequential generator that fills and converts ``BLOCK`` states at a time."""

    def __init__(self, seed: int):
        self.state = seed % _M64

    def draws(self, n: int) -> np.ndarray:
        """The next n values in [-0.1, 0.1] as float64."""
        out = np.empty(n)
        if n == 0:
            return out
        size = min(n, BLOCK)
        states = np.empty(size, dtype=np.uint64)
        states[0] = (LCG_A * self.state + LCG_C) % _M64
        filled = 1
        for a, c in _JUMPS[: (size - 1).bit_length()]:
            block = states[filled : 2 * filled]
            np.multiply(states[: block.size], a, out=block)
            np.add(block, c, out=block)
            filled *= 2
        hi = np.empty_like(states)
        for start in range(0, n, BLOCK):
            if start:
                np.multiply(states, _BLOCK_A, out=states)
                np.add(states, _BLOCK_C, out=states)
            m = min(BLOCK, n - start)
            _states_to_weights(states[:m], out[start : start + m], hi[:m])
        self.state = int(states[m - 1])
        return out


def _conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
            stride: int, pad: int) -> np.ndarray:
    squeeze = x.ndim == 3
    if squeeze:
        x = x[None]
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    k = w.shape[-1]
    view = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    view = view[:, :, ::stride, ::stride]
    n, _, oh, ow = view.shape[:4]
    # im2col: one matmul per batch keeps the contraction in BLAS
    cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh * ow, -1)
    out = (cols @ w.reshape(w.shape[0], -1).T).transpose(0, 2, 1).reshape(
        n, w.shape[0], oh, ow)
    if b is not None:
        out = out + b[None, :, None, None]
    return out[0] if squeeze else out


def _fc(x: np.ndarray, n_out: int, lcg: Lcg) -> np.ndarray:
    """``x @ w.T + b`` with ``w`` drawn and consumed one row block at a time.

    Rows come off the stream in C order, then the bias, as
    ``LayerSpec.weight_shapes`` lists them.  OpenBLAS picks its kernel by
    the block's row count: blocks of a multiple of 64 rows reproduce the
    whole-matrix product bit for bit, other counts (1, 7, 33, ...) may
    differ in the last bits.
    """
    n_in = x.shape[-1]
    rows = FC_ROW_ALIGN * max(1, FC_BLOCK_VALUES // (FC_ROW_ALIGN * n_in))
    out = np.empty(x.shape[:-1] + (n_out,))
    for r in range(0, n_out, rows):
        m = min(rows, n_out - r)
        out[..., r : r + m] = x @ lcg.draws(m * n_in).reshape(m, n_in).T
    out += lcg.draws(n_out)
    return out


def _maxpool(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    squeeze = x.ndim == 3
    if squeeze:
        x = x[None]
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                   constant_values=-np.inf)
    view = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    view = view[:, :, ::stride, ::stride]
    out = view.max(axis=(-2, -1))
    return out[0] if squeeze else out


def _bilinear_resize(x: np.ndarray, oh: int, ow: int) -> np.ndarray:
    # half-pixel sampling: output center i maps to (i + 0.5) * in/out - 0.5
    squeeze = x.ndim == 3
    if squeeze:
        x = x[None]
    ih, iw = x.shape[-2:]
    ys = np.clip((np.arange(oh) + 0.5) * (ih / oh) - 0.5, 0.0, ih - 1.0)
    xs = np.clip((np.arange(ow) + 0.5) * (iw / ow) - 0.5, 0.0, iw - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, ih - 1)
    x1 = np.minimum(x0 + 1, iw - 1)
    wy = (ys - y0)[None, None, :, None]
    wx = (xs - x0)[None, None, None, :]
    top = x[:, :, y0][:, :, :, x0] * (1 - wx) + x[:, :, y0][:, :, :, x1] * wx
    bot = x[:, :, y1][:, :, :, x0] * (1 - wx) + x[:, :, y1][:, :, :, x1] * wx
    out = top * (1 - wy) + bot * wy
    return out[0] if squeeze else out


def _bilinear_at(feat: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample (C,H,W) at float coords; arrays ys/xs share a shape."""
    h, w = feat.shape[-2:]
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = ys - y0
    wx = xs - x0
    v00 = feat[:, y0, x0]
    v01 = feat[:, y0, x1]
    v10 = feat[:, y1, x0]
    v11 = feat[:, y1, x1]
    return (v00 * (1 - wy) * (1 - wx) + v01 * (1 - wy) * wx
            + v10 * wy * (1 - wx) + v11 * wy * wx)


def _roi_align(feat: np.ndarray, rois: np.ndarray, pool: int, scale: float) -> np.ndarray:
    # one bilinear sample per bin, taken at the bin center
    n = rois.shape[0]
    c = feat.shape[0]
    out = np.empty((n, c, pool, pool))
    grid = (np.arange(pool) + 0.5) / pool
    for i in range(n):
        x1, y1, x2, y2 = rois[i] * scale
        ys = y1 + grid * (y2 - y1)
        xs = x1 + grid * (x2 - x1)
        yy = np.repeat(ys, pool)
        xx = np.tile(xs, pool)
        out[i] = _bilinear_at(feat, yy, xx).reshape(c, pool, pool)
    return out


def _run_node(spec: LayerSpec, params: dict, xs: list[np.ndarray],
              num_rois: int) -> dict[str, np.ndarray]:
    kind = spec.kind
    if kind == "conv2d":
        return {"out": _conv2d(xs[0], params["w"], params.get("b"), spec.stride, spec.pad)}
    if kind == "relu":
        return {"out": np.maximum(xs[0], 0.0)}
    if kind == "maxpool":
        return {"out": _maxpool(xs[0], spec.kernel, spec.stride, spec.pad)}
    if kind == "bilinear_resize":
        if spec.out_size is not None:
            oh, ow = spec.out_size
        else:
            oh, ow = xs[1].shape[-2:]
        return {"out": _bilinear_resize(xs[0], oh, ow)}
    if kind == "channel_concat":
        return {"out": np.concatenate(xs, axis=CONCAT_AXIS[xs[0].ndim])}
    if kind == "batch_repeat_concat":
        return {"out": np.repeat(xs[0][None], num_rois, axis=0)}
    if kind == "flatten":
        x = xs[0]
        if x.ndim == 3:
            return {"out": x.reshape(-1)}
        return {"out": x.reshape(x.shape[0], -1)}
    if kind == "roi_align":
        return {"out": _roi_align(xs[0], xs[1], spec.pool_size, spec.spatial_scale)}
    if kind == "rpn_head":
        hidden = np.maximum(_conv2d(xs[0], params["conv_w"], params["conv_b"], 1, 1), 0.0)
        obj = _conv2d(hidden, params["obj_w"], params["obj_b"], 1, 0)
        deltas = _conv2d(hidden, params["del_w"], params["del_b"], 1, 0)
        return {"objectness": obj, "deltas": deltas}
    if kind == "det_head":
        x = xs[0]
        return {
            "scores": x @ params["score_w"].T + params["score_b"],
            "deltas": x @ params["del_w"].T + params["del_b"],
        }
    raise StructuralError(f"cannot execute kind {kind!r}")


def execute_forward(graph: ArchGraph, inputs: dict[str, np.ndarray],
                    seed: int = 0) -> dict[str, np.ndarray]:
    """Run the graph on concrete tensors with seeded weights.

    ``inputs`` must supply every graph input by name: image planes as
    float ``(C, H, W)``, RoIs as ``(N, 4)``.  Returns the unconsumed
    output ports keyed ``"node:port"``.  Every produced tensor is checked
    against the propagated shape table.
    """
    missing = set(graph.inputs) - set(inputs)
    extra = set(inputs) - set(graph.inputs)
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing inputs: {sorted(missing)}")
        if extra:
            parts.append(f"unexpected inputs: {sorted(extra)}")
        raise StructuralError("; ".join(parts))

    values = {f"{name}:out": np.asarray(inputs[name], dtype=np.float64)
              for name in graph.inputs}
    num_rois = 1
    primary_shape = None
    for name, ispec in graph.inputs.items():
        arr = values[f"{name}:out"]
        if ispec.rois:
            num_rois = arr.shape[0]
        elif primary_shape is None and ispec.shape is None:
            if arr.ndim != 3:
                raise StructuralError(f"input {name!r} must be (C, H, W), got {arr.shape}")
            primary_shape = arr.shape
    if primary_shape is None:
        raise StructuralError("graph has no image input")
    shapes = propagate_shapes(graph, primary_shape, num_rois)

    pending: dict[str, int] = {}
    for name in graph.inputs:
        key = f"{name}:out"
        if values[key].shape != shapes[key]:
            raise StructuralError(
                f"input {name!r} has shape {values[key].shape}, expected {shapes[key]}")
        pending[key] = len(graph.consumers(name, "out"))

    leaves = {f"{n}:{p}" for n, p in graph.leaf_ports()}
    lcg = Lcg(seed)
    for name, spec in graph.nodes.items():
        edges = graph.in_edges(name)
        xs = [values[f"{e.src}:{e.src_port}"] for e in edges]
        if spec.kind == "fc":
            outs = {"out": _fc(xs[0], spec.out_features, lcg)}
        else:
            in_shapes = [shapes[f"{e.src}:{e.src_port}"] for e in edges]
            params = {key: lcg.draws(math.prod(shape)).reshape(shape)
                      for key, shape in spec.weight_shapes(in_shapes)}
            outs = _run_node(spec, params, xs, num_rois)
            del params
        for port, arr in outs.items():
            key = f"{name}:{port}"
            if arr.shape != shapes[key]:
                raise StructuralError(
                    f"executor produced {arr.shape} at {key}, propagation said {shapes[key]}"
                )
            values[key] = arr
            pending[key] = len(graph.consumers(name, port))
        for e in edges:
            key = f"{e.src}:{e.src_port}"
            pending[key] -= 1
            if pending[key] == 0 and key not in leaves:
                del values[key]
    return {key: values[key] for key in sorted(leaves)}
