"""Deterministic numeric execution of an architecture graph.

The executor exists to exercise wiring end to end: every weight comes
from a seeded 64-bit linear congruential generator, so a forward pass
is a pure function of (graph, inputs, seed) and bitwise reproducible.

Generator: ``x' = (6364136223846793005 * x + 1442695040888963407) mod 2^64``,
seeded directly with ``seed``, which must lie in [0, 2^64 - 1].  Each
successive state maps to a weight in float64, uniform over the
half-open [-0.1, 0.1): or-ing its high 52 bits into the significand of
1.0 gives ``f`` in [1, 2), and the weight is ``(f - 1.5) * 0.2``, the
usual bits-to-[1, 2) conversion (Blackman and Vigna 2018,
arXiv:1805.01407).  ``f - 1.5`` is exact, so each weight is rounded
once; state 0 draws exactly -0.1.  A weight lies within 5.6e-17 of
``0.2 * (x / 2^64) - 0.1``, far below the 7 digits of each output sum
the CLI prints, so the recorded forward digests hold for both rules.
Weights are drawn in node construction order; within a node, tensor
after tensor of ``LayerSpec.weight_shapes``, each in C (row-major)
order.  Frozen batch-norm executes as identity and draws nothing.

Bilinear resize and RoI Align share one sampler: resize samples at the
half-pixel centres ``(i + 0.5) * in / out - 0.5``, RoI Align once at
each bin centre, and every coordinate is clamped to the edge of the map.

Construction order is topological by construction (edges always point
backward), so nodes execute in that same order and each activation is
freed once its last reader has run.  No weight is ever drawn whole:
every one (conv, proposal head, fc, detection head) goes through one
streamed product, drawn and multiplied one row block at a time (whole
multiples of ``WEIGHT_ROW_ALIGN`` rows, about ``WEIGHT_BLOCK_VALUES``
values); a conv weight is a run of output-channel rows over its
im2col columns.  No im2col matrix is built whole either: each row block
multiplies tile after tile of whole output rows, each tile about
``TILE_VALUES`` values and spanning batch items, as MEC lowers a
convolution without the whole lowered matrix (Cho and Brand 2017,
arXiv:1706.06873).  The generator holds ``BLOCK`` states.  Peak memory
is thus the live activations, plus one weight row block, plus one
im2col tile: it is set by the input, not by the parameter count.  A
64x64 ``raw-LC/vgg16`` forward peaks at about 14 MiB of numpy
allocations (25 MiB with whole im2col matrices), a 128x128 one at about
27 MiB (97 MiB).
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from .graph import CONCAT_AXIS, ArchGraph, LayerSpec, StructuralError, propagate_shapes

LCG_A = 6364136223846793005
LCG_C = 1442695040888963407
_M64 = 1 << 64
# generator states filled and converted per step; a step touches 16 bytes
# a state (states, output), 1 MiB, inside a 2 MiB L2 cache
BLOCK = 1 << 16
# a weight is drawn about this many values at a time, in whole
# multiples of WEIGHT_ROW_ALIGN rows
WEIGHT_BLOCK_VALUES = 1 << 20
WEIGHT_ROW_ALIGN = 64
# a conv's im2col matrix is built about this many values at a time, in
# whole output rows: 2 MiB of float64, one core's L2 cache
TILE_VALUES = 1 << 18


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

_SHIFT_12 = np.uint64(12)
_ONE = np.uint64(0x3FF0000000000000)  # float64 bits of 1.0


def _states_to_weights(states: np.ndarray, out: np.ndarray) -> None:
    """Write ``(f - 1.5) * 0.2`` of each uint64 state into ``out``, ``f`` the
    float64 in [1, 2) whose significand is the state's high 52 bits."""
    bits = out.view(np.uint64)
    np.right_shift(states, _SHIFT_12, out=bits)
    np.bitwise_or(bits, _ONE, out=bits)
    np.subtract(out, 1.5, out=out)
    np.multiply(out, 0.2, out=out)


class Lcg:
    """Sequential generator that fills and converts ``BLOCK`` states at a time."""

    def __init__(self, seed: int):
        if not 0 <= seed < _M64:
            raise ValueError(f"seed must be in [0, 2^64 - 1], got {seed}")
        self.state = seed

    def draws(self, n: int) -> np.ndarray:
        """The next n values in [-0.1, 0.1) as float64."""
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
        for start in range(0, n, BLOCK):
            if start:
                np.multiply(states, _BLOCK_A, out=states)
                np.add(states, _BLOCK_C, out=states)
            m = min(BLOCK, n - start)
            _states_to_weights(states[:m], out[start : start + m])
        self.state = int(states[m - 1])
        return out


class _Im2col:
    """The ``(N * OH * OW, C * k * k)`` im2col matrix of an ``(N, C, OH, OW, k, k)``
    window view, never built whole.

    Its output rows, counted across batch items, are split into as few
    tiles of at most ``TILE_VALUES`` values as possible, whose row counts
    differ by at most one.  No tile is a small remainder, so at the
    executor's layer sizes every tile's product takes the same OpenBLAS
    kernel as the whole matrix's: the small-matrix kernel, which sums in
    another order, takes only products of at most 1,200 outputs and 10^6
    multiply-adds (OpenBLAS 0.3.31 on AVX-512 cores).  Each tile is
    copied into one buffer; a matrix that fits one tile is copied once.
    """

    def __init__(self, view: np.ndarray):
        self.view = view.transpose(0, 2, 3, 1, 4, 5)
        n, oh, ow = self.view.shape[:3]
        self.shape = (n * oh * ow, self.view[0, 0, 0].size)
        count = -(-n * oh // max(1, TILE_VALUES // (ow * self.shape[1])))
        self.bounds = [i * n * oh // count for i in range(count + 1)]
        self._buf = np.empty((-(-n * oh // count),) + self.view.shape[2:])
        self._held = None  # first output row of the tile in the buffer

    def tiles(self, out: np.ndarray):
        """Yield each tile with the rows of ``out`` it multiplies into."""
        oh, ow = self.view.shape[1:3]
        spans = list(zip(self.bounds, self.bounds[1:]))
        if self._held == spans[-1][0]:
            spans.reverse()  # start from the tile the buffer holds
        for g, end in spans:
            if self._held != g:
                for b in range(g // oh, (end - 1) // oh + 1):
                    lo, hi = max(g, b * oh), min(end, (b + 1) * oh)
                    self._buf[lo - g : hi - g] = self.view[b, lo - b * oh : hi - b * oh]
                self._held = g
            yield self._buf[: end - g].reshape(-1, self.shape[1]), out[g * ow : end * ow]


def _streamed(x: np.ndarray | _Im2col, n_out: int, lcg: Lcg, bias: bool) -> np.ndarray:
    """``x @ w.T (+ b)`` with ``w`` ``(n_out, x.shape[-1])`` drawn one row block at a time.

    ``x`` is an array, one tile, or an ``_Im2col`` that yields its rows in
    tiles.  Each row block is drawn once and multiplied into every tile's
    rows of the output, then released before the next draw.  Rows come off
    the stream in C order, then any bias, as ``LayerSpec.weight_shapes``
    lists them.  OpenBLAS picks its kernel by the block's row count:
    blocks of a multiple of 64 rows reproduce the whole-matrix product bit
    for bit, other counts (1, 7, 33, ...) may differ in the last bits.
    ``out=`` spares a temporary per product.
    """
    tiles = x.tiles if isinstance(x, _Im2col) else lambda out: [(x, out)]
    n_in = x.shape[-1]
    rows = WEIGHT_ROW_ALIGN * max(1, WEIGHT_BLOCK_VALUES // (WEIGHT_ROW_ALIGN * n_in))
    out = np.empty(x.shape[:-1] + (n_out,))
    for r in range(0, n_out, rows):
        m = min(rows, n_out - r)
        w = lcg.draws(m * n_in).reshape(m, n_in).T
        for tile, tile_out in tiles(out):
            np.matmul(tile, w, out=tile_out[..., r : r + m])
        del w
    if bias:
        out += lcg.draws(n_out)
    return out


def _windows(x: np.ndarray, k: int, stride: int, pad: int, fill: float) -> np.ndarray:
    """The ``(N, C, OH, OW, k, k)`` window view of ``(N, C, H, W)`` ``x``,
    padded by ``pad`` cells of ``fill`` on each side and taken every ``stride``."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=fill)
    view = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    return view[:, :, ::stride, ::stride]


def _conv2d(x: np.ndarray, c_out: int, k: int, bias: bool, lcg: Lcg,
            stride: int, pad: int) -> np.ndarray:
    """A ``(c_out, c_in, k, k)`` conv: in C order its weight is ``c_out``
    rows in the im2col column order ``(c_in, k, k)``, streamed like fc rows
    over the im2col tiles, each tile one product for every batch item in it."""
    view = _windows(x, k, stride, pad, 0.0)
    n, _, oh, ow = view.shape[:4]
    if n == 1 and k == stride == 1 and not pad:
        # one image through a 1x1, stride-1 conv: its channel planes,
        # transposed, are the whole im2col matrix, with nothing to copy
        cols = x[0].reshape(x.shape[1], -1).T
    else:
        cols = _Im2col(view)
    out = _streamed(cols, c_out, lcg, bias)
    return out.reshape(n, oh * ow, c_out).transpose(0, 2, 1).reshape(n, c_out, oh, ow)


def _maxpool(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    return _windows(x, k, stride, pad, -np.inf).max(axis=(-2, -1))


def _taps(coords: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower neighbour, upper neighbour and upper weight of each coordinate
    on an axis of ``n`` samples, the coordinate clamped to ``[0, n - 1]``."""
    coords = np.clip(coords, 0.0, n - 1.0)
    lo = np.floor(coords).astype(int)
    return lo, np.minimum(lo + 1, n - 1), coords - lo


def _bilinear(x: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample the last two axes of ``x`` at rows ``ys`` by columns ``xs``:
    within the two neighbour rows first, then between them."""
    y0, y1, wy = _taps(ys, x.shape[-2])
    x0, x1, wx = _taps(xs, x.shape[-1])
    top, bot = (row[..., x0] * (1 - wx) + row[..., x1] * wx
                for row in (x[..., y0, :], x[..., y1, :]))
    return top * (1 - wy[:, None]) + bot * wy[:, None]


def _bilinear_resize(x: np.ndarray, oh: int, ow: int) -> np.ndarray:
    ih, iw = x.shape[-2:]
    return _bilinear(x, (np.arange(oh) + 0.5) * (ih / oh) - 0.5,
                     (np.arange(ow) + 0.5) * (iw / ow) - 0.5)


def _roi_align(feat: np.ndarray, rois: np.ndarray, pool: int, scale: float) -> np.ndarray:
    out = np.empty((rois.shape[0], feat.shape[0], pool, pool))
    grid = (np.arange(pool) + 0.5) / pool
    for i, (x1, y1, x2, y2) in enumerate(rois * scale):
        out[i] = _bilinear(feat, y1 + grid * (y2 - y1), x1 + grid * (x2 - x1))
    return out


def _products(weight_shapes: list[tuple[str, tuple[int, ...]]]) -> list[tuple[int, int, bool]]:
    """``(n_out, k, biased)`` per weight of a ``weight_shapes`` list, in draw order:
    ``k`` is its last axis (a conv's kernel side), and a 1-D entry is a bias."""
    dims = [shape for _, shape in weight_shapes] + [()]
    return [(s[0], s[-1], len(after) == 1) for s, after in zip(dims, dims[1:]) if len(s) > 1]


def _run_node(spec: LayerSpec, xs: list[np.ndarray], num_rois: int,
              products: list[tuple[int, int, bool]], lcg: Lcg) -> dict[str, np.ndarray]:
    kind = spec.kind
    if kind in ("conv2d", "maxpool", "bilinear_resize", "rpn_head") and xs[0].ndim == 3:
        # the spatial ops take (N, C, H, W): a (C, H, W) tensor runs as a batch of one
        outs = _run_node(spec, [xs[0][None], *xs[1:]], num_rois, products, lcg)
        return {port: out[0] for port, out in outs.items()}
    if kind == "conv2d":
        (product,) = products
        return {"out": _conv2d(xs[0], *product, lcg, spec.stride, spec.pad)}
    if kind in ("fc", "det_head"):
        # one output port per weight: fc's out; the head's scores, then deltas
        return dict(zip(spec.output_ports(),
                        (_streamed(xs[0], n_out, lcg, bias) for n_out, _, bias in products)))
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
        return {"out": xs[0].reshape(xs[0].shape[:-3] + (-1,))}
    if kind == "roi_align":
        return {"out": _roi_align(xs[0], xs[1], spec.pool_size, spec.spatial_scale)}
    if kind == "rpn_head":
        conv, obj, deltas = products
        hidden = np.maximum(_conv2d(xs[0], *conv, lcg, 1, 1), 0.0)
        return {"objectness": _conv2d(hidden, *obj, lcg, 1, 0),
                "deltas": _conv2d(hidden, *deltas, lcg, 1, 0)}
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
        elif primary_shape is None:
            if arr.ndim != 3:
                raise StructuralError(f"input {name!r} must be (C, H, W), got {arr.shape}")
            primary_shape = arr.shape
    if primary_shape is None:
        raise StructuralError("graph has no image input")
    shapes = propagate_shapes(graph, primary_shape, num_rois)

    for name in graph.inputs:
        key = f"{name}:out"
        if values[key].shape != shapes[key]:
            raise StructuralError(
                f"input {name!r} has shape {values[key].shape}, expected {shapes[key]}")

    # readers left per producer; a node nothing reads is a leaf and is returned
    readers = Counter(src for srcs in graph.sources.values() for src in srcs)
    leaves = sorted(f"{name}:{port}" for name, spec in graph.nodes.items()
                    if name not in readers for port in spec.output_ports())
    lcg = Lcg(seed)
    for name, spec in graph.nodes.items():
        srcs = graph.sources[name]
        xs = [values[f"{src}:out"] for src in srcs]
        products = _products(spec.weight_shapes([shapes[f"{src}:out"] for src in srcs]))
        outs = _run_node(spec, xs, num_rois, products, lcg)
        for port, arr in outs.items():
            key = f"{name}:{port}"
            if arr.shape != shapes[key]:
                raise StructuralError(
                    f"executor produced {arr.shape} at {key}, propagation said {shapes[key]}"
                )
            values[key] = arr
        for src in srcs:
            readers[src] -= 1
            if readers[src] == 0:
                del values[f"{src}:out"]
    return {key: values[key] for key in leaves}
