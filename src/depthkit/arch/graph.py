"""Dataflow graphs describing two-stage detector architectures.

A graph is a DAG of typed layer nodes, stored as each node's producer
names by input slot.  An edge always reads its producer's ``out`` port;
the proposal and detection heads, the only nodes with named ports, are
read by nothing and so end a path.  Nodes are added in construction
order and may only name producers that already exist, so construction
order is always a valid execution order.  Shape propagation walks the
graph symbolically and returns a table of every output port's shape,
leaving the graph as it was; the parameter counter, the exports and the
numeric executor all take that table, and the counter and the executor
read a layer's weight tensors from ``LayerSpec.weight_shapes``.

Tensor shape conventions: image tensors are ``(C, H, W)`` before the
region stage and ``(N, C, H, W)`` after it, feature vectors are
``(F,)`` or ``(N, F)``, and region boxes are ``(N, 4)`` as
``x1, y1, x2, y2`` in input-image pixels.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

Shape = tuple[int, ...]


class GraphError(Exception):
    """Base for graph construction and propagation failures."""


class StructuralError(GraphError):
    """Wiring or shape inconsistency, reported against a node or edge."""


KINDS = frozenset(
    {
        "conv2d",
        "relu",
        "maxpool",
        "fc",
        "bilinear_resize",
        "channel_concat",
        "batch_repeat_concat",
        "flatten",
        "roi_align",
        "rpn_head",
        "det_head",
    }
)

# the channel axis of a concat by input rank: (N, F), (C, H, W), (N, C, H, W)
CONCAT_AXIS = {2: 1, 3: 0, 4: 1}


@dataclass
class LayerSpec:
    """One layer.  Only the fields relevant to ``kind`` are read.

    ``trainable`` marks whether the layer's weights would update during
    training; frozen layers still hold (fixed) parameters.  A conv2d with
    ``batch_norm`` carries a frozen batch-norm after it, contributing
    two fixed parameters per output channel.
    """

    kind: str
    out_channels: int = 0
    kernel: int = 0
    stride: int = 1
    pad: int = 0
    bias: bool = True
    batch_norm: bool = False
    out_features: int = 0
    out_size: tuple[int, int] | None = None
    pool_size: int = 7
    spatial_scale: float = 1.0 / 16.0
    hidden: int = 512
    num_anchors: int = 9
    num_classes: int = 0
    trainable: bool = True

    def validate(self, name: str) -> None:
        if self.kind not in KINDS:
            raise StructuralError(f"node {name}: unknown kind {self.kind!r}")
        need_pos = {
            "conv2d": [("out_channels", self.out_channels), ("kernel", self.kernel)],
            "maxpool": [("kernel", self.kernel)],
            "fc": [("out_features", self.out_features)],
            "rpn_head": [("hidden", self.hidden), ("num_anchors", self.num_anchors)],
            "det_head": [("num_classes", self.num_classes)],
            "roi_align": [("pool_size", self.pool_size)],
        }
        for field_name, value in need_pos.get(self.kind, []):
            if value < 1:
                raise StructuralError(f"node {name}: {self.kind} needs {field_name} >= 1")
        if self.kind in ("conv2d", "maxpool") and self.stride < 1:
            raise StructuralError(f"node {name}: stride must be >= 1")
        if self.kind in ("conv2d", "maxpool") and self.pad < 0:
            raise StructuralError(f"node {name}: pad must be >= 0")
        if self.kind == "bilinear_resize" and self.out_size is not None:
            if self.out_size[0] < 1 or self.out_size[1] < 1:
                raise StructuralError(f"node {name}: resize target must be >= 1")

    def weight_shapes(self, in_shapes: list[Shape]) -> list[tuple[str, Shape]]:
        """The weight tensors this layer owns, as ``(name, shape)`` in draw order.

        A conv2d holds ``w`` as ``(c_out, c_in, k, k)`` and then, when
        biased, ``b`` as ``(c_out,)``; an fc holds ``w`` as
        ``(n_out, n_in)`` and ``b``.  The proposal head holds its 3x3
        conv, then the objectness and the delta 1x1 convs; the detection
        head holds the score map, then the delta map; each weights before
        bias.  Other kinds hold none.  Frozen layers own their tensors
        like any other.  Batch-norm is not listed and never drawn: it is
        always frozen, and ``count_parameters`` adds two fixed parameters
        per output channel (scale and shift; running statistics are
        buffers, not parameters).
        """
        kind = self.kind
        if kind == "conv2d":
            c_out, k = self.out_channels, self.kernel
            w = [("w", (c_out, in_shapes[0][-3], k, k))]
            return w + [("b", (c_out,))] if self.bias else w
        if kind == "fc":
            return [("w", (self.out_features, in_shapes[0][-1])), ("b", (self.out_features,))]
        if kind == "rpn_head":
            hid, na = self.hidden, self.num_anchors
            return [("conv_w", (hid, in_shapes[0][-3], 3, 3)), ("conv_b", (hid,)),
                    ("obj_w", (2 * na, hid, 1, 1)), ("obj_b", (2 * na,)),
                    ("del_w", (4 * na, hid, 1, 1)), ("del_b", (4 * na,))]
        if kind == "det_head":
            n_in, nc = in_shapes[0][-1], self.num_classes
            return [("score_w", (nc, n_in)), ("score_b", (nc,)),
                    ("del_w", (4 * nc, n_in)), ("del_b", (4 * nc,))]
        return []

    def output_ports(self) -> tuple[str, ...]:
        if self.kind == "rpn_head":
            return ("objectness", "deltas")
        if self.kind == "det_head":
            return ("scores", "deltas")
        return ("out",)

    def arity(self) -> tuple[int, int]:
        """(min, max) accepted input count."""
        if self.kind == "channel_concat":
            return (2, 64)
        if self.kind == "roi_align":
            return (2, 2)
        if self.kind == "bilinear_resize":
            return (1, 2) if self.out_size is None else (1, 1)
        return (1, 1)


@dataclass
class InputSpec:
    """Graph entry point: an image plane or RoI boxes."""

    channels: int = 0
    rois: bool = False


@dataclass
class ArchGraph:
    variant: str = "custom"
    backbone: str = ""
    nodes: dict[str, LayerSpec] = field(default_factory=dict)
    # each node's producers by input slot; every edge reads a producer's "out"
    sources: dict[str, list[str]] = field(default_factory=dict)
    inputs: dict[str, InputSpec] = field(default_factory=dict)

    def add_input(self, name: str, channels: int = 0, rois: bool = False) -> str:
        if name in self.inputs or name in self.nodes:
            raise StructuralError(f"duplicate name {name!r}")
        self.inputs[name] = InputSpec(channels=channels, rois=rois)
        return name

    def add(self, name: str, spec: LayerSpec, inputs: list[str]) -> str:
        """Add a node reading the ``out`` port of each named producer.

        Producers must already exist, which keeps construction order a
        valid execution order.  Heads have no ``out`` port, so nothing
        can read them and they always end a path.
        """
        if name in self.nodes or name in self.inputs:
            raise StructuralError(f"duplicate name {name!r}")
        spec.validate(name)
        lo, hi = spec.arity()
        if not lo <= len(inputs) <= hi:
            raise StructuralError(
                f"node {name}: {spec.kind} takes {lo}..{hi} inputs, got {len(inputs)}"
            )
        for src in inputs:
            if src in self.nodes:
                if "out" not in self.nodes[src].output_ports():
                    raise StructuralError(f"node {name}: {src!r} has no output port 'out'")
            elif src not in self.inputs:
                raise StructuralError(f"node {name}: unknown input {src!r}")
        self.nodes[name] = spec
        self.sources[name] = list(inputs)
        return name

    def edges(self) -> Iterator[tuple[str, str, int]]:
        """``(producer, consumer, slot)`` for every edge, in construction order."""
        for dst, srcs in self.sources.items():
            for slot, src in enumerate(srcs):
                yield src, dst, slot


def _conv_extent(n: int, kernel: int, stride: int, pad: int, where: str) -> int:
    out = (n + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise StructuralError(f"{where}: spatial extent collapses to {out} "
                              f"(in={n}, k={kernel}, s={stride}, p={pad})")
    return out


def _node_output_shapes(
    name: str, spec: LayerSpec, in_shapes: list[Shape], num_rois: int
) -> dict[str, Shape]:
    kind = spec.kind

    def spatial(shape: Shape) -> tuple[int, int]:
        return shape[-2], shape[-1]

    if kind in ("conv2d", "maxpool"):
        (s,) = in_shapes
        if len(s) not in (3, 4):
            raise StructuralError(f"node {name}: {kind} needs (C,H,W) or (N,C,H,W), got {s}")
        h = _conv_extent(s[-2], spec.kernel, spec.stride, spec.pad, f"node {name}")
        w = _conv_extent(s[-1], spec.kernel, spec.stride, spec.pad, f"node {name}")
        c = spec.out_channels if kind == "conv2d" else s[-3]
        return {"out": s[:-3] + (c, h, w)}
    if kind == "relu":
        return {"out": in_shapes[0]}
    if kind == "fc":
        (s,) = in_shapes
        if len(s) not in (1, 2):
            raise StructuralError(f"node {name}: fc needs (F,) or (N,F), got {s}")
        return {"out": s[:-1] + (spec.out_features,)}
    if kind == "bilinear_resize":
        s = in_shapes[0]
        if len(s) not in (3, 4):
            raise StructuralError(f"node {name}: resize needs (C,H,W) or (N,C,H,W), got {s}")
        if spec.out_size is not None:
            oh, ow = spec.out_size
        else:
            ref = in_shapes[1]
            if len(ref) < 2:
                raise StructuralError(f"node {name}: resize reference must be spatial, got {ref}")
            oh, ow = spatial(ref)
        return {"out": s[:-2] + (oh, ow)}
    if kind == "channel_concat":
        ranks = {len(s) for s in in_shapes}
        if len(ranks) != 1:
            raise StructuralError(f"node {name}: concat inputs have mixed ranks {in_shapes}")
        rank = ranks.pop()
        if rank not in CONCAT_AXIS:
            raise StructuralError(f"node {name}: concat needs rank 2..4, got rank {rank}")
        axis = CONCAT_AXIS[rank]
        base = in_shapes[0]
        for i, s in enumerate(in_shapes[1:], start=1):
            if s[:axis] + s[axis + 1 :] != base[:axis] + base[axis + 1 :]:
                raise StructuralError(
                    f"node {name}: concat input {i} shape {s} incompatible with {base}"
                )
        total = sum(s[axis] for s in in_shapes)
        return {"out": base[:axis] + (total,) + base[axis + 1 :]}
    if kind == "batch_repeat_concat":
        (s,) = in_shapes
        if len(s) not in (1, 3):
            raise StructuralError(f"node {name}: batch repeat needs (F,) or (C,H,W), got {s}")
        return {"out": (num_rois,) + s}
    if kind == "flatten":
        (s,) = in_shapes
        if len(s) == 3:
            return {"out": (s[0] * s[1] * s[2],)}
        if len(s) == 4:
            return {"out": (s[0], s[1] * s[2] * s[3])}
        raise StructuralError(f"node {name}: flatten needs rank 3 or 4, got {s}")
    if kind == "roi_align":
        feat, rois = in_shapes
        if len(feat) != 3:
            raise StructuralError(f"node {name}: roi_align features must be (C,H,W), got {feat}")
        if len(rois) != 2 or rois[1] != 4:
            raise StructuralError(f"node {name}: roi_align boxes must be (N,4), got {rois}")
        return {"out": (rois[0], feat[0], spec.pool_size, spec.pool_size)}
    if kind == "rpn_head":
        (s,) = in_shapes
        if len(s) != 3:
            raise StructuralError(f"node {name}: rpn_head needs (C,H,W), got {s}")
        return {
            "objectness": (2 * spec.num_anchors, s[1], s[2]),
            "deltas": (4 * spec.num_anchors, s[1], s[2]),
        }
    if kind == "det_head":
        (s,) = in_shapes
        if len(s) != 2:
            raise StructuralError(f"node {name}: det_head needs (N,F), got {s}")
        return {
            "scores": (s[0], spec.num_classes),
            "deltas": (s[0], 4 * spec.num_classes),
        }
    raise StructuralError(f"node {name}: unknown kind {kind!r}")


def propagate_shapes(graph: ArchGraph, input_shape: Shape, num_rois: int) -> dict[str, Shape]:
    """The tensor shape of every output port, keyed ``"node:port"``.

    ``input_shape`` is the ``(C, H, W)`` of the primary image input; every
    other image-plane input shares its spatial extent, and RoI inputs
    become ``(num_rois, 4)``.  The graph is left unchanged.
    """
    if len(input_shape) != 3 or any(d < 1 for d in input_shape):
        raise ValueError(f"input shape must be (C, H, W) with positive extents, got {input_shape}")
    if num_rois < 1:
        raise ValueError(f"num_rois must be >= 1, got {num_rois}")
    heads = sum(spec.kind == "det_head" for spec in graph.nodes.values())
    if heads != 1:
        raise StructuralError(f"graph must contain exactly one det_head, found {heads}")
    _, ih, iw = input_shape
    shapes: dict[str, Shape] = {}
    primary_seen = False
    for name, ispec in graph.inputs.items():
        if ispec.rois:
            shapes[f"{name}:out"] = (num_rois, 4)
            continue
        if not primary_seen and ispec.channels != input_shape[0]:
            raise StructuralError(
                f"input {name!r} declares {ispec.channels} channels, "
                f"input shape has {input_shape[0]}"
            )
        primary_seen = True
        shapes[f"{name}:out"] = (ispec.channels, ih, iw)
    for name, spec in graph.nodes.items():
        in_shapes = [shapes[f"{src}:out"] for src in graph.sources[name]]
        for port, shape in _node_output_shapes(name, spec, in_shapes, num_rois).items():
            shapes[f"{name}:{port}"] = shape
    return shapes
