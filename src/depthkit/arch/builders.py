"""Construction of the two-stage detector variants.

The variants form a grid: a depth source joins the RGB detector at one
fusion point.  ``_WIRING`` names each variant's cell.

Depth sources:

* ``raw``   the raw depth plane, with no backbone of its own.
* ``proc``  a full second backbone on an encoded depth image.
* ``hdha``  three single-channel backbones, one per geometric channel.
* ``prior`` a second backbone that was a complete detector, so it also
  carries its own region-proposal head.

Fusion points:

* ``EC``  early: concatenated on the feature map, before proposals.  The
  raw plane is resized to the map and projected by a 1x1 conv.
* ``MC``  mid: concatenated on the pooled region features.  The raw
  plane is resized to the pool size, projected, and repeated per region.
* ``LC``  late: concatenated at the final feature vector.  The raw plane
  is resized to 64x64, flattened, and repeated per region.

``baseline`` is the RGB detector alone.  Residual shortcuts carry no
parameters, so the residual backbone is laid out as its conv chain;
projection shortcuts appear as parallel conv branches whose outputs stay
unconsumed.  Batch-norm rides on the conv nodes it follows and is always
frozen.
"""
from __future__ import annotations

from .graph import ArchGraph, LayerSpec

# variant -> (depth source, fusion point), in presentation order
_WIRING = {
    "baseline": (None, None),
    "raw-EC": ("raw", "EC"),
    "raw-MC": ("raw", "MC"),
    "raw-LC": ("raw", "LC"),
    "proc-EC": ("proc", "EC"),
    "proc-MC": ("proc", "MC"),
    "proc-LC": ("proc", "LC"),
    "hdha-split": ("hdha", "EC"),
    "prior-late": ("prior", "LC"),
}

VARIANTS = tuple(_WIRING)

BACKBONES = ("vgg16", "resnet101")

# Feature-map channels at the region stage.
_FEAT_CHANNELS = {"vgg16": 512, "resnet101": 1024}

_RPN_HIDDEN = 512
_POOL = 7

# raw-LC flattens the depth plane to this square before joining the
# feature vector (64 * 64 = 4096 values).
_LC_DEPTH_SIDE = 64


def _conv(out_ch: int, k: int, stride: int = 1, pad: int = 0, bias: bool = True,
          bn: bool = False, trainable: bool = True) -> LayerSpec:
    return LayerSpec(kind="conv2d", out_channels=out_ch, kernel=k, stride=stride,
                     pad=pad, bias=bias, batch_norm=bn, trainable=trainable)


def _build_vgg16(g: ArchGraph, prefix: str, source: str) -> str:
    """The 13-conv feature extractor; the last pool stage is omitted so
    the feature stride stays 16.  Stages 1 and 2 are frozen."""
    cfg = [(1, 64, 2), (2, 128, 2), (3, 256, 3), (4, 512, 3), (5, 512, 3)]
    prev = source
    for stage, width, reps in cfg:
        trainable = stage >= 3
        for i in range(1, reps + 1):
            name = f"{prefix}/conv{stage}_{i}"
            g.add(name, _conv(width, 3, pad=1, trainable=trainable), [prev])
            prev = g.add(f"{prefix}/relu{stage}_{i}", LayerSpec(kind="relu"), [name])
        if stage < 5:
            prev = g.add(f"{prefix}/pool{stage}", LayerSpec(kind="maxpool", kernel=2, stride=2),
                         [prev])
    return prev


def _bottleneck(g: ArchGraph, name: str, source: str, planes: int, stride: int,
                project: bool, trainable: bool) -> str:
    """One residual bottleneck as a conv chain.

    The projection shortcut, when present, is a parallel 1x1 conv branch
    left unconsumed: the shortcut add itself has no parameters and the
    chain carries the dataflow.
    """
    out_ch = planes * 4
    a = g.add(f"{name}.a", _conv(planes, 1, bias=False, bn=True, trainable=trainable), [source])
    ra = g.add(f"{name}.a_relu", LayerSpec(kind="relu"), [a])
    b = g.add(f"{name}.b", _conv(planes, 3, stride=stride, pad=1, bias=False, bn=True,
                                 trainable=trainable), [ra])
    rb = g.add(f"{name}.b_relu", LayerSpec(kind="relu"), [b])
    c = g.add(f"{name}.c", _conv(out_ch, 1, bias=False, bn=True, trainable=trainable), [rb])
    if project:
        g.add(f"{name}.proj", _conv(out_ch, 1, stride=stride, bias=False, bn=True,
                                    trainable=trainable), [source])
    return g.add(f"{name}.relu", LayerSpec(kind="relu"), [c])


def _res_layer(g: ArchGraph, prefix: str, source: str, planes: int, blocks: int,
               stride: int, trainable: bool) -> str:
    prev = _bottleneck(g, f"{prefix}.b1", source, planes, stride, project=True,
                       trainable=trainable)
    for i in range(2, blocks + 1):
        prev = _bottleneck(g, f"{prefix}.b{i}", prev, planes, 1, project=False,
                           trainable=trainable)
    return prev


def _build_resnet101(g: ArchGraph, prefix: str, source: str) -> str:
    """Stem through the third residual stage (feature stride 16).

    The stem and first stage are frozen; batch-norm is frozen throughout.
    """
    g.add(f"{prefix}/conv1", _conv(64, 7, stride=2, pad=3, bias=False, bn=True,
                                   trainable=False), [source])
    r = g.add(f"{prefix}/conv1_relu", LayerSpec(kind="relu"), [f"{prefix}/conv1"])
    p = g.add(f"{prefix}/pool1", LayerSpec(kind="maxpool", kernel=3, stride=2, pad=1), [r])
    l1 = _res_layer(g, f"{prefix}/l1", p, 64, 3, 1, trainable=False)
    l2 = _res_layer(g, f"{prefix}/l2", l1, 128, 4, 2, trainable=True)
    return _res_layer(g, f"{prefix}/l3", l2, 256, 23, 2, trainable=True)


def _build_backbone(g: ArchGraph, backbone: str, prefix: str, source: str) -> str:
    if backbone == "vgg16":
        return _build_vgg16(g, prefix, source)
    return _build_resnet101(g, prefix, source)


def _build_head_stack(g: ArchGraph, backbone: str, prefix: str, source: str) -> str:
    """Per-region feature stack after pooling: fc6/fc7 for the plain
    backbone, the fourth residual stage plus pooling for the residual one."""
    if backbone == "vgg16":
        f = g.add(f"{prefix}/flatten", LayerSpec(kind="flatten"), [source])
        fc6 = g.add(f"{prefix}/fc6", LayerSpec(kind="fc", out_features=4096), [f])
        r6 = g.add(f"{prefix}/fc6_relu", LayerSpec(kind="relu"), [fc6])
        fc7 = g.add(f"{prefix}/fc7", LayerSpec(kind="fc", out_features=4096), [r6])
        return g.add(f"{prefix}/fc7_relu", LayerSpec(kind="relu"), [fc7])
    l4 = _res_layer(g, f"{prefix}/l4", source, 512, 3, 2, trainable=True)
    pool = g.add(f"{prefix}/pool", LayerSpec(kind="maxpool", kernel=4, stride=4), [l4])
    return g.add(f"{prefix}/flatten", LayerSpec(kind="flatten"), [pool])


def _fuse(g: ArchGraph, point: str, streams: list[str], raw: bool, feat_ch: int) -> str:
    """Concatenate ``streams`` at ``point``; with ``raw``, the raw depth
    plane is first shaped to match and joins as the last stream.  The
    early and mid concats are reduced back to ``feat_ch`` channels."""
    if raw and point == "EC":
        rs = g.add("fuse/resize", LayerSpec(kind="bilinear_resize"), ["depth", streams[0]])
        streams = streams + [g.add("fuse/depth_proj", _conv(feat_ch, 1), [rs])]
    elif raw and point == "MC":
        rs = g.add("fuse/resize", LayerSpec(kind="bilinear_resize", out_size=(_POOL, _POOL)),
                   ["depth"])
        proj = g.add("fuse/depth_proj", _conv(feat_ch, 1), [rs])
        streams = streams + [g.add("fuse/repeat", LayerSpec(kind="batch_repeat_concat"), [proj])]
    elif raw:
        rs = g.add("fuse/resize",
                   LayerSpec(kind="bilinear_resize", out_size=(_LC_DEPTH_SIDE, _LC_DEPTH_SIDE)),
                   ["depth"])
        flat = g.add("fuse/flatten", LayerSpec(kind="flatten"), [rs])
        streams = streams + [g.add("fuse/repeat", LayerSpec(kind="batch_repeat_concat"), [flat])]
    if point == "LC":
        return g.add("head/concat", LayerSpec(kind="channel_concat"), streams)
    cat = g.add("fuse/concat", LayerSpec(kind="channel_concat"), streams)
    return g.add("fuse/reduce", _conv(feat_ch, 1), [cat])


def build_architecture(
    variant: str,
    backbone: str,
    num_classes: int = 21,
    depth_channels: int | None = None,
) -> ArchGraph:
    """Assemble one detector variant as an :class:`ArchGraph`.

    ``depth_channels`` sizes the single depth input of the raw (default
    1, the depth plane itself) and processed variants (default 3, an
    encoded depth image).  The baseline has no depth input and hdha-split
    fixes its three at one channel each, so both refuse it.
    """
    if variant not in _WIRING:
        raise ValueError(f"unknown variant {variant!r}, expected one of {', '.join(VARIANTS)}")
    if backbone not in BACKBONES:
        raise ValueError(f"unknown backbone {backbone!r}, expected one of {', '.join(BACKBONES)}")
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2 (background plus objects), got {num_classes}")
    source, point = _WIRING[variant]
    if depth_channels is not None and source in (None, "hdha"):
        fixed = "no depth input" if source is None else "three single-channel depth inputs"
        raise ValueError(f"depth_channels does not apply to {variant}, which has {fixed}")
    if depth_channels is None:
        depth_channels = 3 if source in ("proc", "prior") else 1
    if depth_channels < 1:
        raise ValueError(f"depth_channels must be >= 1, got {depth_channels}")

    # Every variant runs the same stages in the same order, which fixes
    # the node order of the exports: inputs, backbones, EC fusion,
    # proposals, RoI pooling, MC fusion, head stacks, LC fusion, det.
    g = ArchGraph(variant=variant, backbone=backbone)
    feat_ch = _FEAT_CHANNELS[backbone]
    raw = source == "raw"
    # depth input -> the prefix of the backbone that reads it
    if source == "hdha":
        depth_inputs = {f"depth_{c}": f"{c}_bb" for c in ("hd", "h", "a")}
    else:
        depth_inputs = {"depth": "depth_bb"} if source else {}

    g.add_input("rgb", channels=3)
    for name in depth_inputs:
        g.add_input(name, channels=depth_channels)
    rois = g.add_input("rois", rois=True)

    # one feature map per stream, RGB first; a depth backbone's stream
    # stays separate until its fusion point
    feats = [_build_backbone(g, backbone, "rgb_bb", "rgb")]
    if not raw:
        feats += [_build_backbone(g, backbone, prefix, name)
                  for name, prefix in depth_inputs.items()]
    if point == "EC":
        feats = [_fuse(g, point, feats, raw, feat_ch)]

    g.add("rpn", LayerSpec(kind="rpn_head", hidden=_RPN_HIDDEN, num_anchors=9), [feats[0]])
    if source == "prior":
        # each stream was a complete detector, so each carries its own
        # region-proposal head
        g.add("rpn_depth", LayerSpec(kind="rpn_head", hidden=_RPN_HIDDEN, num_anchors=9),
              [feats[1]])
    pooled = [g.add(name, LayerSpec(kind="roi_align", pool_size=_POOL, spatial_scale=1.0 / 16.0),
                    [x, rois])
              for name, x in zip(("roi_align", "roi_align_depth"), feats)]
    if point == "MC":
        pooled = [_fuse(g, point, pooled, raw, feat_ch)]

    heads = ("head",) if len(pooled) == 1 else ("head_rgb", "head_depth")
    vecs = [_build_head_stack(g, backbone, prefix, x) for prefix, x in zip(heads, pooled)]
    if point == "LC":
        vecs = [_fuse(g, point, vecs, raw, feat_ch)]

    g.add("det", LayerSpec(kind="det_head", num_classes=num_classes), vecs)
    return g
