"""Graph construction rules and shape propagation for all detector variants."""
import re

import pytest

from depthkit.arch import (
    BACKBONES,
    VARIANTS,
    ArchGraph,
    LayerSpec,
    StructuralError,
    build_architecture,
    propagate_shapes,
    shape_rows,
    to_dot,
)

FULL = ((3, 600, 800), 300)


# ------------------------------------------------------------ construction

def test_variant_and_backbone_catalogs():
    assert set(VARIANTS) == {
        "baseline", "raw-EC", "raw-MC", "raw-LC",
        "proc-EC", "proc-MC", "proc-LC", "hdha-split", "prior-late",
    }
    assert set(BACKBONES) == {"vgg16", "resnet101"}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("backbone", sorted(BACKBONES))
def test_all_variants_validate_and_propagate(variant, backbone):
    graph = build_architecture(variant, backbone)
    shapes = propagate_shapes(graph, *FULL)
    for name, spec in graph.nodes.items():
        for port in spec.output_ports():
            assert f"{name}:{port}" in shapes


def test_unknown_kind_rejected():
    graph = ArchGraph()
    graph.add_input("rgb", channels=3)
    with pytest.raises(StructuralError):
        graph.add("x", LayerSpec(kind="dropout"), inputs=["rgb"])


def test_edges_must_reference_existing_nodes():
    graph = ArchGraph()
    graph.add_input("rgb", channels=3)
    with pytest.raises(StructuralError):
        graph.add("r", LayerSpec(kind="relu"), inputs=["ghost"])


def test_heads_cannot_be_read():
    # an edge always reads its producer's out port; heads have none
    graph = ArchGraph()
    graph.add_input("rgb", channels=3)
    graph.add("rpn", LayerSpec(kind="rpn_head", hidden=4, num_anchors=1), inputs=["rgb"])
    with pytest.raises(StructuralError, match="no output port 'out'"):
        graph.add("r", LayerSpec(kind="relu"), inputs=["rpn"])
    with pytest.raises(StructuralError, match="unknown input"):
        graph.add("r", LayerSpec(kind="relu"), inputs=[("rpn", "objectness")])
    assert list(graph.nodes) == ["rpn"]


def test_construction_order_forbids_forward_references():
    # inputs may only name nodes added earlier, so cycles cannot form
    graph = ArchGraph()
    graph.add_input("rgb", channels=3)
    with pytest.raises(StructuralError):
        graph.add("r", LayerSpec(kind="relu"), inputs=["r"])


def test_duplicate_names_rejected():
    graph = ArchGraph()
    graph.add_input("rgb", channels=3)
    graph.add("r", LayerSpec(kind="relu"), inputs=["rgb"])
    with pytest.raises(StructuralError):
        graph.add("r", LayerSpec(kind="relu"), inputs=["rgb"])


def test_edges_always_point_backward():
    for variant in sorted(VARIANTS):
        graph = build_architecture(variant, "vgg16")
        order = {name: i for i, name in enumerate(graph.nodes)}
        for name in graph.inputs:
            order.setdefault(name, -1)
        for src, dst, slot in graph.edges():
            assert order[src] < order[dst], (src, dst, slot)


# ------------------------------------------------------------- propagation

def test_vgg16_feature_map_shape():
    graph = build_architecture("baseline", "vgg16")
    shapes = propagate_shapes(graph, *FULL)
    # four 2x2 pools: 600x800 -> 37x50
    assert shapes["rgb_bb/relu5_3:out"] == (512, 37, 50)


def test_resnet101_feature_map_shape():
    graph = build_architecture("baseline", "resnet101")
    shapes = propagate_shapes(graph, *FULL)
    assert shapes["rgb_bb/l3.b23.relu:out"] == (1024, 38, 50)


def test_head_input_is_rois_by_features():
    cases = {
        ("baseline", "vgg16"): (300, 4096),
        ("baseline", "resnet101"): (300, 2048),
        ("raw-LC", "vgg16"): (300, 8192),
        ("raw-LC", "resnet101"): (300, 6144),
        ("proc-LC", "vgg16"): (300, 8192),
        ("hdha-split", "vgg16"): (300, 4096),
    }
    for (variant, backbone), expected in cases.items():
        graph = build_architecture(variant, backbone)
        shapes = propagate_shapes(graph, *FULL)
        got = shapes[f"{graph.sources['det'][0]}:out"]
        assert got == expected, (variant, backbone, got)


def test_feature_concat_before_rpn():
    # EC runs two full backbones and fuses their feature maps
    graph = build_architecture("proc-EC", "vgg16")
    shapes = propagate_shapes(graph, *FULL)
    assert shapes["fuse/concat:out"] == (1024, 37, 50)
    assert shapes["fuse/reduce:out"] == (512, 37, 50)
    assert graph.sources["rpn"][0] == "fuse/reduce"


def test_roi_level_concat_keeps_backbone_width():
    # MC pools each stream separately and fuses per region
    graph = build_architecture("proc-MC", "resnet101")
    shapes = propagate_shapes(graph, *FULL)
    assert shapes["fuse/concat:out"] == (300, 2048, 7, 7)
    assert shapes["fuse/reduce:out"] == (300, 1024, 7, 7)


def test_late_concat_appends_depth_vector():
    graph = build_architecture("raw-LC", "vgg16")
    shapes = propagate_shapes(graph, *FULL)
    assert shapes["fuse/resize:out"] == (1, 64, 64)
    assert shapes["fuse/flatten:out"] == (4096,)
    assert shapes["fuse/repeat:out"] == (300, 4096)


def test_raw_input_is_single_channel():
    assert build_architecture("raw-EC", "vgg16").inputs["depth"].channels == 1
    assert build_architecture("proc-EC", "vgg16").inputs["depth"].channels == 3
    four = build_architecture("proc-EC", "vgg16", depth_channels=4)
    assert four.inputs["depth"].channels == 4


@pytest.mark.parametrize("variant", ["baseline", "hdha-split"])
def test_depth_channels_rejected_without_single_depth_input(variant):
    with pytest.raises(ValueError, match="depth_channels"):
        build_architecture(variant, "vgg16", depth_channels=1)


def test_hdha_split_has_three_depth_inputs():
    graph = build_architecture("hdha-split", "resnet101")
    for name in ("depth_hd", "depth_h", "depth_a"):
        assert graph.inputs[name].channels == 1


def test_prior_late_has_second_rpn():
    graph = build_architecture("prior-late", "vgg16")
    kinds = [s.kind for s in graph.nodes.values()]
    assert kinds.count("rpn_head") == 2
    assert kinds.count("roi_align") == 2


def test_rpn_outputs_anchor_channels():
    graph = build_architecture("baseline", "vgg16")
    shapes = propagate_shapes(graph, *FULL)
    assert shapes["rpn:objectness"] == (18, 37, 50)
    assert shapes["rpn:deltas"] == (36, 37, 50)


def test_det_head_outputs():
    graph = build_architecture("baseline", "resnet101", num_classes=21)
    shapes = propagate_shapes(graph, *FULL)
    assert shapes["det:scores"] == (300, 21)
    assert shapes["det:deltas"] == (300, 84)


def _tiny_detector(pad_b: int) -> ArchGraph:
    graph = ArchGraph()
    graph.add_input("a", channels=3)
    graph.add_input("b", channels=3)
    graph.add_input("rois", rois=True)
    graph.add("ca", LayerSpec(kind="conv2d", out_channels=4, kernel=3, pad=1), inputs=["a"])
    graph.add("cb", LayerSpec(kind="conv2d", out_channels=4, kernel=3, pad=pad_b), inputs=["b"])
    graph.add("cat", LayerSpec(kind="channel_concat"), inputs=["ca", "cb"])
    graph.add("rpn", LayerSpec(kind="rpn_head", hidden=16, num_anchors=9), inputs=["cat"])
    graph.add("roi", LayerSpec(kind="roi_align", pool_size=2, spatial_scale=1.0),
              inputs=["cat", "rois"])
    graph.add("flat", LayerSpec(kind="flatten"), inputs=["roi"])
    graph.add("det", LayerSpec(kind="det_head", num_classes=3), inputs=["flat"])
    return graph


def test_propagation_rejects_mismatched_concat():
    good = _tiny_detector(pad_b=1)
    shapes = propagate_shapes(good, (3, 32, 32), 4)
    assert shapes["cat:out"] == (8, 32, 32)
    bad = _tiny_detector(pad_b=0)
    with pytest.raises(StructuralError):
        propagate_shapes(bad, (3, 32, 32), 4)


def test_validation_requires_one_det_head():
    graph = ArchGraph()
    graph.add_input("a", channels=3)
    graph.add("c", LayerSpec(kind="conv2d", out_channels=4, kernel=3, pad=1), inputs=["a"])
    with pytest.raises(StructuralError):
        propagate_shapes(graph, (3, 8, 8), 2)


def test_collapsed_spatial_extent_is_an_error():
    graph = build_architecture("baseline", "vgg16")
    # 8x8 survives only three of the four 2x2 pools
    with pytest.raises(StructuralError):
        propagate_shapes(graph, (3, 8, 8), 4)


def test_shape_rows_include_landmarks():
    graph = build_architecture("proc-MC", "resnet101")
    shapes = propagate_shapes(graph, *FULL)
    rows = shape_rows(graph, shapes)
    by_name = dict(rows)
    assert by_name["head_input"] == (300, 2048)
    assert by_name["fused"] == (300, 2048, 7, 7)
    assert by_name["reduced"] == (300, 1024, 7, 7)


def test_dot_before_propagation_is_the_dot_without_edge_shapes():
    graph = build_architecture("hdha-split", "resnet101")
    bare = to_dot(graph)
    shapes = propagate_shapes(graph, *FULL)
    stripped, n = re.subn(r'(-> "[^"]+") \[label="[^"]*"\];', r"\1;", to_dot(graph, shapes))
    assert n == len(list(graph.edges()))
    assert bare == stripped
