"""Text exports of an architecture graph: Graphviz DOT and a shape table.

Both walk the graph in construction order, so exporting an unchanged
graph and shape table twice yields byte-identical text.
"""
from __future__ import annotations

import io

from ..evaluation import _csv_table
from .graph import ArchGraph, LayerSpec, Shape


def format_shape(shape: Shape) -> str:
    return "x".join(str(d) for d in shape)


def _node_label(name: str, spec: LayerSpec) -> str:
    kind = spec.kind
    detail = ""
    if kind == "conv2d":
        detail = f" {spec.kernel}x{spec.kernel}/{spec.stride} -> {spec.out_channels}"
        if spec.batch_norm:
            detail += " +bn"
        if not spec.trainable:
            detail += " (frozen)"
    elif kind == "maxpool":
        detail = f" {spec.kernel}x{spec.kernel}/{spec.stride}"
    elif kind == "fc":
        detail = f" -> {spec.out_features}"
        if not spec.trainable:
            detail += " (frozen)"
    elif kind == "bilinear_resize":
        detail = " -> match" if spec.out_size is None else f" -> {spec.out_size[0]}x{spec.out_size[1]}"
    elif kind == "roi_align":
        detail = f" {spec.pool_size}x{spec.pool_size}"
    elif kind == "rpn_head":
        detail = f" hidden={spec.hidden} anchors={spec.num_anchors}"
    elif kind == "det_head":
        detail = f" classes={spec.num_classes}"
    return f"{name}\\n{kind}{detail}"


def to_dot(graph: ArchGraph, shapes: dict[str, Shape] | None = None) -> str:
    """Graphviz source for the graph; edges carry shapes when given a table."""
    out = io.StringIO()
    out.write("digraph architecture {\n")
    out.write(f'  label="{graph.variant} / {graph.backbone}";\n')
    out.write("  rankdir=TB;\n")
    out.write('  node [shape=box, fontsize=10];\n')
    for name in graph.inputs:
        out.write(f'  "{name}" [shape=ellipse, label="{name}"];\n')
    for name, spec in graph.nodes.items():
        out.write(f'  "{name}" [label="{_node_label(name, spec)}"];\n')
    for src, dst, _ in graph.edges():
        suffix = ""
        if shapes is not None:
            suffix = f' [label="{format_shape(shapes[f"{src}:out"])}"]'
        out.write(f'  "{src}" -> "{dst}"{suffix};\n')
    out.write("}\n")
    return out.getvalue()


def shape_rows(graph: ArchGraph, shapes: dict[str, Shape]) -> list[tuple[str, Shape]]:
    """Named shapes: the graph inputs, landmark tensors, then every edge.

    Landmarks: ``head_input`` (what feeds the detection head), ``fused``
    and ``reduced`` (the fusion concat and its projection) when present.
    """
    rows: list[tuple[str, Shape]] = []
    for name in graph.inputs:
        rows.append((f"input_{name}", shapes[f"{name}:out"]))
    for name, spec in graph.nodes.items():
        if spec.kind == "det_head":
            rows.append(("head_input", shapes[f"{graph.sources[name][0]}:out"]))
    for landmark, node in (("fused", "fuse/concat"), ("reduced", "fuse/reduce")):
        if node in graph.nodes:
            rows.append((landmark, shapes[f"{node}:out"]))
    for src, dst, slot in graph.edges():
        rows.append((f"{src}:out->{dst}[{slot}]", shapes[f"{src}:out"]))
    return rows


def shape_csv(graph: ArchGraph, shapes: dict[str, Shape]) -> str:
    return _csv_table(["name", "shape"],
                      ([name, format_shape(shape)] for name, shape in shape_rows(graph, shapes)))
