"""Parameter inventory of an architecture graph.

A node's parameters are the tensors ``LayerSpec.weight_shapes`` lists,
the same list the executor draws, plus its frozen batch-norm pairs; that
method's docstring gives the rules.  A frozen layer's weights count as
fixed rather than trainable.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .graph import ArchGraph, Shape


@dataclass(frozen=True)
class ParamRow:
    node: str
    kind: str
    trainable: int
    fixed: int

    @property
    def total(self) -> int:
        return self.trainable + self.fixed


@dataclass
class ParamReport:
    variant: str
    backbone: str
    rows: list[ParamRow]

    @property
    def trainable(self) -> int:
        return sum(r.trainable for r in self.rows)

    @property
    def fixed(self) -> int:
        return sum(r.fixed for r in self.rows)

    @property
    def total(self) -> int:
        return self.trainable + self.fixed

    def trainable_under(self, prefix: str) -> int:
        """Trainable parameters of all nodes whose name starts with prefix."""
        return sum(r.trainable for r in self.rows if r.node.startswith(prefix))

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node", "kind", "trainable", "fixed"])
            for row in self.rows:
                writer.writerow([row.node, row.kind, row.trainable, row.fixed])
            writer.writerow(["TOTAL", "", self.trainable, self.fixed])


def count_parameters(graph: ArchGraph, shapes: dict[str, Shape]) -> ParamReport:
    """Per-node parameter rows plus totals, given the graph's shape table
    from ``propagate_shapes``."""
    rows = []
    for name, spec in graph.nodes.items():
        in_shapes = [shapes[f"{src}:out"] for src in graph.sources[name]]
        weights = sum(math.prod(shape) for _, shape in spec.weight_shapes(in_shapes))
        bn = 2 * spec.out_channels if spec.kind == "conv2d" and spec.batch_norm else 0
        if weights == 0 and bn == 0:
            continue
        if spec.trainable:
            rows.append(ParamRow(node=name, kind=spec.kind, trainable=weights, fixed=bn))
        else:
            rows.append(ParamRow(node=name, kind=spec.kind, trainable=0, fixed=weights + bn))
    return ParamReport(variant=graph.variant, backbone=graph.backbone, rows=rows)
