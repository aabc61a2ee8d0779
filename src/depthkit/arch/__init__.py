"""Architecture graphs for the two-stage RGB-D detector variants."""
from __future__ import annotations

from .builders import BACKBONES, VARIANTS, build_architecture
from .execute import Lcg, execute_forward
from .export import format_shape, shape_csv, shape_rows, to_dot
from .graph import (
    ArchGraph,
    GraphError,
    InputSpec,
    LayerSpec,
    Shape,
    StructuralError,
    propagate_shapes,
)
from .params import ParamReport, ParamRow, count_parameters

__all__ = [
    "ArchGraph",
    "BACKBONES",
    "GraphError",
    "InputSpec",
    "LayerSpec",
    "Lcg",
    "ParamReport",
    "ParamRow",
    "Shape",
    "StructuralError",
    "VARIANTS",
    "build_architecture",
    "count_parameters",
    "execute_forward",
    "format_shape",
    "propagate_shapes",
    "shape_csv",
    "shape_rows",
    "to_dot",
]
