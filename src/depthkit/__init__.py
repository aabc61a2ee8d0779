"""depthkit: depth-map encodings, RGB-D detector architecture graphs, and
detection evaluation tools."""
from __future__ import annotations

from .encoding import (
    CameraIntrinsics,
    ChannelStats,
    DepthMap,
    HdhaImage,
    compute_channel_stats,
    grayscale_encode,
    jet_encode,
    jet_table,
    load_depth,
    quantize_u8,
)
from .geometry import (
    GravityEstimate,
    estimate_gravity,
    hdha_encode,
)
from .netpbm import ParseError

__version__ = "0.1.0"

__all__ = [
    "CameraIntrinsics",
    "ChannelStats",
    "DepthMap",
    "GravityEstimate",
    "HdhaImage",
    "ParseError",
    "compute_channel_stats",
    "estimate_gravity",
    "grayscale_encode",
    "hdha_encode",
    "jet_encode",
    "jet_table",
    "load_depth",
    "quantize_u8",
    "__version__",
]
