"""Depth-map container types and the per-pixel color encodings.

A depth map is a dense ``(H, W)`` grid of readings in meters with a
validity mask (sensor dropouts, zero fills).  Encodings turn it into
8-bit imagery a standard RGB detector can consume: linear grayscale, a
jet color ramp over the grayscale, and the three-channel geometric
encoding (disparity / height / gravity angle) built in :mod:`.geometry`.

Quantization rule used throughout: floats round to integers half away
from zero, and invalid pixels encode to 0 in every channel.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import netpbm


def quantize_u8(values: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """Map floats in [0, 255] to uint8, rounding half away from zero."""
    arr = np.asarray(values, dtype=np.float64)
    out = np.floor(np.abs(arr) + 0.5) * np.sign(arr)
    out = np.clip(out, 0, 255)
    if valid is not None:
        out = np.where(valid, out, 0)
    return out.astype(np.uint8)


@dataclass
class DepthMap:
    """Dense depth readings in meters.  Valid pixels are finite and > 0."""

    values: np.ndarray
    valid: np.ndarray

    def __init__(self, values: np.ndarray, valid: np.ndarray | None = None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"depth values must be (H, W), got shape {values.shape}")
        finite_pos = np.isfinite(values) & (values > 0)
        if valid is None:
            valid = finite_pos
        else:
            valid = np.asarray(valid, dtype=bool)
            if valid.shape != values.shape:
                raise ValueError("valid mask shape differs from values shape")
            if np.any(valid & ~finite_pos):
                raise ValueError("valid pixels must hold finite, positive depths")
        self.values = values
        self.valid = valid

    def summary(self) -> dict:
        """Valid fraction and valid-depth range, for one-line reporting."""
        n = self.values.size
        if not self.valid.any():
            return {"valid_fraction": 0.0, "min": None, "max": None}
        vals = self.values[self.valid]
        return {
            "valid_fraction": float(self.valid.sum()) / n,
            "min": float(vals.min()),
            "max": float(vals.max()),
        }


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; ``baseline`` is the virtual stereo baseline in meters."""

    fx: float
    fy: float
    cx: float
    cy: float
    baseline: float = 0.075

    def __post_init__(self):
        values = (self.fx, self.fy, self.cx, self.cy, self.baseline)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"intrinsics must be finite, got {self}")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got fx={self.fx} fy={self.fy}")
        if self.baseline <= 0:
            raise ValueError(f"baseline must be positive, got {self.baseline}")
        # within these magnitudes every back-projected coordinate and
        # disparity of a float32 depth map, squared and summed, stays
        # far inside the float64 range
        if min(self.fx, self.fy, self.baseline) < 1e-6 or max(map(abs, values)) > 1e6:
            raise ValueError(f"intrinsics must lie within 1e-6..1e6 in magnitude, got {self}")

    @classmethod
    def from_json(cls, path: str) -> "CameraIntrinsics":
        """Read ``fx fy cx cy`` and an optional ``baseline`` from a JSON
        object; a malformed file is a ``ParseError`` at byte offset 0."""
        raw = {"baseline": 0.075, **_json_object(path, "intrinsics", ("fx", "fy", "cx", "cy"))}
        return cls(*(_number(raw[key], key, path) for key in ("fx", "fy", "cx", "cy", "baseline")))


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel mean and standard deviation.  All stds must be positive."""

    means: tuple[float, ...]
    stds: tuple[float, ...]

    def __post_init__(self):
        if len(self.means) != len(self.stds):
            raise ValueError("means and stds must have equal length")
        if not all(map(math.isfinite, self.means + self.stds)):
            raise ValueError(f"stats must be finite, got means={self.means} stds={self.stds}")
        if any(s <= 0 for s in self.stds):
            raise ValueError(f"stds must be positive, got {self.stds}")

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"mean": list(self.means), "std": list(self.stds)}, fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "ChannelStats":
        """Read the ``mean`` and ``std`` arrays of a JSON object; a
        malformed file is a ``ParseError`` at byte offset 0."""
        raw = _json_object(path, "stats", ("mean", "std"))
        columns = []
        for key in ("mean", "std"):
            if not isinstance(raw[key], list):
                raise netpbm.ParseError(f"{path}: {key!r} must be a JSON array", 0)
            columns.append(tuple(_number(v, key, path) for v in raw[key]))
        return cls(*columns)


def _json_object(path: str, what: str, fields: tuple[str, ...]) -> dict:
    """The JSON object a file holds, with every one of ``fields``."""
    raw = netpbm.read_json(path)
    if not isinstance(raw, dict):
        raise netpbm.ParseError(f"{path}: {what} must be a JSON object", 0)
    for key in fields:
        if key not in raw:
            raise netpbm.ParseError(f"{path}: {what} missing field {key!r}", 0)
    return raw


def _number(value, key: str, path: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise netpbm.ParseError(f"{path}: {key!r} must hold numbers: {exc}", 0) from None


@dataclass
class HdhaImage:
    """Geometric three-channel encoding.

    ``hd`` is horizontal disparity in pixel units, ``height`` is meters
    above the lowest valid scene point, ``angle`` is the angle in degrees
    between the local surface normal and the estimated gravity direction.
    """

    hd: np.ndarray
    height: np.ndarray
    angle: np.ndarray
    valid: np.ndarray

    def channels(self) -> np.ndarray:
        return np.stack([self.hd, self.height, self.angle], axis=-1)


def grayscale_encode(depth: DepthMap, d_min: float, d_max: float) -> np.ndarray:
    """Linear map of depth to [0, 255], ``255 * (d - d_min) / (d_max - d_min)``,
    quantized: an ``(H, W)`` uint8 image.

    Depths outside [d_min, d_max] clamp to the range ends.  Invalid pixels
    encode to 0.
    """
    if not d_max > d_min:
        raise ValueError(f"need d_max > d_min, got d_min={d_min} d_max={d_max}")
    scaled = 255.0 * (depth.values - d_min) / (d_max - d_min)
    return quantize_u8(np.clip(scaled, 0.0, 255.0), depth.valid)


# Channel c of level t is the ramp 3/2 - |4t/255 - 4c|, clipped to
# [0, 1], centered at c = 3/4, 1/2, 1/4 for R, G, B.  Scaled by 255 it
# is 382.5 - |4t - 1020c| with 1020c an integer, so rounding half up is
# exactly 383 - |4t - 1020c|.
_JET_TABLE = np.clip(383 - np.abs(4 * np.arange(256)[:, None] - np.array([765, 510, 255])),
                     0, 255).astype(np.uint8)
_JET_TABLE.setflags(write=False)


def jet_table() -> np.ndarray:
    """The read-only 256-entry jet lookup table, blue (low) through red (high)."""
    return _JET_TABLE


def jet_encode(gray: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Look each level of a :func:`grayscale_encode` image up in the jet
    table: an ``(H, W, 3)`` uint8 image.

    Pixels outside ``valid`` encode to (0, 0, 0), which is not a table
    entry; a valid level 0 is blue.
    """
    return np.where(valid[..., None], _JET_TABLE[gray], 0).astype(np.uint8)


def compute_channel_stats(images: list[HdhaImage]) -> ChannelStats:
    """Pooled per-channel mean/std over the valid pixels of all images.

    Population std (ddof=0).  Raises if no valid pixels or a channel is
    constant.
    """
    if not images:
        raise ValueError("need at least one image to compute stats")
    pooled = []
    for img in images:
        chans = img.channels()
        pooled.append(chans[img.valid])
    stacked = np.concatenate(pooled, axis=0)
    if stacked.shape[0] == 0:
        raise ValueError("no valid pixels in any input image")
    means = stacked.mean(axis=0)
    stds = stacked.std(axis=0)
    if np.any(stds <= 0):
        raise ValueError(f"constant channel, std would be zero: stds={stds.tolist()}")
    return ChannelStats(means=tuple(float(m) for m in means), stds=tuple(float(s) for s in stds))


def load_depth(path: str) -> DepthMap:
    """Read a depth file as meters, dispatching on the magic number.

    PFM stores float meters directly.  16-bit PGM stores millimeters with
    0 marking an invalid reading.
    """
    magic = netpbm.sniff_magic(path)
    if magic in ("Pf", "PF"):
        values, _ = netpbm.read_pfm(path)
        values = values.astype(np.float64)
        valid = np.isfinite(values) & (values > 0)
        return DepthMap(np.where(valid, values, 0.0), valid)
    if magic == "P5":
        raw, maxval = netpbm.read_pgm(path)
        if maxval <= 255:
            raise netpbm.ParseError(
                f"depth PGM must be 16-bit (maxval > 255), got maxval {maxval}", 0
            )
        values = raw.astype(np.float64) / 1000.0
        return DepthMap(values, raw > 0)
    raise netpbm.ParseError(f"unrecognized depth format magic {magic!r}", 0)


def hdha_to_rgb(image: HdhaImage, stats: ChannelStats | None = None) -> np.ndarray:
    """Render HDHA channels to bytes: hd into R, height into G, angle into B.

    Without stats each channel is min-max scaled over its valid pixels.
    With stats the z-score window [-3, 3] maps linearly onto [0, 255].
    Invalid pixels render to (0, 0, 0).
    """
    chans = image.channels()
    out = np.zeros_like(chans)
    if stats is not None:
        if len(stats.means) != 3:
            raise ValueError("hdha rendering needs 3-channel stats")
        means = np.asarray(stats.means)
        stds = np.asarray(stats.stds)
        # a z-score too large for a double lies outside the window anyway
        with np.errstate(over="ignore"):
            out = ((chans - means) / stds + 3.0) / 6.0 * 255.0
    else:
        for c in range(3):
            vals = chans[..., c][image.valid]
            if vals.size == 0:
                continue
            lo, hi = vals.min(), vals.max()
            if hi > lo:
                out[..., c] = (chans[..., c] - lo) / (hi - lo) * 255.0
    out = np.clip(out, 0.0, 255.0)
    return quantize_u8(out, valid=np.broadcast_to(image.valid[..., None], out.shape))
