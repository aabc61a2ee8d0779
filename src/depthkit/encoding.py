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
from ._kernels import strips


def quantize_u8(values: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """Map floats in [0, 255] to uint8, rounding half away from zero.

    ``values`` is left alone.
    """
    return _quantize_owned(np.array(values, dtype=np.float64), valid)


def _quantize_owned(out: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """:func:`quantize_u8` computed in place in ``out``, a float64 array
    the caller gives up.

    Clipping before rounding keeps every byte: a negative value rounds
    away from zero to 0 or below and a value past 255 to 255 or above,
    so both clip to the byte the clipped value rounds to.
    """
    np.clip(out, 0.0, 255.0, out=out)
    out += 0.5
    np.floor(out, out=out)
    if valid is not None:
        np.copyto(out, 0.0, where=~np.asarray(valid, dtype=bool))
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
        # reduced under the mask, with no gather of the valid depths
        return {
            "valid_fraction": float(self.valid.sum()) / n,
            "min": float(self.values.min(where=self.valid, initial=np.inf)),
            "max": float(self.values.max(where=self.valid, initial=-np.inf)),
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
        means, stds = columns
        # a shape the record cannot take is malformed; a number that is
        # not finite is out of range, which the record itself refuses
        if len(means) != len(stds):
            raise netpbm.ParseError(f"{path}: 'mean' and 'std' must have equal length", 0)
        if any(s <= 0 for s in stds if math.isfinite(s)):
            raise netpbm.ParseError(f"{path}: 'std' must hold positive numbers", 0)
        return cls(means, stds)


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
    # a JSON number only: float() would also take true, false and strings
    try:
        if type(value) in (int, float):
            return float(value)
    except OverflowError:  # an integer past the float range
        pass
    raise netpbm.ParseError(f"{path}: {key!r} must hold numbers", 0)


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

    @property
    def shape(self) -> tuple[int, int]:
        return self.valid.shape

    def channels(self) -> np.ndarray:
        return np.stack([self.hd, self.height, self.angle], axis=-1)

    def strip(self, lo: int, hi: int) -> "HdhaImage":
        """Rows ``lo..hi-1`` of every plane, as views."""
        return HdhaImage(self.hd[lo:hi], self.height[lo:hi], self.angle[lo:hi],
                         self.valid[lo:hi])


@dataclass(frozen=True)
class SpilledHdha:
    """An :class:`HdhaImage` kept in a file in place of memory, read back
    one strip of rows at a time.

    The file holds the ``hd``, ``height`` and ``angle`` planes as
    row-major float64 and then the ``valid`` mask as one byte a pixel:
    25 bytes a pixel, the bytes the planes held.  ``count`` is the
    number of valid pixels.
    """

    path: str
    shape: tuple[int, int]
    count: int

    def strip(self, lo: int, hi: int) -> HdhaImage:
        """Rows ``lo..hi-1`` of every plane, read into fresh arrays."""
        h, w = self.shape
        n = (hi - lo) * w
        planes = [np.fromfile(self.path, np.float64, n, offset=8 * (c * h + lo) * w)
                  .reshape(hi - lo, w) for c in range(3)]
        valid = np.fromfile(self.path, bool, n, offset=24 * h * w + lo * w)
        return HdhaImage(*planes, valid.reshape(hi - lo, w))


def spill_hdha(image: HdhaImage, path: str) -> SpilledHdha:
    """Write ``image`` to a new file at ``path`` in the layout
    :class:`SpilledHdha` reads."""
    with open(path, "xb") as fh:
        # a file write, unlike ``ndarray.tofile``, names a full disk's errno
        for plane, dtype in ((image.hd, np.float64), (image.height, np.float64),
                             (image.angle, np.float64), (image.valid, bool)):
            fh.write(np.ascontiguousarray(plane, dtype=dtype).data)
    return SpilledHdha(path, image.shape, int(np.count_nonzero(image.valid)))


def grayscale_encode(depth: DepthMap, d_min: float, d_max: float) -> np.ndarray:
    """Linear map of depth to [0, 255], ``255 * (d - d_min) / (d_max - d_min)``,
    quantized: an ``(H, W)`` uint8 image.

    Depths outside [d_min, d_max] clamp to the range ends.  Invalid pixels
    encode to 0.
    """
    if not d_max > d_min:
        raise ValueError(f"need d_max > d_min, got d_min={d_min} d_max={d_max}")
    scaled = depth.values - d_min
    scaled *= 255.0
    scaled /= d_max - d_min
    return _quantize_owned(scaled, depth.valid)


# Channel c of level t is the ramp 3/2 - |4t/255 - 4c|, clipped to
# [0, 1], centered at c = 3/4, 1/2, 1/4 for R, G, B.  Scaled by 255 it
# is 382.5 - |4t - 1020c| with 1020c an integer, so rounding half up is
# exactly 383 - |4t - 1020c|.
# Row 256, past the levels, is the black of invalid pixels.
_JET_ROWS = np.zeros((257, 3), dtype=np.uint8)
_JET_ROWS[:256] = np.clip(383 - np.abs(4 * np.arange(256)[:, None] - np.array([765, 510, 255])),
                          0, 255)
_JET_ROWS.setflags(write=False)
_JET_TABLE = _JET_ROWS[:256]


def jet_table() -> np.ndarray:
    """The read-only 256-entry jet lookup table, blue (low) through red (high)."""
    return _JET_TABLE


def jet_encode(gray: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Look each level of a :func:`grayscale_encode` image up in the jet
    table: an ``(H, W, 3)`` uint8 image.

    Pixels outside ``valid`` encode to (0, 0, 0), which is not a table
    entry; a valid level 0 is blue.  One gather builds the image: an
    invalid pixel looks up the black row past the table's end.
    """
    return _JET_ROWS.take(np.where(valid, gray, np.uint16(256)), axis=0)


def _valid_sums(images, means=None) -> tuple[list, int]:
    """Per channel, the sum of the valid pixels of every image (given
    ``means``, of their squared deviations from the channel's mean), and
    the count of valid pixels.

    Each sum adds its pixels one by one in image order, row-major within
    an image, one strip of rows at a time: a strip's pixels are gathered,
    its first one gets the running sum, and the last element of their
    in-place ``cumsum`` is the new running sum.  A channel with no valid
    pixel sums to None.
    """
    totals, n = [None, None, None], 0
    for img in images:
        for lo, hi in strips(img.shape[0]):
            part = img.strip(lo, hi)
            n += int(np.count_nonzero(part.valid))
            for c, plane in enumerate((part.hd, part.height, part.angle)):
                values = plane[part.valid]
                if not values.size:
                    continue
                if means is not None:
                    values -= means[c]
                    np.square(values, out=values)
                if totals[c] is not None:
                    values[0] += totals[c]
                totals[c] = np.cumsum(values, out=values)[-1]
    return totals, n


def compute_channel_stats(images: list) -> ChannelStats:
    """Pooled per-channel mean/std over the valid pixels of all images,
    each an :class:`HdhaImage` or a :class:`SpilledHdha`.

    Population std (ddof=0).  Raises if no valid pixels or a channel is
    constant.  Every sum runs sequentially over the valid pixels in
    image order, row-major within an image: the order in which
    ``np.mean`` and ``np.std`` add along axis 0 of the pooled ``(N, 3)``
    array, so the stats keep those bits without that array.  The images
    are read twice, for the means and then for the squared deviations,
    one strip of rows at a time, so no temporary is larger than a
    strip: the memory is that of one strip whatever the batch size.
    """
    if not images:
        raise ValueError("need at least one image to compute stats")
    sums, n = _valid_sums(images)
    if n == 0:
        raise ValueError("no valid pixels in any input image")
    means = [total / n for total in sums]
    stds = [float(np.sqrt(total / n)) for total in _valid_sums(images, means)[0]]
    if any(s <= 0 for s in stds):
        raise ValueError(f"constant channel, std would be zero: stds={stds}")
    return ChannelStats(means=tuple(map(float, means)), stds=tuple(stds))


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
        # the float64 copy is this map's own, so it is zeroed in place
        np.copyto(values, 0.0, where=~valid)
        return DepthMap(values, valid)
    if magic == "P5":
        raw, maxval = netpbm.read_pgm(path)
        if maxval <= 255:
            raise netpbm.ParseError(
                f"depth PGM must be 16-bit (maxval > 255), got maxval {maxval}", 0
            )
        values = raw.astype(np.float64)
        values /= 1000.0
        return DepthMap(values, raw > 0)
    raise netpbm.ParseError(f"unrecognized depth format magic {magic!r}", 0)


def hdha_to_rgb(image, stats: ChannelStats | None = None) -> np.ndarray:
    """Render HDHA channels to bytes: hd into R, height into G, angle into B.

    ``image`` is an :class:`HdhaImage`, left alone, or a
    :class:`SpilledHdha`.  Without stats each channel is min-max scaled
    over its valid pixels, found in a first pass over the rows.  With
    stats the z-score window [-3, 3] maps linearly onto [0, 255].
    Invalid pixels render to (0, 0, 0).  The image is rendered one strip
    of rows at a time, the scaling and the rounding in place in one
    float copy of the strip's channels, so beside the ``(H, W, 3)``
    uint8 result no temporary is larger than a strip.
    """
    if stats is not None:
        if len(stats.means) != 3:
            raise ValueError("hdha rendering needs 3-channel stats")
    else:
        lows, highs = np.full(3, np.inf), np.full(3, -np.inf)
        for lo, hi in strips(image.shape[0]):
            part = image.strip(lo, hi)
            for c, plane in enumerate((part.hd, part.height, part.angle)):
                lows[c] = np.minimum(lows[c], plane.min(where=part.valid, initial=np.inf))
                highs[c] = np.maximum(highs[c], plane.max(where=part.valid, initial=-np.inf))
    out = np.empty((*image.shape, 3), dtype=np.uint8)
    for lo, hi in strips(image.shape[0]):
        part = image.strip(lo, hi)
        scaled = part.channels()
        if stats is not None:
            # a z-score too large for a double lies outside the window anyway
            with np.errstate(over="ignore"):
                scaled -= stats.means
                scaled /= stats.stds
                scaled += 3.0
                scaled /= 6.0
                scaled *= 255.0
        else:
            for c in range(3):
                chan = scaled[..., c]
                if highs[c] > lows[c]:
                    chan -= lows[c]
                    chan /= highs[c] - lows[c]
                    chan *= 255.0
                else:
                    chan[...] = 0.0
        out[lo:hi] = _quantize_owned(scaled, part.valid[..., None])
    return out
