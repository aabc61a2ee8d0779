"""Reading and writing the netpbm-family formats used for depth and image
data, decoding the JSON that every other input file holds, and the one
grammar of the numbers that files and command-line options hold as text.

Depth maps arrive either as PFM (single-channel float32, meters) or as
16-bit binary PGM (millimeters, sample value 0 marks a missing reading).
Encoded outputs leave as 8-bit binary PGM / PPM.  All parsers report
failures as :class:`ParseError` carrying the byte offset of the problem.
"""
from __future__ import annotations

import json
import math
import re

import numpy as np


class ParseError(ValueError):
    """Malformed input file.  ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


_JSON = json.JSONDecoder()


def decode_json(data: bytes, where: str, offset: int):
    """The one JSON value of stripped bytes, as ``json.loads`` reads it.

    Bytes that do not decode (bad JSON, bad UTF-8, nesting past the
    recursion limit) raise a ``ParseError`` naming ``where`` at ``offset``.
    """
    try:
        # bytes opening with '{' and no NUL after it are UTF-8 to
        # json.detect_encoding; anything else (a BOM, UTF-16) goes through it
        if data[:1] != b"{" or data[1:2] == b"\0":
            return json.loads(data)
        text = data.decode("utf-8", "surrogatepass")
        value, end = _JSON.raw_decode(text)
        if end != len(text):  # the bytes are stripped: what follows is not blank
            raise json.JSONDecodeError("Extra data", text, end)
        return value
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: {exc.msg}", offset) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{where}: not valid {exc.encoding} ({exc.reason})", offset) from None
    except RecursionError:
        raise ParseError(f"{where}: values nested too deeply", offset) from None


def read_json(path: str):
    """The one JSON value a file holds, decoded as :func:`decode_json` does."""
    with open(path, "rb") as fh:
        return decode_json(fh.read().strip(), path, 0)


# the one grammar of numbers read as text (PFM scale, heatmap cells,
# command-line options): sign, ASCII digits, optional fraction, optional
# exponent; an integer is the sign and digits alone
_DECIMAL_FLOAT = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_DECIMAL_INT = re.compile(r"[+-]?[0-9]+")


def decimal_float(text: str) -> float:
    """A finite ASCII decimal number, else ``ValueError``: ``float()`` alone
    would also take underscores, padding, non-ASCII digits, nan and inf."""
    if not _DECIMAL_FLOAT.fullmatch(text):
        raise ValueError(f"not a decimal number: {text!r}")
    value = float(text)
    if not math.isfinite(value):  # an exponent past the float64 range
        raise ValueError(f"not finite: {text!r}")
    return value


def decimal_int(text: str) -> int:
    """An ASCII decimal integer with an optional sign; ``ValueError`` otherwise."""
    if not _DECIMAL_INT.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


_WHITESPACE = b" \t\r\n\v\f"
# separators, then one token; where comments are allowed a '#' starts one
# that runs to the end of its line, and it ends a token
_HEADER_SCANS = {
    False: re.compile(b"[%s]*([^%s]*)" % (_WHITESPACE, _WHITESPACE)),
    True: re.compile(b"(?:[%s]|#[^\n]*)*([^#%s]*)" % (_WHITESPACE, _WHITESPACE)),
}


class _Tokenizer:
    """Pulls whitespace-separated header tokens out of a byte buffer.

    Comments (``#`` to end of line) are skipped when ``comments`` is set;
    PFM headers do not allow them, PGM/PPM headers do.
    """

    def __init__(self, data: bytes, comments: bool):
        self.data = data
        self.pos = 0
        self.scan = _HEADER_SCANS[comments]

    def token(self, what: str) -> bytes:
        start, self.pos = self.scan.match(self.data, self.pos).span(1)
        if self.pos == start:
            raise ParseError(f"expected {what}", start)
        return self.data[start : self.pos]

    def int_token(self, what: str) -> int:
        tok = self.token(what)
        start = self.pos - len(tok)
        # netpbm integers are ASCII decimal digits only; int() would also
        # take a sign and underscores
        if not tok.isdigit():
            raise ParseError(f"{what} is not a decimal integer: {tok!r}", start)
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"{what} has too many digits", start) from None

    def float_token(self, what: str) -> float:
        tok = self.token(what)
        try:
            return decimal_float(tok.decode("latin-1"))
        except ValueError as exc:
            raise ParseError(f"{what} is {exc}", self.pos - len(tok)) from None

    def dimensions(self) -> tuple[int, int]:
        width, height = self.int_token("width"), self.int_token("height")
        if width <= 0 or height <= 0:
            raise ParseError(f"bad dimensions {width}x{height}", self.pos)
        return width, height

    def raster(self, nbytes: int) -> int:
        """Consume the single whitespace byte that separates header from
        raster and check that ``nbytes`` of raster follow; return its offset."""
        if self.pos >= len(self.data):
            raise ParseError("file ends before raster data", self.pos)
        if self.data[self.pos : self.pos + 1] not in _WHITESPACE:
            raise ParseError("missing whitespace before raster data", self.pos)
        self.pos += 1
        if len(self.data) - self.pos < nbytes:
            raise ParseError(f"raster truncated, need {nbytes} bytes, "
                             f"have {len(self.data) - self.pos}", len(self.data))
        return self.pos


def read_pfm(path: str) -> tuple[np.ndarray, float]:
    """Read a grayscale PFM file.

    Returns ``(values, scale)`` where ``values`` is a float32 ``(H, W)``
    array in top-to-bottom row order (the file stores rows bottom-up) and
    ``scale`` is the absolute value of the header scale field.  A negative
    header scale marks little-endian sample data, positive big-endian.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    tok = _Tokenizer(data, comments=False)
    magic = tok.token("magic number")
    if magic == b"PF":
        raise ParseError("color PFM is not supported, expected grayscale 'Pf'", 0)
    if magic != b"Pf":
        raise ParseError(f"not a PFM file, magic {magic!r}", 0)
    width, height = tok.dimensions()
    scale = tok.float_token("scale")
    if scale == 0:
        raise ParseError("scale must be nonzero", tok.pos)
    start = tok.raster(width * height * 4)
    dtype = "<f4" if scale < 0 else ">f4"
    values = np.frombuffer(data, dtype=dtype, count=width * height, offset=start)
    values = values.reshape(height, width)[::-1].astype(np.float32)
    return values, abs(scale)


def write_pfm(path: str, values: np.ndarray, scale: float = 1.0) -> None:
    """Write a grayscale PFM (little-endian, rows stored bottom-up)."""
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim != 2:
        raise ValueError(f"PFM data must be 2-D, got shape {arr.shape}")
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"Pf\n")
        fh.write(f"{width} {height}\n".encode("ascii"))
        fh.write(f"{-abs(scale)}\n".encode("ascii"))
        fh.write(arr[::-1].astype("<f4").tobytes())


def _read_binary_netpbm(path: str, magic_want: bytes, channels: int) -> tuple[np.ndarray, int]:
    with open(path, "rb") as fh:
        data = fh.read()
    tok = _Tokenizer(data, comments=True)
    magic = tok.token("magic number")
    if magic != magic_want:
        raise ParseError(f"expected magic {magic_want.decode()}, got {magic!r}", 0)
    width, height = tok.dimensions()
    maxval = tok.int_token("maxval")
    if not 0 < maxval < 65536:
        raise ParseError(f"maxval {maxval} out of range 1..65535", tok.pos)
    # Samples over 255 take two bytes, most significant first.
    itemsize = 2 if maxval > 255 else 1
    count = width * height * channels
    start = tok.raster(count * itemsize)
    dtype = ">u2" if itemsize == 2 else "u1"
    values = np.frombuffer(data, dtype=dtype, count=count, offset=start)
    shape = (height, width) if channels == 1 else (height, width, channels)
    values = values.reshape(shape)
    if values.max(initial=0) > maxval:
        raise ParseError(f"sample exceeds maxval {maxval}", start)
    return values.astype(np.uint16 if itemsize == 2 else np.uint8), maxval


def read_pgm(path: str) -> tuple[np.ndarray, int]:
    """Read a binary PGM (P5).  Returns ``(values, maxval)``, rows top-down."""
    return _read_binary_netpbm(path, b"P5", 1)


def read_ppm(path: str) -> tuple[np.ndarray, int]:
    """Read a binary PPM (P6).  Returns ``((H, W, 3) values, maxval)``."""
    return _read_binary_netpbm(path, b"P6", 3)


def write_pgm8(path: str, values: np.ndarray) -> None:
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise ValueError(f"8-bit PGM needs a uint8 (H, W) array, got {arr.dtype} {arr.shape}")
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def write_pgm16(path: str, values: np.ndarray) -> None:
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.dtype != np.uint16:
        raise ValueError(f"16-bit PGM needs a uint16 (H, W) array, got {arr.dtype} {arr.shape}")
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n65535\n".encode("ascii"))
        fh.write(arr.astype(">u2").tobytes())


def write_ppm8(path: str, values: np.ndarray) -> None:
    arr = np.asarray(values)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError(f"8-bit PPM needs a uint8 (H, W, 3) array, got {arr.dtype} {arr.shape}")
    height, width = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def sniff_magic(path: str) -> str:
    """Return the two-character magic of a netpbm/PFM file."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if len(magic) < 2:
        raise ParseError("file too short for a magic number", 0)
    return magic.decode("latin-1")
