"""Netpbm reader/writer round-trips and malformed-input diagnostics."""
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_run import assert_contract
from depth_scenes import write_cam
from depthkit import netpbm
from depthkit.netpbm import ParseError


def test_pfm_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    depth = rng.uniform(0.2, 9.0, size=(7, 5)).astype(np.float32)
    path = tmp_path / "d.pfm"
    netpbm.write_pfm(str(path), depth)
    back, scale = netpbm.read_pfm(str(path))
    assert back.dtype == np.float32
    assert scale == 1.0
    np.testing.assert_array_equal(back, depth)


def test_pfm_rows_are_stored_bottom_up(tmp_path):
    # the first raster row in the file must be the bottom image row
    depth = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], dtype=np.float32)
    path = tmp_path / "d.pfm"
    netpbm.write_pfm(str(path), depth)
    raw = path.read_bytes()
    header_end = raw.index(b"-1.0\n") + len(b"-1.0\n")
    first_row = struct.unpack("<2f", raw[header_end:header_end + 8])
    assert first_row == (5.0, 6.0)


def test_pfm_negative_scale_means_little_endian(tmp_path):
    depth = np.full((2, 2), 3.25, dtype=np.float32)
    path = tmp_path / "d.pfm"
    netpbm.write_pfm(str(path), depth, scale=2.5)
    raw = path.read_bytes()
    assert b"-2.5" in raw
    _, scale = netpbm.read_pfm(str(path))
    assert scale == 2.5


def test_pfm_rejects_color_variant(tmp_path):
    path = tmp_path / "d.pfm"
    path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
    with pytest.raises(ParseError):
        netpbm.read_pfm(str(path))


def test_pgm16_round_trip_is_big_endian(tmp_path):
    vals = np.array([[0, 1], [256, 65535]], dtype=np.uint16)
    path = tmp_path / "d.pgm"
    netpbm.write_pgm16(str(path), vals)
    raw = path.read_bytes()
    # 256 must serialize high byte first
    assert raw.endswith(b"\x00\x00\x00\x01\x01\x00\xff\xff")
    back, maxval = netpbm.read_pgm(str(path))
    assert maxval == 65535
    assert back.dtype == np.uint16
    np.testing.assert_array_equal(back, vals)


def test_pgm8_and_ppm8_round_trip(tmp_path):
    gray = np.arange(12, dtype=np.uint8).reshape(3, 4)
    rgb = np.arange(36, dtype=np.uint8).reshape(3, 4, 3)
    gpath, cpath = tmp_path / "g.pgm", tmp_path / "c.ppm"
    netpbm.write_pgm8(str(gpath), gray)
    netpbm.write_ppm8(str(cpath), rgb)
    gback, gmax = netpbm.read_pgm(str(gpath))
    cback, cmax = netpbm.read_ppm(str(cpath))
    assert (gmax, cmax) == (255, 255)
    np.testing.assert_array_equal(gback, gray)
    np.testing.assert_array_equal(cback, rgb)


def test_pgm_comments_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 # width then height\n1\n255\n\x07\x09")
    back, maxval = netpbm.read_pgm(str(path))
    np.testing.assert_array_equal(back, [[7, 9]])
    assert maxval == 255


def test_parse_error_reports_byte_offset(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 oops\n255\n\x00\x00")
    with pytest.raises(ParseError) as err:
        netpbm.read_pgm(str(path))
    assert err.value.offset == 5
    assert "oops" in str(err.value)


def test_truncated_raster_raises_with_offset(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x01\x02")
    with pytest.raises(ParseError) as err:
        netpbm.read_pgm(str(path))
    assert err.value.offset >= 11


def test_wrong_magic_is_rejected(tmp_path):
    path = tmp_path / "odd.pgm"
    path.write_bytes(b"P2\n2 2\n255\n1 2 3 4\n")
    with pytest.raises(ParseError):
        netpbm.read_pgm(str(path))


def test_sniff_magic(tmp_path):
    pfm, pgm = tmp_path / "a.pfm", tmp_path / "b.pgm"
    netpbm.write_pfm(str(pfm), np.ones((2, 2), dtype=np.float32))
    netpbm.write_pgm16(str(pgm), np.ones((2, 2), dtype=np.uint16))
    assert netpbm.sniff_magic(str(pfm)) == "Pf"
    assert netpbm.sniff_magic(str(pgm)) == "P5"


def test_dimension_limits(tmp_path):
    path = tmp_path / "zero.pgm"
    path.write_bytes(b"P5\n0 2\n255\n")
    with pytest.raises(ParseError):
        netpbm.read_pgm(str(path))


def _encode_gray_exit(tmp_path, name, data):
    """stderr of a gray encode of ``data`` that exits 2 under the contract."""
    src = tmp_path / name
    src.write_bytes(data)
    return assert_contract(["encode", str(src), "--mode", "gray", "--dmin", "0.5", "--dmax", "8",
                            "--out", str(tmp_path / "out")], (2,))[1]


@pytest.mark.parametrize("scale", [b"nan", b"-nan", b"inf", b"-inf", b"-1e400", b"1_0",
                                   b"-1_0", "-\u0661".encode()])
def test_non_finite_pfm_scale_exits_2_at_its_offset(tmp_path, scale):
    # the sign of the scale picks the byte order: a NaN has no usable one;
    # the scale is an ASCII decimal float, not any spelling float() takes
    raster = np.full((2, 2), 2.0, dtype="<f4").tobytes()
    err = _encode_gray_exit(tmp_path, "d.pfm", b"Pf\n2 2\n" + scale + b"\n" + raster)
    assert err.strip().endswith("(byte offset 7)"), err


@pytest.mark.parametrize("header", [b"P5 1_0 +1 65535", b"P5 2 +1 65535", b"P5 2 1 6_5535",
                                    b"P5 2 1 +65535"])
def test_header_integers_are_decimal_digits_only(tmp_path, header):
    bad = next(tok for tok in header.split()[1:] if not tok.isdigit())
    err = _encode_gray_exit(tmp_path, "d.pgm", header + b"\n" + b"\x00" * 40)
    assert err.strip().endswith(f"(byte offset {header.index(bad)})"), err


# ------------------------------------------------------------------- fuzz

_TOKENS = [b"-3", b"+4", b"0", b"1_0", b"3.5", b"0x10", b"1e3", b"nan", b"inf", b"-inf",
           b"-1.0", b"99999999999999999999", b"9" * 5000, b"Pf", b"PF", b"P5", b"#", b"\xff"]


@st.composite
def _depth_file(draw):
    """A depth PFM or 16-bit PGM of a 1-8 x 1-8 map whose header has one
    token replaced, deleted or duplicated, a comment or a missing
    separator, or whose raster is cut short."""
    pfm = draw(st.booleans())
    w, h = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    meters = np.array(draw(st.lists(st.sampled_from([0.0, 0.7, 1.5, 3.0, 6.0]),
                                    min_size=w * h, max_size=w * h))).reshape(h, w)
    if pfm:
        tokens = [b"Pf", b"%d" % w, b"%d" % h, b"-1.0"]
        raster = meters[::-1].astype("<f4").tobytes()
    else:
        tokens = [b"P5", b"%d" % w, b"%d" % h, b"65535"]
        raster = np.round(meters * 1000).astype(">u2").tobytes()
    seps = [b"\n", b" ", b"\n", b"\n"]
    i = draw(st.integers(0, 3))
    how = draw(st.sampled_from(["replace", "delete", "duplicate", "comment", "join", "cut"]))
    if how == "replace":
        tokens[i] = draw(st.one_of(st.sampled_from(_TOKENS),
                                   st.integers(-10, 10**30).map(lambda n: b"%d" % n)))
    elif how == "delete":
        del tokens[i], seps[i]
    elif how == "duplicate":
        tokens.insert(i, tokens[i])
        seps.insert(i, b" ")
    elif how == "comment":
        seps[i] += b"# note 12 -1.0\n"
    elif how == "join":
        seps[i] = b""
    else:
        raster = raster[:draw(st.integers(0, len(raster) - 1))]
    header = b"".join(token + sep for token, sep in zip(tokens, seps))
    return ".pfm" if pfm else ".pgm", header + raster


@settings(max_examples=60, deadline=None)
@given(name_data=_depth_file(), mode=st.sampled_from(["gray", "hdha"]))
def test_fuzzed_depth_headers_keep_the_cli_contract(tmp_path_factory, name_data, mode):
    suffix, data = name_data
    tmp = tmp_path_factory.mktemp("netpbm")
    src = tmp / f"map{suffix}"
    src.write_bytes(data)
    argv = ["encode", str(src), "--mode", mode, "--out", str(tmp / "out")]
    argv += (["--dmin", "0.5", "--dmax", "8"] if mode == "gray"
             else ["--intrinsics", write_cam(tmp / "cam.json", 8, 8, 4.0)])
    rc, err = assert_contract(argv)
    if rc == 2:
        found = re.search(r"\(byte offset (\d+)\)$", err.strip())
        assert found, err
        assert int(found[1]) <= len(data), err


_WHITESPACE = b" \t\r\n\v\f"


class _ReferenceTokenizer:
    """The byte-at-a-time header scan that the compiled scans replaced,
    kept as their oracle."""

    def __init__(self, data: bytes, comments: bool):
        self.data = data
        self.pos = 0
        self.comments = comments

    def _skip_separators(self) -> None:
        while self.pos < len(self.data):
            byte = self.data[self.pos : self.pos + 1]
            if byte in (b"#",) and self.comments:
                end = self.data.find(b"\n", self.pos)
                self.pos = len(self.data) if end < 0 else end + 1
            elif byte in _WHITESPACE:
                self.pos += 1
            else:
                return

    def token(self, what: str) -> bytes:
        self._skip_separators()
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos : self.pos + 1] not in _WHITESPACE:
            if self.data[self.pos : self.pos + 1] == b"#" and self.comments:
                break
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected {what}", start)
        return self.data[start : self.pos]


def _scan_all(tokenizer):
    """Every ``(token, end position)`` up to the first ParseError, and its offset."""
    tokens = []
    while True:
        try:
            tokens.append((tokenizer.token("token"), tokenizer.pos))
        except ParseError as exc:
            return tokens, exc.offset


def _assert_same_scan(data: bytes):
    for comments in (False, True):
        want = _scan_all(_ReferenceTokenizer(data, comments))
        assert _scan_all(netpbm._Tokenizer(data, comments)) == want, (data, comments)


_SEPARATORS = [b" ", b"\n", b"\t", b"\r\n", b"\v", b"\f", b"#", b"# note 12\n", b"#x"]


@pytest.mark.parametrize("token", _TOKENS)
def test_header_scan_matches_the_reference_loop_on_each_token(token):
    for before, after in zip(_SEPARATORS, _SEPARATORS[::-1]):
        _assert_same_scan(token)
        _assert_same_scan(before + token + after + token)
        _assert_same_scan(token + before + b"P5" + after)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_depth_file().map(lambda name_data: name_data[1]),
                 st.lists(st.sampled_from(_TOKENS + _SEPARATORS), max_size=12).map(b"".join)))
def test_header_scan_matches_the_reference_loop_on_fuzzed_headers(data):
    _assert_same_scan(data)
