"""Fuzzed eval inputs: every JSONL file either loads exactly as a
line-by-line reference reads it or fails with the same error, and the
command line answers it within its contract: exit 0, 2 or 3, no
traceback, and a failure that prints one error line and writes nothing."""
import json
import math
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from cli_run import assert_contract
from depthkit import evaluation
from depthkit.netpbm import ParseError

CLASSES = ["background", "chair", "table"]


# ----------------------------------------------------- reference loader

def _ref_box(raw, where, offset):
    try:
        corners = tuple(float(raw[k]) for k in ("x1", "y1", "x2", "y2"))
        if not all(math.isfinite(v) for v in corners):
            raise ValueError(f"corners must be finite, got {corners}")
        if not (corners[2] > corners[0] and corners[3] > corners[1]):
            raise ValueError(f"degenerate box {corners}")
    except KeyError as exc:
        raise ParseError(f"{where}: missing box field {exc}", offset) from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: bad box: {exc}", offset) from None
    return corners


def _ref_class(raw, classes, where, offset):
    value = raw.get("class")
    if value is None:
        raise ParseError(f"{where}: missing 'class'", offset)
    if isinstance(value, str):
        if classes is None:
            raise ParseError(f"{where}: class given by name {value!r} but no class table loaded",
                             offset)
        try:
            return classes.index(value)
        except ValueError:
            raise ParseError(f"{where}: unknown class {value!r}", offset) from None
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer()) or value < 0):
        raise ParseError(f"{where}: class id must be a non-negative integer, got {value!r}",
                         offset)
    return int(value)


def _ref_score(raw, where, offset):
    try:
        value = float(raw["score"])
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{where}: score must be a number, got {raw['score']!r}", offset) from None
    if not math.isfinite(value):
        raise ParseError(f"{where}: score must be finite, got {value!r}", offset)
    return value


def _ref_difficult(raw, where, offset):
    value = raw.get("difficult", False)
    if not isinstance(value, bool):
        raise ParseError(f"{where}: difficult must be true or false, got {value!r}", offset)
    return value


def _reference_load(path, kind, classes):
    """Iterate the binary file line by line and ``json.loads`` each
    stripped line; undecodable text is a parse error of its line.  Rows
    are ``(image_id, class_id, score, corners)`` for detections and
    ``(image_id, class_id, corners, difficult)`` for ground truth."""
    out = []
    offset = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if stripped:
                where = f"{path} line {lineno}"
                try:
                    raw = json.loads(stripped)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"{where}: {exc.msg}", offset) from None
                except UnicodeDecodeError as exc:
                    raise ParseError(f"{where}: not valid {exc.encoding} ({exc.reason})",
                                     offset) from None
                if not isinstance(raw, dict):
                    raise ParseError(f"{where}: record must be a JSON object", offset)
                if "image_id" not in raw:
                    raise ParseError(f"{where}: missing 'image_id'", offset)
                if kind == "dets":
                    if "score" not in raw:
                        raise ParseError(f"{where}: missing 'score'", offset)
                    out.append((str(raw["image_id"]), _ref_class(raw, classes, where, offset),
                                _ref_score(raw, where, offset), _ref_box(raw, where, offset)))
                else:
                    out.append((str(raw["image_id"]), _ref_class(raw, classes, where, offset),
                                _ref_box(raw, where, offset), _ref_difficult(raw, where, offset)))
            offset += len(line)
    return out


def _rows(record):
    """A loaded record row by row, laid out as the reference's rows."""
    ids, classes = record.image_id.tolist(), record.class_id.tolist()
    boxes = [tuple(box) for box in record.box.tolist()]
    if isinstance(record, evaluation.DetRecord):
        return list(zip(ids, classes, record.score.tolist(), boxes))
    return list(zip(ids, classes, boxes, record.difficult.tolist()))


def _outcome(load, *args):
    try:
        return load(*args)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.offset)


# ------------------------------------------------------------ strategies

_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2**70),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
)
_ANY = st.recursive(_LEAF, lambda kids: st.lists(kids, max_size=2)
                    | st.dictionaries(st.text(max_size=2), kids, max_size=2), max_leaves=3)
_NUMBER = st.one_of(
    st.floats(0, 200, allow_nan=False), st.integers(0, 200),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), "12.5", "nan", "1e400",
                     10**400, True, None, [1], {"v": 1}]),
)
_CLASS = st.one_of(st.integers(0, 2), st.sampled_from(CLASSES + ["sofa", 1.0, 1.5, -1, 2**70]),
                   _ANY)
_RECORD = st.fixed_dictionaries({}, optional={
    "image_id": st.one_of(st.sampled_from(["a", "b", "é", "\u0000"]), _ANY),
    "class": _CLASS,
    "score": st.one_of(st.floats(0, 1), _NUMBER),
    "x1": _NUMBER, "y1": _NUMBER, "x2": _NUMBER, "y2": _NUMBER,
    "difficult": st.one_of(st.booleans(), _ANY),
})
_VALID = st.fixed_dictionaries({
    "image_id": st.sampled_from(["a", "b"]),
    "class": st.sampled_from([1, 2, 7, "chair", "table"]),
    "score": st.floats(0, 1),
    "x1": st.floats(0, 40), "y1": st.floats(0, 40),
}).map(lambda r: {**r, "x2": r["x1"] + 30.0, "y2": r["y1"] + 25.0})


@st.composite
def _jsonl(draw):
    """Lines of records with blank lines, CRLF ends, BOMs, invalid
    UTF-8, two objects on one line and truncated objects mixed in."""
    out = b""
    for _ in range(draw(st.integers(1, 4))):
        record = json.dumps(draw(st.one_of(_VALID, _VALID, _VALID, _RECORD))).encode()
        shape = draw(st.sampled_from(["plain"] * 6 + ["crlf", "blank", "bom", "badutf8",
                                                      "double", "split", "spaces"]))
        if shape == "crlf":
            record += b"\r"
        elif shape == "blank":
            record = b"  \t\r\n" + record
        elif shape == "bom":
            record = b"\xef\xbb\xbf" + record
        elif shape == "badutf8":
            cut = draw(st.integers(0, len(record)))
            record = record[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) \
                + record[cut:]
        elif shape == "double":
            record += draw(st.sampled_from([b" ", b", "])) + record
        elif shape == "split":
            cut = draw(st.integers(1, len(record) - 1))
            record = record[:cut] + b"\n" + record[cut:]
        elif shape == "spaces":
            record = b" " + record + b" \x0b"
        out += record + b"\n"
    if draw(st.booleans()):
        out = out[:-1]
    return out


def _line_offsets(data):
    offsets = [0]
    for line in data.split(b"\n")[:-1]:
        offsets.append(offsets[-1] + len(line) + 1)
    return offsets


_GTS = (b'{"image_id": "a", "class": 1, "x1": 5, "y1": 5, "x2": 40, "y2": 35}\n'
        b'{"image_id": "b", "class": 2, "x1": 0, "y1": 0, "x2": 30, "y2": 30, "difficult": true}\n')
_DETS = b'{"image_id": "a", "class": 1, "score": 0.9, "x1": 6, "y1": 5, "x2": 40, "y2": 36}\n'


@settings(max_examples=40, deadline=None)
@given(data=_jsonl(), kind=st.sampled_from(["dets", "gts"]), named=st.booleans(),
       metric=st.sampled_from(["voc", "coco", "confusion"]))
def test_fuzzed_records_load_like_the_reference_and_never_crash(tmp_path_factory, data, kind,
                                                               named, metric):
    tmp = tmp_path_factory.mktemp("fuzz")
    fuzzed = tmp / f"{kind}.jsonl"
    fuzzed.write_bytes(data)
    classes = CLASSES if named else None
    load = evaluation.load_detections if kind == "dets" else evaluation.load_groundtruth
    assert _outcome(lambda *a: _rows(load(*a)), str(fuzzed), classes) == \
        _outcome(_reference_load, str(fuzzed), kind, classes)

    other = tmp / ("gts.jsonl" if kind == "dets" else "dets.jsonl")
    other.write_bytes(_GTS if kind == "dets" else _DETS)
    table = tmp / "classes.json"
    table.write_text(json.dumps(CLASSES))
    argv = ["eval", "--metric", metric, "--dets", str(tmp / "dets.jsonl"),
            "--gts", str(tmp / "gts.jsonl"), "--out", str(tmp / "out")]
    if named or metric == "confusion":
        argv += ["--classes", str(table)]
    rc, err = assert_contract(argv)
    if rc == 2:
        found = re.search(rf"{re.escape(str(fuzzed))} line (\d+): .*\(byte offset (\d+)\)$",
                          err.strip())
        assert found, err
        assert _line_offsets(data)[int(found[1]) - 1] == int(found[2]), err
