"""The outside tracer records nested spans per thread and leaves the
program's modules exactly as it found them."""
import contextlib
import io
import time

import numpy as np
import pytest

import corpus
import layers
from tracer import Span, Target, Tracer, covered, self_times


def _attributes(targets):
    return [vars(t.owner)[t.attr] for t in targets]


def test_attributes_come_back_as_found():
    targets = layers.targets()
    before = _attributes(targets)
    with Tracer(targets):
        during = _attributes(targets)
    after = _attributes(targets)
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))


def test_attributes_restored_when_the_traced_code_raises():
    targets = layers.targets()
    before = _attributes(targets)
    with pytest.raises(RuntimeError):
        with Tracer(targets):
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(before, _attributes(targets)))


def test_unknown_attribute_restores_the_ones_already_patched():
    targets = layers.targets()
    before = _attributes(targets)
    bad = targets + [type(targets[0])(targets[0].owner, "no_such_function", "x")]
    with pytest.raises(AttributeError):
        with Tracer(bad):
            pass
    assert all(a is b for a, b in zip(before, _attributes(targets)))


def _tiny_scenes(directory, count):
    paths = []
    rows, cols = np.mgrid[0:24, 0:32]
    for i in range(count):
        depth = (2.0 + 0.01 * rows + 0.02 * cols + 0.1 * i).astype(np.float32)
        depth[3, 4 + i] = np.nan
        path = str(directory / f"tiny_{i}.pfm")
        corpus.write_pfm(path, depth)
        paths.append(path)
    cam = str(directory / "cam.json")
    corpus.write_camera(cam)
    return paths, cam


def test_encode_spans_nest_per_thread_and_count_hdha_twice(tmp_path, monkeypatch):
    from depthkit import cli
    monkeypatch.setenv("DEPTHKIT_THREADS", "2")
    scenes, cam = _tiny_scenes(tmp_path, 2)
    out = tmp_path / "out"
    tracer = Tracer(layers.targets())
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        tracer.tag = "encode:hdha"
        start = time.perf_counter()
        assert cli.main(["encode", *scenes, "--mode", "hdha", "--intrinsics", cam,
                         "--stats", str(out / "stats.json"), "--out", str(out)]) == 0
        end = time.perf_counter()
    spans = {s.index: s for s in tracer.spans}
    for s in spans.values():
        if s.parent is not None:
            parent = spans[s.parent]
            assert parent.thread == s.thread
            assert parent.start <= s.start <= s.end <= parent.end
    per_file = [s for s in spans.values() if s.name == "cli.encode_one"]
    assert len(per_file) == 2 and all(s.parent is None for s in per_file)
    m = layers.pass_metrics(list(spans.values()), 0, (start, end))
    assert m["geometry.hdha_calls_per_map"] == 2.0
    assert m["geometry.normals_calls"] == 4.0
    assert m["netpbm.write_mib"] > 0 and m["cli.self_s"] >= 0
    assert set(m) == {name for name, _, _ in layers.METRICS} - {layers.OVERHEAD[0]}


def test_iou_is_counted_per_pass_without_spans(tmp_path):
    from depthkit import cli
    corpus.write_detection_corpus(str(tmp_path), 0, n_images=4, n_classes=5)
    argv = ["eval", "--metric", "voc", "--dets", str(tmp_path / "dets_a.jsonl"),
            "--gts", str(tmp_path / "gts.jsonl"), "--out", str(tmp_path / "out")]
    tracer = Tracer(layers.targets())
    with contextlib.redirect_stdout(io.StringIO()):
        for pass_id in (0, 1):
            tracer.pass_id = pass_id
            with tracer:
                assert cli.main(argv) == 0
    assert tracer.counts[(0, "evaluation.iou")] > 0
    assert tracer.counts[(0, "evaluation.iou")] == tracer.counts[(1, "evaluation.iou")]
    assert not any(s.name == "evaluation.iou" for s in tracer.spans)


def test_a_call_that_raises_still_records_its_span():
    class Owner:
        @staticmethod
        def outer(fail):
            return Owner.inner(fail)

        @staticmethod
        def inner(fail):
            if fail:
                raise ValueError("bad input")
            return 3

    tracer = Tracer([Target(Owner, "outer", "outer", lambda a, k, r: r),
                     Target(Owner, "inner", "inner", lambda a, k, r: r)])
    with tracer:
        assert Owner.outer(False) == 3
        with pytest.raises(ValueError):
            Owner.outer(True)
    names = [(s.name, s.info) for s in tracer.spans]
    assert names == [("inner", 3), ("outer", 3), ("inner", None), ("outer", None)]
    inner, outer = tracer.spans[2:]
    assert inner.parent == outer.index and outer.parent is None


def _span(index, start, end, parent=None):
    return Span(index, f"s{index}", start, end, parent, 0, "", 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 4.0, 0), _span(2, 3.0, 5.0, 0),
             _span(3, 7.0, 8.0, 0)]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(3.0)
    assert covered(spans[1:], 2.0, 7.5) == pytest.approx(3.0 + 0.5)
