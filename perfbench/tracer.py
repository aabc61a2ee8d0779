"""Span tracing from outside the program.

The tracer replaces attributes on the program's modules and classes with
wrappers and puts every original back on exit; the package source is
never edited.  Each call into a wrapped function records one span: name,
start, end, parent span, pass id, the caller-set tag, and an optional
``info`` value computed from the call's arguments and result (None when
the call raised).  Parents are tracked per thread, so spans opened on a
worker thread are roots.
Counted functions record no span, only a per-pass call count.

Spans stay in memory until ``dump`` writes them as JSON lines.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

_MISSING = object()


@dataclass(frozen=True)
class Span:
    index: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    tag: str
    thread: int
    info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``getattr(owner, attr)`` becomes a span named
    ``name``.  ``info(args, kwargs, result)`` annotates the span; with
    ``count_only`` the wrapper records a call count instead of a span."""

    owner: Any
    attr: str
    name: str
    info: Callable | None = None
    count_only: bool = False


class Tracer:
    """Patches ``targets`` while active (``with tracer: ...``).

    ``pass_id`` and ``tag`` are read when a span opens, so the caller sets
    them between passes and invocations.
    """

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.pass_id = 0
        self.tag = ""
        self._local = threading.local()
        self._ids = itertools.count()
        self._count_lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            index = next(tracer._ids)
            pass_id, tag = tracer.pass_id, tracer.tag
            stack.append(index)
            result = _MISSING
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                info = None
                if target.info and result is not _MISSING:
                    info = target.info(args, kwargs, result)
                tracer.spans.append(Span(index, target.name, start, end, parent, pass_id,
                                         tag, threading.get_ident(), info))

        return traced

    def _count_wrapper(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with tracer._count_lock:
                tracer.counts[(tracer.pass_id, target.name)] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                # read the class or module dict, not getattr, so that the
                # exact object (function, descriptor) is what goes back
                saved = vars(target.owner).get(target.attr, _MISSING)
                if saved is _MISSING:
                    raise AttributeError(f"{target.owner!r} has no attribute {target.attr!r}")
                fn = getattr(target.owner, target.attr)
                make = self._count_wrapper if target.count_only else self._span_wrapper
                setattr(target.owner, target.attr, make(target, fn))
                self._saved.append((target.owner, target.attr, saved))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "index": s.index, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "pass": s.pass_id, "tag": s.tag,
                    "thread": s.thread, "info": s.info,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {s.index: s.duration - covered(children.get(s.index, []), s.start, s.end)
            for s in spans}


def covered(spans: list[Span], lo: float, hi: float) -> float:
    """Length of the union of the spans' intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for s in sorted(spans, key=lambda s: s.start):
        start, end = max(s.start, reach), min(s.end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
