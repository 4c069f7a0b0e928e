"""In-memory spans, binding patches and the statistics built on them.

Spans are recorded from outside the program: :class:`Patcher` replaces
a public function at the binding its caller looks it up through (a
module global such as ``repro.pipeline.flow.encode_basic_blocks``, or a
class attribute such as ``FetchDecoder.decode_trace``) with a wrapper
that opens a span around the original.  :meth:`Patcher.restore` puts
back the exact object that was there, so an untraced run after a traced
one measures the unpatched program.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    #: work counts recorded at the boundary (blocks, words, ...)
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans kept in memory; parents follow the call stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), parent=parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def add(self, name: str, start: float, end: float, **counts) -> Span:
        """Record a finished span outside the call stack: for work that
        interleaves on an event loop, where the stack would lie."""
        span = Span(len(self.spans), name, start, end, counts=counts)
        self.spans.append(span)
        return span

    def to_json(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s in self.spans
        ]


def covered_length(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - covered_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def nearest_rank(values: Iterable[float], percent: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``percent`` % of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 < percent <= 100:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


CountFn = Callable[[tuple, dict, object], dict]


class Patcher:
    """Wrap attributes with span-recording twins; restore them exactly."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        #: (owner, attribute, had its own entry, the raw entry)
        self._saved: list[tuple[object, str, bool, object]] = []

    def wrap(
        self, owner: object, attr: str, span_name: str, count: CountFn | None = None
    ) -> None:
        own = vars(owner)
        had_own = attr in own
        raw = own[attr] if had_own else inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrapper(raw.__func__, span_name, count))
        else:
            replacement = self._wrapper(raw, span_name, count)
        self._saved.append((owner, attr, had_own, raw))
        setattr(owner, attr, replacement)

    def _wrapper(self, func: Callable, span_name: str, count: CountFn | None):
        recorder = self.recorder

        def traced(*args, **kwargs):
            span = recorder.begin(span_name)
            try:
                result = func(*args, **kwargs)
            finally:
                recorder.end(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", span_name)
        return traced

    def restore(self) -> None:
        while self._saved:
            owner, attr, had_own, raw = self._saved.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
