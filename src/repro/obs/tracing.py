"""Span-based wall-clock tracing with JSONL emission.

A span measures one named region of work::

    with tracer.span("encode.block_solve", line=7):
        ...

Spans nest: each carries its parent's id and a depth, so the flow's
phase breakdown (``flow.run`` > ``flow.encode`` > ...) reconstructs as
a tree.  Every span records a monotonic start/duration pair plus an
epoch timestamp, and is tagged with the tracer's process-wide
``run_id`` so events from one run correlate across files.

Disabled tracers cost a single attribute check per call:
:meth:`Tracer.span` returns the shared :data:`NOOP_SPAN` singleton
without allocating anything.  ``tests/obs/test_tracing.py`` guards
this property.

With ``jsonl_path`` set, every finished span appends one JSON line
(``{"event": "span", ...}``) to the file — the machine-readable trace
log the ``repro trace`` subcommand and external tooling consume.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import IO

__all__ = ["Span", "TraceContext", "Tracer", "NOOP_SPAN", "new_run_id"]

#: Retained finished spans per tracer; older spans beyond the cap are
#: dropped (counted in :attr:`Tracer.spans_dropped`) so week-long runs
#: cannot exhaust memory.
DEFAULT_MAX_SPANS = 65536


def new_run_id() -> str:
    """A short process-unique run identifier."""
    return os.urandom(6).hex()


class _NoopSpan:
    """Shared do-nothing context manager for disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> None:
        """Accept (and discard) late attributes."""

    @property
    def duration(self) -> float:
        return 0.0


NOOP_SPAN = _NoopSpan()


class Span:
    """One timed region; use as a context manager via :meth:`Tracer.span`."""

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "trace_id",
        "depth",
        "start_unix",
        "_tracer",
        "_start",
        "duration",
        "status",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: dict,
        parent_id: str | None,
        depth: int,
        trace_id: str | None = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = os.urandom(6).hex()
        self.parent_id = parent_id
        self.trace_id = trace_id or tracer.run_id
        self.depth = depth
        self.start_unix = time.time()
        self.duration = 0.0
        self.status = "ok"
        self._start = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (counts, sizes)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._start
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)
        return None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "depth": self.depth,
            "start_unix": self.start_unix,
            "duration_s": self.duration,
            "status": self.status,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, tracer: "Tracer", data: dict) -> "Span | None":
        """Rebuild a finished span from :meth:`to_dict` output,
        preserving its identity (ids, depth, timing) so a span that
        crossed a process boundary still stitches under its parent."""
        name = data.get("name")
        span_id = data.get("span_id")
        if not isinstance(name, str) or not isinstance(span_id, str):
            return None
        span = cls.__new__(cls)
        span._tracer = tracer
        span.name = name
        span.span_id = span_id
        parent = data.get("parent_id")
        span.parent_id = parent if isinstance(parent, str) else None
        trace = data.get("trace_id")
        span.trace_id = trace if isinstance(trace, str) else tracer.run_id
        depth = data.get("depth")
        span.depth = depth if isinstance(depth, int) and depth >= 0 else 0
        start = data.get("start_unix")
        span.start_unix = float(start) if isinstance(start, (int, float)) else 0.0
        duration = data.get("duration_s")
        span.duration = (
            float(duration) if isinstance(duration, (int, float)) else 0.0
        )
        status = data.get("status")
        span.status = status if isinstance(status, str) else "ok"
        attrs = data.get("attrs")
        span.attrs = dict(attrs) if isinstance(attrs, dict) else {}
        span._start = 0.0
        return span


@dataclass(frozen=True)
class TraceContext:
    """The serializable identity of an open span, carried across a
    process boundary so remote work stitches under it.

    ``to_wire``/``from_wire`` round-trip through plain JSON-safe dicts;
    ``from_wire`` answers ``None`` for anything malformed — a junk
    envelope must degrade to "no propagation", never to an exception
    on the serve path.
    """

    trace_id: str
    span_id: str
    depth: int = 0
    tenant: str = ""
    job_id: str = ""

    def to_wire(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "depth": self.depth,
            "tenant": self.tenant,
            "job_id": self.job_id,
        }

    @classmethod
    def from_wire(cls, wire: object) -> "TraceContext | None":
        if not isinstance(wire, dict):
            return None
        trace_id = wire.get("trace_id")
        span_id = wire.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        if not trace_id or not span_id:
            return None
        depth = wire.get("depth")
        return cls(
            trace_id=trace_id,
            span_id=span_id,
            depth=depth if isinstance(depth, int) and depth >= 0 else 0,
            tenant=str(wire.get("tenant", "") or ""),
            job_id=str(wire.get("job_id", "") or ""),
        )


class _RemoteAnchor:
    """A stack placeholder impersonating a span that lives in another
    process: it has just enough surface (``span_id``, ``depth``,
    ``trace_id``) for :meth:`Tracer.span` to parent new spans under it."""

    __slots__ = ("span_id", "depth", "trace_id")

    def __init__(self, ctx: TraceContext) -> None:
        self.span_id = ctx.span_id
        self.depth = ctx.depth
        self.trace_id = ctx.trace_id


class Tracer:
    """Collects nested spans; one instance per process by default.

    The span stack is thread-local so concurrent threads each see
    their own nesting; the finished-span list and JSONL stream are
    shared (append is atomic under the GIL, and the JSONL file is
    written one complete line at a time).
    """

    def __init__(
        self,
        enabled: bool = False,
        max_spans: int = DEFAULT_MAX_SPANS,
        run_id: str | None = None,
    ) -> None:
        self.enabled = enabled
        self.run_id = run_id or new_run_id()
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.spans_dropped = 0
        self._local = threading.local()
        self._jsonl: IO[str] | None = None
        self._jsonl_lock = threading.Lock()

    # ------------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs):
        """Open a span (or return :data:`NOOP_SPAN` when disabled)."""
        if not self.enabled:
            return NOOP_SPAN
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            self,
            name,
            attrs,
            parent.span_id if parent else None,
            parent.depth + 1 if parent else 0,
            parent.trace_id if parent else None,
        )
        stack.append(span)
        return span

    def begin(self, name: str, **attrs) -> Span | None:
        """Open a *detached* span: timed and recorded like any other,
        but never pushed on the thread-local stack.

        This is the span shape for cooperatively-scheduled work — an
        asyncio server interleaves many jobs on one thread, so stack
        nesting would attribute children to whichever job happens to
        be mid-await.  Close with :meth:`end`.  Returns ``None`` when
        disabled (callers guard, the same as a falsy check on
        :data:`NOOP_SPAN` would not be)."""
        if not self.enabled:
            return None
        span = Span(self, name, attrs, None, 0)
        span._start = time.perf_counter()
        return span

    def end(self, span: Span | None, status: str | None = None) -> None:
        """Finish a span opened with :meth:`begin`."""
        if span is None:
            return
        span.duration = time.perf_counter() - span._start
        if status is not None:
            span.status = status
        self._finish(span)

    def context(
        self, span: Span, tenant: str = "", job_id: str = ""
    ) -> TraceContext:
        """The wire-serializable :class:`TraceContext` for ``span``."""
        return TraceContext(
            trace_id=span.trace_id,
            span_id=span.span_id,
            depth=span.depth,
            tenant=tenant,
            job_id=job_id,
        )

    def push_remote(self, ctx: TraceContext) -> _RemoteAnchor:
        """Anchor this thread's span stack under a remote parent: until
        the matching :meth:`pop_remote`, new spans parent under
        ``ctx.span_id`` and inherit its trace id."""
        anchor = _RemoteAnchor(ctx)
        self._stack().append(anchor)
        return anchor

    def pop_remote(self, anchor: _RemoteAnchor) -> None:
        stack = self._stack()
        if anchor in stack:
            # Unwind to (and including) the anchor; anything above it
            # is an unclosed span abandoned by an error path.
            while stack:
                if stack.pop() is anchor:
                    break

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if len(self.spans) >= self.max_spans:
            # Drop the *oldest* retained span: recent activity is what
            # reports and `repro trace` care about.
            self.spans.pop(0)
            self.spans_dropped += 1
        self.spans.append(span)
        if self._jsonl is not None:
            self._emit({"event": "span", "run_id": self.run_id, **span.to_dict()})

    # ------------------------------------------------------------------
    # JSONL stream
    # ------------------------------------------------------------------

    def _emit(self, event: dict) -> None:
        with self._jsonl_lock:
            if self._jsonl is None:
                return
            self._jsonl.write(json.dumps(event) + "\n")
            self._jsonl.flush()

    def open_jsonl(self, path) -> None:
        """Start appending span events to ``path`` (one JSON per line)."""
        self.close_jsonl()
        self._jsonl = open(path, "a")
        self._emit(
            {
                "event": "run_start",
                "run_id": self.run_id,
                "start_unix": time.time(),
            }
        )

    def close_jsonl(self) -> None:
        with self._jsonl_lock:
            if self._jsonl is not None:
                self._jsonl.close()
                self._jsonl = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def slowest(self, n: int = 10) -> list[Span]:
        return sorted(self.spans, key=lambda s: s.duration, reverse=True)[:n]

    def aggregate(self) -> dict[str, dict]:
        """Per-name totals: ``{name: {count, total_s, min_s, max_s}}``."""
        table: dict[str, dict] = {}
        for span in self.spans:
            row = table.get(span.name)
            if row is None:
                table[span.name] = {
                    "count": 1,
                    "total_s": span.duration,
                    "min_s": span.duration,
                    "max_s": span.duration,
                }
            else:
                row["count"] += 1
                row["total_s"] += span.duration
                row["min_s"] = min(row["min_s"], span.duration)
                row["max_s"] = max(row["max_s"], span.duration)
        return table

    def export_spans(self, limit: int = 128) -> list[dict]:
        """The last ``limit`` finished spans as JSON-ready dicts — the
        span half of a worker's telemetry delta."""
        return [span.to_dict() for span in self.spans[-limit:]]

    def adopt_spans(self, span_dicts: object) -> int:
        """Absorb spans exported by another process's tracer.

        Identities (span/parent/trace ids, depth, timing) are kept
        verbatim so the adopted spans stitch under whatever local span
        issued their :class:`TraceContext`.  Malformed entries are
        skipped; returns the number adopted."""
        if not isinstance(span_dicts, list):
            return 0
        adopted = 0
        for data in span_dicts:
            if not isinstance(data, dict):
                continue
            span = Span.from_dict(self, data)
            if span is None:
                continue
            self._finish(span)
            adopted += 1
        return adopted

    def snapshot(self) -> dict:
        """JSON-ready view: aggregates plus every retained span."""
        return {
            "run_id": self.run_id,
            "spans_recorded": len(self.spans) + self.spans_dropped,
            "spans_dropped": self.spans_dropped,
            "by_name": self.aggregate(),
            "spans": [span.to_dict() for span in self.spans],
        }

    def reset(self) -> None:
        """Drop retained spans and the nesting stack; keep the run id."""
        self.spans = []
        self.spans_dropped = 0
        self._local = threading.local()
