"""Unified observability: metrics, tracing spans, and run reports.

The paper's argument is quantitative (per-line transitions, table hit
behaviour, hot-loop coverage), so every layer of this repo is
instrumented against one shared substrate:

:mod:`repro.obs.metrics`
    A :class:`MetricsRegistry` of labelled counter / gauge / histogram
    families — cheap enough to stay warm, aggregated in bulk on the
    genuinely hot loops.
:mod:`repro.obs.tracing`
    A :class:`Tracer` of nested wall-clock spans with JSONL emission
    and a no-op mode whose cost is a single attribute check.
:mod:`repro.obs.report`
    The ``RUN_report.json`` writer: registry + spans + provenance
    (git SHA, platform, seed), schema-validated.  Import it from its
    module; the package does not load it, so a run without
    ``--metrics`` never imports ``platform`` or ``subprocess``.

Instrumented call sites share one process-wide state object::

    from repro.obs import OBS

    with OBS.tracer.span("encode.block_solve", line=7):
        ...
    if OBS.enabled:
        OBS.registry.counter("codec.blocks_encoded").inc()

``OBS.enabled`` starts ``False`` (set ``REPRO_OBS=1`` to flip the
default); ``repro <cmd> --metrics`` calls :func:`enable` before the
run and snapshots a report after it.  When disabled, span creation
returns a shared no-op object and counter updates are skipped, so the
codec fast path keeps its PR 1 throughput (guarded by the benchmark
acceptance in ``tests/obs/``).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.tracing import NOOP_SPAN, Span, TraceContext, Tracer, new_run_id

if TYPE_CHECKING:
    from repro.obs.report import RunReport

__all__ = [
    "OBS",
    "enable",
    "disable",
    "reset",
    "collect_report",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Span",
    "TraceContext",
    "Tracer",
    "NOOP_SPAN",
    "new_run_id",
]


class _ObsState:
    """The process-wide observability switchboard.

    Hot paths read :attr:`enabled` (one attribute check) before doing
    any metric work; ``tracer.span`` performs the same check itself so
    ``with OBS.tracer.span(...)`` needs no guard.
    """

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self) -> None:
        self.enabled = bool(os.environ.get("REPRO_OBS"))
        self.registry = MetricsRegistry()
        self.tracer = Tracer(enabled=self.enabled)


OBS = _ObsState()


def enable(jsonl_path: str | None = None) -> _ObsState:
    """Switch metrics + tracing on (optionally streaming span JSONL)."""
    OBS.enabled = True
    OBS.tracer.enabled = True
    if jsonl_path is not None:
        OBS.tracer.open_jsonl(jsonl_path)
    return OBS


def disable() -> _ObsState:
    """Switch observability off (the no-op fast path)."""
    OBS.enabled = False
    OBS.tracer.enabled = False
    OBS.tracer.close_jsonl()
    return OBS


def reset() -> _ObsState:
    """Fresh registry and tracer (new run id); keeps the enabled flag.

    Test isolation hook — also what a long-lived server would call
    between requests batches to start a new accounting window.
    """
    OBS.registry.reset()
    OBS.tracer.close_jsonl()
    OBS.tracer = Tracer(enabled=OBS.enabled)
    return OBS


def collect_report(
    command: str | None = None,
    seed: int | None = None,
    extra: dict | None = None,
) -> RunReport:
    """Snapshot the process-wide state into a
    :class:`~repro.obs.report.RunReport`."""
    from repro.obs.report import RunReport

    return RunReport.collect(
        OBS.registry, OBS.tracer, command=command, seed=seed, extra=extra
    )
