"""Encoding-as-a-service: the asyncio multi-tenant front-end.

The batch CLI runs one workload at a time; ``repro serve`` turns the
same pipeline into a long-lived service that accepts encode / deploy /
decode-verify jobs from many concurrent tenants and fans the codec
work out over a process pool — with robustness as the design center:

* **admission control** — the queue has a bounded depth; a full queue
  sheds the job with an explicit retry-after instead of degrading
  everyone silently (:mod:`repro.serve.server`);
* **deadlines** — every job carries a per-tenant wall-clock budget
  enforced by :mod:`repro.runtime.deadline` inside the worker and
  backstopped by the event loop;
* **fault isolation** — a crashed worker breaks only its own attempt:
  the pool is rebuilt, the job retried with seeded backoff, and a
  failure streak trips the :class:`~repro.runtime.CircuitBreaker`
  into a serial fallback path that half-open-probes its way back;
* **crash-identical resume** — every final job result journals
  through the :class:`~repro.runtime.CheckpointLog` WAL, so a server
  SIGKILLed mid-queue and restarted with ``--resume`` replays to
  byte-identical results (the PR-4 campaign pattern, generalized to a
  live queue).

Jobs enter through :meth:`EncodingServer.submit` (or
:meth:`EncodingServer.run_batch`, which adds shed backpressure).
:mod:`repro.serve.selftest` is the chaos/load harness behind
``repro serve --selftest``.  See ``docs/serving.md``.
"""

from repro.serve.jobs import (
    JOB_KINDS,
    OUTCOMES,
    JobRequest,
    JobValidationError,
    parse_request,
)
from repro.serve.selftest import SelftestOptions, run_selftest
from repro.serve.server import EncodingServer, ServeConfig

__all__ = [
    "JOB_KINDS",
    "OUTCOMES",
    "JobRequest",
    "JobValidationError",
    "parse_request",
    "EncodingServer",
    "ServeConfig",
    "SelftestOptions",
    "run_selftest",
]
