"""Resilient-execution primitives for long campaigns.

The fault-injection campaign (``repro faults``) and the encoding
service (``repro serve``) run thousands of seeded cases or jobs, the
campaign across a process pool; a flaky worker, a hung case or a
mid-run SIGKILL used to cost the whole run.  This package holds the
harness-independent pieces:

``retry``
    Exponential backoff with deterministic (seeded) jitter, plus a
    circuit breaker that downgrades a pool to serial execution after
    N consecutive worker failures.
``checkpoint``
    A JSONL write-ahead log of completed cases so an interrupted
    campaign resumes where it stopped, and atomic artifact writes
    (tmp + fsync + ``os.replace``) so a crash can never leave a
    truncated JSON report.
``pool``
    The one campaign runner (:func:`run_tasks`): an ordered task list
    over a process pool with per-task timeouts, a breaker-driven
    downgrade to serial, and worker telemetry merged into the parent.
``deadline``
    Per-task wall-clock deadlines that work in the serial path too
    (SIGALRM on a Unix main thread, a watchdog join elsewhere).
``storage_faults``
    The storage VFS every durability syscall routes through, plus the
    seeded fault-injection shim (EIO / ENOSPC / torn appends / crash
    around rename) the crash-consistency checker drives.
"""

from repro.runtime.checkpoint import (
    CheckpointLockError,
    CheckpointLog,
    CheckpointMismatchError,
    atomic_write_text,
)
from repro.runtime.storage_faults import (
    FaultPlan,
    FaultSpec,
    FaultyVFS,
    SimulatedCrash,
    StorageVFS,
    active_vfs,
    get_vfs,
    install_vfs,
)
from repro.runtime.deadline import DeadlineExceeded, run_with_deadline
from repro.runtime.retry import (
    BackoffPolicy,
    CircuitBreaker,
    retry_call,
    retry_call_async,
)
from repro.runtime.pool import run_tasks

__all__ = [
    "atomic_write_text",
    "CheckpointLockError",
    "CheckpointLog",
    "CheckpointMismatchError",
    "BackoffPolicy",
    "CircuitBreaker",
    "retry_call",
    "retry_call_async",
    "DeadlineExceeded",
    "run_with_deadline",
    "run_tasks",
    "FaultPlan",
    "FaultSpec",
    "FaultyVFS",
    "SimulatedCrash",
    "StorageVFS",
    "active_vfs",
    "get_vfs",
    "install_vfs",
]
