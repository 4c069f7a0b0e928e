"""The one campaign runner: an ordered task list over a process pool.

:func:`run_tasks` is the loop the fault campaign (one task per case)
and the verify campaign (one task per chunk of cases) share.  Each
task gets a future bounded by ``timeout``; a timed-out task counts
``<prefix>.<noun>_timeouts`` and re-runs in-process through
``serial``.  Timeouts and pool breaks (``<prefix>.pool_breaks``) feed
a :class:`~repro.runtime.CircuitBreaker`; a trip or a break tears the
pool down without waiting, warns, counts ``<prefix>.pool_downgrades``
and finishes the remaining tasks serially instead of failing the run.
Every worker call ships its process-local metrics back as an
``export_delta`` the parent merges, so ``--workers N --metrics``
reports what a serial run does.  With ``workers <= 1`` no pool is
built.
"""

from __future__ import annotations

import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, Sequence, TypeVar

from repro.obs import OBS
from repro.runtime.retry import CircuitBreaker

T = TypeVar("T")
R = TypeVar("R")

#: Consecutive worker failures (timeouts, pool breaks) before the
#: breaker downgrades the rest of a run to serial execution.
BREAKER_THRESHOLD = 3


def _call_with_delta(
    worker: Callable[[T], R], task: T
) -> tuple[R, dict | None]:
    """Pool entry point: the worker's result plus (when instrumented)
    the metrics it recorded, which would otherwise die with it.  Only
    the registry is reset: the tracer keeps the span stream the worker
    inherited, so ``--trace-jsonl`` sees worker spans too."""
    capture = OBS.enabled
    if capture:
        OBS.registry.reset()
    result = worker(task)
    return result, OBS.registry.export_delta() if capture else None


def _count(name: str, help: str) -> None:
    if OBS.enabled:
        OBS.registry.counter(name, help).inc()


def run_tasks(
    tasks: Sequence[T],
    worker: Callable[[T], R],
    serial: Callable[[T], R],
    *,
    workers: int | None,
    timeout: float,
    prefix: str,
    noun: str,
    initializer: Callable[..., Any] | None = None,
    initargs: tuple = (),
) -> list[R]:
    """Results of ``tasks`` in task order.

    ``worker`` runs in a pool process after ``initializer(*initargs)``
    and must be picklable; ``serial`` runs here and must compute the
    same result."""
    results: dict[int, R] = {}

    if workers and workers > 1:
        breaker = CircuitBreaker(threshold=BREAKER_THRESHOLD)
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=initializer, initargs=initargs
        )
        downgrade: str | None = None
        try:
            futures = [
                pool.submit(_call_with_delta, worker, task) for task in tasks
            ]
            for index, future in enumerate(futures):
                try:
                    result, delta = future.result(timeout=timeout)
                    if OBS.enabled and delta is not None:
                        OBS.registry.merge_delta(delta)
                    breaker.record_success()
                    results[index] = result
                except FutureTimeoutError:
                    _count(
                        f"{prefix}.{noun}_timeouts",
                        f"{noun}s killed by the per-{noun} timeout",
                    )
                    results[index] = serial(tasks[index])
                    if breaker.record_failure():
                        downgrade = (
                            f"{breaker.consecutive_failures} consecutive "
                            f"{noun} timeout(s) tripped the circuit breaker"
                        )
                except BrokenExecutor as err:
                    _count(f"{prefix}.pool_breaks", "worker pools that died")
                    breaker.record_failure()
                    downgrade = f"worker pool broke: {err!r}"
                if downgrade is not None:
                    break
        finally:
            # Never block the run on a wedged worker.
            pool.shutdown(wait=downgrade is None, cancel_futures=True)
        if downgrade is not None:
            _count(
                f"{prefix}.pool_downgrades",
                "runs downgraded from parallel to serial",
            )
            warnings.warn(
                f"{prefix} campaign: {downgrade}; finishing the remaining "
                f"{len(tasks) - len(results)} {noun}(s) serially",
                RuntimeWarning,
                stacklevel=2,
            )
    # The serial path: every task of a pool-less run, or whatever a
    # downgraded pool left unfinished.
    for index, task in enumerate(tasks):
        if index not in results:
            results[index] = serial(task)
    return [results[index] for index in range(len(tasks))]
