"""The shared campaign runner: fan-out, downgrade, serial path."""

import json
import warnings
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

import pytest

import repro.obs as obs
from repro.obs import OBS
from repro.runtime import pool as pool_module
from repro.runtime.pool import BREAKER_THRESHOLD, run_tasks


def _square(task: int) -> int:
    return task * task


def _counted_square(task: int) -> int:
    OBS.registry.counter("test.worker_calls").inc()
    return task * task


def _traced_square(task: int) -> int:
    with OBS.tracer.span("test.worker_span", task=task):
        return task * task


class _FakeFuture:
    def __init__(self, outcome):
        self._outcome = outcome

    def result(self, timeout=None):
        if isinstance(self._outcome, BaseException):
            raise self._outcome
        return self._outcome


def _fake_pool(outcome_for):
    """A ProcessPoolExecutor stand-in whose futures resolve to
    ``outcome_for(task)`` (a value or an exception to raise)."""

    class _Pool:
        instances: list["_Pool"] = []

        def __init__(self, *args, **kwargs):
            self.shutdowns: list[tuple[bool, bool]] = []
            _Pool.instances.append(self)

        def submit(self, fn, worker, task):
            outcome = outcome_for(task)
            if isinstance(outcome, BaseException):
                return _FakeFuture(outcome)
            return _FakeFuture((outcome, None))

        def shutdown(self, wait=True, cancel_futures=False):
            self.shutdowns.append((wait, cancel_futures))

    return _Pool


def _run(tasks, workers=2, **kwargs):
    serial_calls: list[int] = []

    def serial(task):
        serial_calls.append(task)
        return _square(task)

    results = run_tasks(
        tasks,
        _square,
        serial,
        workers=workers,
        timeout=1.0,
        prefix="test",
        noun="item",
        **kwargs,
    )
    return results, serial_calls


class TestDowngrade:
    def test_broken_pool_downgrades_and_finishes_in_order(self, monkeypatch):
        tasks = list(range(6))
        pool = _fake_pool(
            lambda task: BrokenExecutor("died") if task == 2 else task * task
        )
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", pool)
        with pytest.warns(RuntimeWarning, match="remaining 4 item"):
            results, serial_calls = _run(tasks)
        assert results == [task * task for task in tasks]
        assert serial_calls == [2, 3, 4, 5]
        # Torn down without waiting on a possibly wedged worker.
        assert pool.instances[0].shutdowns == [(False, True)]

    def test_consecutive_timeouts_trip_the_breaker(self, monkeypatch):
        tasks = list(range(BREAKER_THRESHOLD + 2))
        pool = _fake_pool(lambda task: FutureTimeoutError())
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", pool)
        obs.enable()
        obs.reset()
        try:
            with pytest.warns(RuntimeWarning, match="circuit breaker"):
                results, serial_calls = _run(tasks)
            registry = OBS.registry
            timeouts = registry.counter("test.item_timeouts").value
            downgrades = registry.counter("test.pool_downgrades").value
        finally:
            obs.disable()
            obs.reset()
        assert results == [task * task for task in tasks]
        # Each timed-out task re-runs serially; after the trip the rest
        # never touch the pool again.
        assert serial_calls == tasks
        assert timeouts == BREAKER_THRESHOLD
        assert downgrades == 1
        assert pool.instances[0].shutdowns == [(False, True)]

    def test_a_success_resets_the_timeout_streak(self, monkeypatch):
        tasks = list(range(2 * BREAKER_THRESHOLD))
        pool = _fake_pool(
            lambda task: task * task if task % 2 else FutureTimeoutError()
        )
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", pool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no downgrade expected
            results, serial_calls = _run(tasks)
        assert results == [task * task for task in tasks]
        assert serial_calls == [task for task in tasks if task % 2 == 0]


class TestSerialPath:
    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_no_pool_is_built(self, monkeypatch, workers):
        def _no_pool(*args, **kwargs):
            raise AssertionError("a serial run must not build a pool")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _no_pool)
        results, serial_calls = _run([3, 1, 2], workers=workers)
        assert results == [9, 1, 4]
        assert serial_calls == [3, 1, 2]


class TestRealPool:
    def test_worker_telemetry_reaches_the_parent(self):
        obs.enable()
        obs.reset()
        try:
            results = run_tasks(
                list(range(4)),
                _counted_square,
                _counted_square,
                workers=2,
                timeout=60.0,
                prefix="test",
                noun="item",
            )
            calls = OBS.registry.counter("test.worker_calls").value
        finally:
            obs.disable()
            obs.reset()
        assert results == [0, 1, 4, 9]
        assert calls == 4

    def test_worker_spans_reach_the_trace_stream(self, tmp_path):
        trace = tmp_path / "spans.jsonl"
        obs.reset()
        obs.enable(jsonl_path=str(trace))
        try:
            run_tasks(
                list(range(4)),
                _traced_square,
                _traced_square,
                workers=2,
                timeout=60.0,
                prefix="test",
                noun="item",
            )
        finally:
            obs.disable()
            obs.reset()
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        tasks = sorted(
            event["attrs"]["task"]
            for event in events
            if event.get("name") == "test.worker_span"
        )
        assert tasks == [0, 1, 2, 3]
