"""The asyncio encoding server: admission, dispatch, degradation, WAL.

One :class:`EncodingServer` owns four pieces of machinery:

* a **bounded queue** (``queue_depth``) between admission and
  dispatch — when it is full, :meth:`submit` sheds the job with an
  explicit ``retry_after_s`` instead of queueing unboundedly or
  slowing everyone down (load is shed loudly, never silently);
* one forked **codec worker per dispatcher**, on its own pipe read by
  the event loop, each attempt bounded by the job's own deadline
  (enforced in-worker, backstopped by ``asyncio.wait_for``);
* a **circuit breaker + retry loop** around each attempt: a crashed or
  wedged worker is killed and replaced alone, the job retried with
  seeded backoff; a failure streak opens the breaker and routes jobs
  through a serial in-process fallback until a half-open probe heals it;
* a **write-ahead log** (:class:`~repro.runtime.CheckpointLog`) of
  final results in deterministic form — a server killed mid-queue and
  restarted with ``resume=True`` answers finished jobs from the WAL,
  byte-identically, before any new work is admitted.

The invariant tying it together: *nothing on the failure path can
change a job's final result* — crashes and stalls change which path a
job takes, never what it returns.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.errors import StorageError, StorageFullError
from repro.obs import OBS
from repro.runtime import (
    BackoffPolicy,
    CheckpointLog,
    CircuitBreaker,
    retry_call_async,
)
from repro.serve.jobs import (
    JobRequest,
    JobValidationError,
    deterministic_result,
    fallback_identity,
    make_result,
    parse_request,
)
from repro.serve.worker import pool_worker_main, serial_execute

#: Metric families the server guarantees exist after a run (the
#: ``repro metrics --check --expect serve`` gate).
SERVE_METRIC_FAMILIES = (
    ("serve.jobs_accepted", "counter", "jobs admitted to the queue"),
    ("serve.jobs_completed", "counter", "jobs finished, by outcome"),
    ("serve.jobs_shed", "counter", "jobs refused: queue at depth limit"),
    ("serve.jobs_retried", "counter", "attempt retries after worker trouble"),
    (
        "serve.jobs_deadline_exceeded",
        "counter",
        "jobs that ran out of their wall-clock budget",
    ),
    ("serve.queue_depth", "gauge", "jobs waiting for a dispatcher"),
    ("serve.job_seconds", "histogram", "admission-to-completion latency"),
    (
        "serve.telemetry_deltas_merged",
        "counter",
        "worker telemetry deltas folded into the server registry",
    ),
    (
        "serve.worker_spans_adopted",
        "counter",
        "worker spans stitched into the server trace",
    ),
    ("serve.pool_rebuilds", "counter", "pool workers replaced"),
    (
        "serve.storage_degraded",
        "counter",
        "transitions to memory-only journaling on a full WAL device",
    ),
)


@dataclass
class ServeConfig:
    """Service tuning knobs.

    Only ``seed`` and ``batch_key`` enter the WAL ``run_key``:
    execution knobs (workers, queue depth, retries) may differ between
    a run and its resume without invalidating the journal — the same
    rule the fault campaign established in PR 4.
    """

    workers: int = 2
    queue_depth: int = 32
    default_deadline_s: float = 30.0
    #: Extra slack the event-loop backstop allows past the in-worker
    #: deadline before declaring the worker hung.
    deadline_grace_s: float = 2.0
    #: How many pool breakages one job will ride out before it stops
    #: waiting for a healthy pool and runs on the serial path.  A
    #: break is *infrastructure* failing, not the job, so it has its
    #: own budget and does not consume ``backoff.max_attempts``.
    pool_break_retries: int = 10
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 2.0
    seed: int = 0
    #: Shared on-disk bundle-cache directory (warm-starts fresh
    #: workers and resumed servers); ``None`` = memory-only caches.
    cache_dir: str | None = None
    wal_path: str | None = None
    resume: bool = False
    #: Caller-supplied batch identity folded into the WAL run key
    #: (the selftest passes a digest of its generation parameters).
    batch_key: str = ""
    #: Retry delays, and in ``max_attempts`` the one retry budget a job
    #: has for failures of its own.
    backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(
            base=0.02, factor=2.0, cap=0.25, max_attempts=4
        )
    )

    def run_key(self) -> str:
        identity = json.dumps(
            {"serve_wal": 1, "seed": self.seed, "batch": self.batch_key},
            sort_keys=True,
        )
        return "serve:" + hashlib.sha256(identity.encode()).hexdigest()[:16]


@dataclass
class _QueuedJob:
    request: JobRequest
    future: asyncio.Future
    admitted_at: float


class EncodingServer:
    """See the module docstring; use as ``async with EncodingServer(cfg)``."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        if self.config.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.config.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self._queue: asyncio.Queue[_QueuedJob] | None = None
        self._dispatchers: list[asyncio.Task] = []
        #: (process, pipe end) per dispatcher slot; None once retired.
        self._workers: list[tuple | None] = []
        self._breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        self._wal: CheckpointLog | None = None
        self._started = False
        #: Plain operational counters, kept independently of the obs
        #: switch so the selftest's ``ops`` block exists without
        #: --metrics.
        self.stats = {
            "accepted": 0,
            "completed": 0,
            "shed": 0,
            "retried": 0,
            "deadline_exceeded": 0,
            "malformed": 0,
            "errors": 0,
            "replayed": 0,
            "pool_rebuilds": 0,
            "serial_fallbacks": 0,
            "breaker_opens": 0,
            "storage_degraded": 0,
            "storage_recovered": 0,
        }
        #: True while the WAL device is full and journaling runs
        #: memory-only; results queue in ``_journal_backlog`` and every
        #: later completion retries the flush (the re-arm probe).
        self._wal_degraded = False
        self._journal_backlog: list[tuple[str, dict]] = []

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "EncodingServer":
        if self._started:
            return self
        self._queue = asyncio.Queue(maxsize=self.config.queue_depth)
        self._register_metric_families()
        if self.config.wal_path is not None:
            self._wal, replayed = CheckpointLog.open_run(
                self.config.wal_path, self.config.run_key(), self.config.resume
            )
            if self.config.resume:
                self.stats["replayed_available"] = len(replayed)
            # Take the append lock now, not at the first journal write:
            # a WAL another live server owns must refuse *here*, before
            # any job is admitted, not mid-dispatch.
            self._wal.open_for_append()
        self._workers = [self._fork_worker() for _ in range(self.config.workers)]
        self._dispatchers = [
            asyncio.ensure_future(self._dispatch_loop(slot))
            for slot in range(self.config.workers)
        ]
        self._started = True
        return self

    async def stop(self) -> None:
        for task in self._dispatchers:
            task.cancel()
        for task in self._dispatchers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._dispatchers = []
        # An explicit sentinel, not EOF: later-forked siblings hold
        # copies of earlier workers' parent-side pipe ends.
        for _, conn in filter(None, self._workers):
            with contextlib.suppress(OSError):
                conn.send(None)
        for slot in range(len(self._workers)):
            self._retire(slot, grace_s=1.0)
        self._workers = []
        if self._wal is not None:
            if self._journal_backlog:
                # One last chance for a degraded server to land its
                # backlog before the handle goes away.
                try:
                    while self._journal_backlog:
                        pending_key, pending_result = self._journal_backlog[0]
                        self._wal.record(pending_key, pending_result)
                        self._journal_backlog.pop(0)
                except StorageError:
                    # Still full: the backlog dies with this process.
                    pass
            self._wal.close()
        self._started = False

    async def __aenter__(self) -> "EncodingServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def _register_metric_families(self) -> None:
        """Pre-register every serve.* family so a quiet run (zero
        sheds, zero retries) still passes the expected-family gate."""
        if not OBS.enabled:
            return
        for name, type_, help_ in SERVE_METRIC_FAMILIES:
            getattr(OBS.registry, type_)(name, help_)

    def _count(self, name: str, help_: str, **labels) -> None:
        if OBS.enabled:
            OBS.registry.counter(name, help_, **labels).inc()

    def _note_breaker_open(self) -> None:
        self.stats["breaker_opens"] += 1

    # -- workers -----------------------------------------------------

    def _fork_worker(self) -> tuple:
        # Plain fork, explicitly: spawn/forkserver re-prepare the
        # parent's __main__ in each worker, which breaks under
        # embedded/stdin entry points; workers here are pure-compute.
        fork = "fork" in multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if fork else None)
        conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=pool_worker_main, args=(child_conn, os.getpid()), daemon=True
        )
        process.start()
        child_conn.close()
        return process, conn

    def _retire(self, slot: int, grace_s: float = 0.0) -> None:
        """Kill ``slot``'s worker unless it exits within ``grace_s``."""
        if self._workers[slot] is None:
            return
        (process, conn), self._workers[slot] = self._workers[slot], None
        process.join(grace_s)
        if process.is_alive():
            process.kill()
            process.join()
        conn.close()

    async def _call_worker(self, slot: int, wire: dict, attempt: int) -> dict:
        """One attempt on ``slot``'s worker.  Any end but a reply (EOF,
        the backstop, a cancellation) retires the worker, so a late
        reply is never read as the next job's result."""
        if self._workers[slot] is None:
            self._workers[slot] = self._fork_worker()
            self.stats["pool_rebuilds"] += 1
            self._count("serve.pool_rebuilds", "pool workers replaced")
        _, conn = self._workers[slot]
        loop = asyncio.get_running_loop()
        reply = loop.create_future()

        def on_readable() -> None:
            loop.remove_reader(conn)
            if reply.done():  # cancelled: the worker is being retired
                return
            try:
                reply.set_result(conn.recv())
            except (EOFError, OSError) as err:
                reply.set_exception(err)

        try:
            conn.send((wire, attempt, self.config.cache_dir))
            loop.add_reader(conn, on_readable)
            outcome = await reply
        except BaseException as err:
            loop.remove_reader(conn)
            self._retire(slot)
            if isinstance(err, (EOFError, OSError)):
                raise BrokenProcessPool(f"worker {slot} died: {err!r}") from err
            raise
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    # -- admission -----------------------------------------------------

    async def submit(self, raw: object) -> dict:
        """Admit one request; resolves to its final result wire dict
        (or an immediate ``shed``/``malformed`` response)."""
        if not self._started:
            raise RuntimeError("server not started")
        try:
            request = parse_request(raw)
        except JobValidationError as err:
            tenant, job_id, key = fallback_identity(raw)
            kind = ""
            if isinstance(raw, dict) and isinstance(raw.get("kind"), str):
                kind = raw["kind"]
            if self._wal is not None and key in self._wal:
                self.stats["replayed"] += 1
                return dict(self._wal.completed[key])
            result = make_result(
                tenant=tenant,
                job_id=job_id,
                kind=kind,
                outcome="malformed",
                error=str(err),
            )
            self.stats["malformed"] += 1
            self._count(
                "serve.jobs_malformed", "requests rejected by validation"
            )
            self._finish(key, result, admitted_at=None)
            return result

        key = request.key
        if self._wal is not None and key in self._wal:
            self.stats["replayed"] += 1
            self._count("serve.jobs_replayed", "results answered from the WAL")
            return dict(self._wal.completed[key])

        if self._queue.full():
            self.stats["shed"] += 1
            self._count("serve.jobs_shed", "jobs refused: queue at depth limit")
            retry_after = round(
                0.05 * (1.0 + self._queue.qsize() / self.config.workers), 3
            )
            return {
                "tenant": request.tenant,
                "job_id": request.job_id,
                "kind": request.kind,
                "outcome": "shed",
                "payload": {},
                "error": "queue full",
                "attempts": 0,
                "duration_s": 0.0,
                "retry_after_s": retry_after,
            }

        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(
            _QueuedJob(
                request=request,
                future=future,
                admitted_at=time.monotonic(),
            )
        )
        self.stats["accepted"] += 1
        self._count("serve.jobs_accepted", "jobs admitted to the queue")
        if OBS.enabled:
            OBS.registry.gauge(
                "serve.queue_depth", "jobs waiting for a dispatcher"
            ).set(self._queue.qsize())
        return await future

    # -- dispatch ------------------------------------------------------

    async def _dispatch_loop(self, slot: int) -> None:
        while True:
            job = await self._queue.get()
            if OBS.enabled:
                OBS.registry.gauge(
                    "serve.queue_depth", "jobs waiting for a dispatcher"
                ).set(self._queue.qsize())
            try:
                result = await self._execute(job, slot)
            except asyncio.CancelledError:
                if not job.future.done():
                    job.future.cancel()
                raise
            except BaseException as err:  # a dispatcher must never die
                result = make_result(
                    tenant=job.request.tenant,
                    job_id=job.request.job_id,
                    kind=job.request.kind,
                    outcome="error",
                    error=f"{type(err).__name__}: {err}",
                )
            try:
                self._finish(
                    job.request.key, result, admitted_at=job.admitted_at
                )
            except Exception as err:
                # Journalling failed (WAL lock lost, disk full): the
                # caller must hear about it — a dispatcher dying here
                # silently would stall the queue forever.
                if not job.future.done():
                    job.future.set_exception(err)
            else:
                if not job.future.done():
                    job.future.set_result(result)
            self._queue.task_done()

    async def _execute(self, job: _QueuedJob, slot: int) -> dict:
        request = job.request
        wire = request.wire()
        attempt_box = {"n": 0}
        deadline = request.deadline_s
        if deadline is None:
            deadline = self.config.default_deadline_s
            wire["deadline_s"] = deadline
        backstop = deadline + self.config.deadline_grace_s

        # Open the job's trace span *detached* (dispatchers interleave
        # many jobs on this one thread, so stack nesting would lie) and
        # ride its context on the envelope.  ``_trace`` is a worker-pipe
        # annotation: invisible to the job key, the WAL, and results.
        job_span = (
            OBS.tracer.begin(
                "serve.job",
                kind=request.kind,
                tenant=request.tenant,
                job_id=request.job_id,
            )
            if OBS.enabled
            else None
        )
        if job_span is not None:
            wire["_trace"] = OBS.tracer.context(
                job_span, tenant=request.tenant, job_id=request.job_id
            ).to_wire()

        pool_breaks = {"n": 0}

        async def attempt_once() -> dict:
            while True:
                # Every dispatch advances the attempt number — a job
                # whose own worker crashed must not replay its
                # attempt-0 behaviour (the kill chaos model) forever.
                attempt = attempt_box["n"]
                attempt_box["n"] += 1
                use_pool = (
                    self._breaker.allow()
                    and pool_breaks["n"] < self.config.pool_break_retries
                )
                try:
                    if use_pool:
                        outcome = await asyncio.wait_for(
                            self._call_worker(slot, wire, attempt),
                            timeout=backstop,
                        )
                    else:
                        # Degraded mode: in-process, serial, kill-chaos
                        # disarmed; the in-worker watchdog still
                        # enforces the job deadline.
                        self.stats["serial_fallbacks"] += 1
                        self._count(
                            "serve.serial_fallbacks",
                            "jobs run on the in-process fallback path",
                        )
                        outcome = await asyncio.wait_for(
                            asyncio.to_thread(
                                serial_execute,
                                wire,
                                attempt,
                                self.config.cache_dir,
                            ),
                            timeout=backstop,
                        )
                except asyncio.TimeoutError:
                    # The in-worker guard should have fired first;
                    # getting here means the worker is truly wedged.
                    # The job's outcome is still a clean timeout.
                    if use_pool and self._breaker.record_failure():
                        self._note_breaker_open()
                    return {
                        "outcome": "deadline_exceeded",
                        "error": (
                            f"job {request.key} exceeded its {deadline:g}s "
                            "deadline"
                        ),
                    }
                except BrokenProcessPool:
                    # This job's own worker died under it: the *worker*
                    # failed, not the job, so this has its own budget
                    # (pool_break_retries) and, once that is spent, the
                    # job stops waiting for healthy infrastructure and
                    # takes the serial path above.
                    if self._breaker.record_failure():
                        self._note_breaker_open()
                    pool_breaks["n"] += 1
                    self.stats["retried"] += 1
                    self._count(
                        "serve.jobs_retried",
                        "attempt retries after worker trouble",
                    )
                    await asyncio.sleep(
                        self.config.backoff.delay(
                            min(pool_breaks["n"] - 1, 6),
                            seed=f"pool:{self.config.seed}:{request.key}",
                        )
                    )
                    continue
                except Exception:
                    if use_pool and self._breaker.record_failure():
                        self._note_breaker_open()
                    raise
                if use_pool:
                    self._breaker.record_success()
                return outcome

        def on_retry(attempt: int, delay: float, err: BaseException) -> None:
            self.stats["retried"] += 1
            self._count(
                "serve.jobs_retried", "attempt retries after worker trouble"
            )

        try:
            outcome = await retry_call_async(
                attempt_once,
                policy=self.config.backoff,
                seed=f"serve:{self.config.seed}:{request.key}",
                retry_on=(Exception,),
                on_retry=on_retry,
            )
        except Exception as err:
            outcome = {
                "outcome": "error",
                "error": f"{type(err).__name__}: {err}",
            }
        # The worker's piggybacked telemetry must come off the outcome
        # *before* it becomes a result: nothing timing-dependent may
        # reach the WAL or the byte-compared reports.
        self._merge_telemetry(outcome.pop("_telemetry", None))
        if job_span is not None:
            final = outcome.get("outcome", "error")
            job_span.set(outcome=final, attempts=attempt_box["n"])
            OBS.tracer.end(
                job_span, status="ok" if final == "ok" else "error"
            )
        duration = time.monotonic() - job.admitted_at
        return make_result(
            tenant=request.tenant,
            job_id=request.job_id,
            kind=request.kind,
            outcome=outcome.get("outcome", "error"),
            payload=outcome.get("payload"),
            error=outcome.get("error", ""),
            attempts=attempt_box["n"],
            duration_s=round(duration, 6),
        )

    def _merge_telemetry(self, telemetry: object) -> None:
        """Fold a worker's per-job delta into the server's registry and
        tracer.  Tolerant of anything: a mangled envelope from a dying
        worker degrades to "no telemetry", never to a failed job."""
        if not isinstance(telemetry, dict):
            return
        if not OBS.enabled:
            return
        OBS.registry.merge_delta(telemetry.get("metrics"))
        adopted = OBS.tracer.adopt_spans(telemetry.get("spans"))
        OBS.registry.counter(
            "serve.telemetry_deltas_merged",
            "worker telemetry deltas folded into the server registry",
        ).inc()
        if adopted:
            OBS.registry.counter(
                "serve.worker_spans_adopted",
                "worker spans stitched into the server trace",
            ).inc(adopted)

    # -- completion ----------------------------------------------------

    def _finish(
        self, key: str, result: dict, admitted_at: float | None
    ) -> None:
        outcome = result["outcome"]
        self.stats["completed"] += 1
        if outcome == "deadline_exceeded":
            self.stats["deadline_exceeded"] += 1
            self._count(
                "serve.jobs_deadline_exceeded",
                "jobs that ran out of their wall-clock budget",
            )
        elif outcome == "error":
            self.stats["errors"] += 1
        self._count(
            "serve.jobs_completed", "jobs finished, by outcome", outcome=outcome
        )
        if admitted_at is not None and OBS.enabled:
            OBS.registry.histogram(
                "serve.job_seconds",
                "admission-to-completion latency",
                kind=result.get("kind") or "unknown",
            ).observe(time.monotonic() - admitted_at)
        if self._wal is not None:
            self._journal(key, deterministic_result(result))

    def _journal(self, key: str, result: dict) -> None:
        """Durably record one result, degrading on a full device.

        ENOSPC on the WAL must not take the serve path down — the job
        already finished; only its durability is at risk.  The result
        joins an in-memory backlog, ``storage_degraded`` counts once per
        episode, and every later completion retries the whole backlog
        in order — so the moment space returns, journaling re-arms and
        catches up with nothing lost from this process.  (A subsequent
        *kill* while degraded does lose the backlog.)
        """
        self._journal_backlog.append((key, result))
        try:
            while self._journal_backlog:
                pending_key, pending_result = self._journal_backlog[0]
                self._wal.record(pending_key, pending_result)
                self._journal_backlog.pop(0)
        except StorageFullError:
            if not self._wal_degraded:
                self._wal_degraded = True
                self.stats["storage_degraded"] += 1
                self._count(
                    "serve.storage_degraded",
                    "transitions to memory-only journaling on a full "
                    "WAL device",
                )
            return
        if self._wal_degraded:
            self._wal_degraded = False
            self.stats["storage_recovered"] += 1

    # -- batch helper --------------------------------------------------

    async def run_batch(
        self, requests: list[dict], max_shed_retries: int = 200
    ) -> list[dict]:
        """Submit many requests concurrently with client-side
        backpressure: a shed response waits ``retry_after_s`` and
        resubmits, so every job eventually gets a final answer.
        Results come back in input order."""

        async def one(raw: dict) -> dict:
            for _ in range(max_shed_retries):
                result = await self.submit(raw)
                if result["outcome"] != "shed":
                    return result
                await asyncio.sleep(result.get("retry_after_s", 0.05))
            return result

        return list(await asyncio.gather(*(one(raw) for raw in requests)))

