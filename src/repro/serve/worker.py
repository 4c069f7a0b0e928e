"""Codec worker: the compute side of the service.

:func:`pool_worker_main` is a forked worker's pipe loop around
:func:`pool_execute`; :func:`serial_execute` is the degraded-mode twin
the circuit breaker falls back to.  Both funnel into the same pure
computation, so which path ran a job can never change its result —
only its latency.

Worker-side robustness contracts:

* every *computation* failure is returned as an ``error`` outcome,
  never raised (a poisoned job must not look like a crashed worker);
* the per-job deadline is enforced *inside* the worker with
  :func:`~repro.runtime.run_with_deadline` (SIGALRM in a worker's
  main thread, watchdog thread on the serial path), so a stalled job
  yields a clean ``deadline_exceeded`` instead of a hung future;
* the ``kill`` chaos model fires only in a pool worker and only on
  attempt 0 — ``os._exit`` mid-job is exactly a worker segfault as
  its dispatcher sees it (EOF on that worker's pipe, for that one job).

Each worker process owns a :class:`~repro.pipeline.cache.BundleCache`;
with a shared ``cache_dir`` a freshly forked worker (or one restarted
after a crash) warm-starts from results its predecessors already paid
for.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import signal
import threading
import time
from collections import OrderedDict

import repro.obs as obs
from repro.faults.service import SLOW_STALL_S
from repro.obs import OBS
from repro.obs.tracing import TraceContext
from repro.pipeline.bundle import EncodingBundle
from repro.pipeline.cache import BundleCache, cache_key, workload_fingerprint
from repro.pipeline.flow import EncodingFlow
from repro.runtime import DeadlineExceeded, run_with_deadline
from repro.serve.jobs import JobRequest, parse_request
from repro.workloads.registry import build_workload

#: Per-process singletons, lazily built: the bundle cache (keyed by
#: the cache_dir it mirrors to) and a small LRU of prepared
#: (program, trace) pairs — traces are too big for the disk cache but
#: cheap to keep for the handful of distinct workload configs a batch
#: uses.
_CACHES: dict[str | None, BundleCache] = {}
_PREPARED: OrderedDict[str, tuple] = OrderedDict()
_PREPARED_CAPACITY = 8

_SIM_MAX_STEPS = 5_000_000


def pool_worker_init(parent_pid: int) -> None:
    """Pool-worker initializer: die with the server.

    A SIGKILLed server cannot send its workers the stop sentinel, and
    a worker blocked on its pipe may never see EOF (later-forked
    siblings hold copies of its parent-side end) — without this they
    would idle as orphans indefinitely.

    Fork children also inherit the parent's asyncio signal plumbing:
    when the embedding loop has a signal handler, its wakeup fd is the
    *parent loop's* self-pipe, and SIGTERM may be trapped by the loop's
    no-op trampoline.  Left in place, a child SIGTERMed at the server's
    exit would both survive the terminate *and* relay the signal
    number into the parent's pipe — the parent would then run its
    SIGTERM handler for a signal that was never sent to it.
    Reset both before doing anything."""

    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    def _watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(2.0)
        os._exit(0)

    threading.Thread(
        target=_watch, name="parent-death-watch", daemon=True
    ).start()


def _cache_for(cache_dir: str | None) -> BundleCache:
    cache = _CACHES.get(cache_dir)
    if cache is None:
        cache = BundleCache(capacity=64, cache_dir=cache_dir)
        _CACHES[cache_dir] = cache
    return cache


def _prepared(workload: str, params: dict) -> tuple:
    """(program, trace, workload_hash) for one workload config."""
    key = f"{workload}:" + ",".join(
        f"{k}={v}" for k, v in sorted(params.items())
    )
    hit = _PREPARED.get(key)
    if hit is not None:
        _PREPARED.move_to_end(key)
        return hit
    bench = build_workload(workload, **params)
    program = bench.assemble()
    from repro.sim.cpu import run_program

    cpu, trace = run_program(program, max_steps=_SIM_MAX_STEPS)
    if bench.verify is not None:
        bench.verify(cpu)
    prepared = (program, trace, workload_fingerprint(list(program.words)))
    _PREPARED[key] = prepared
    while len(_PREPARED) > _PREPARED_CAPACITY:
        _PREPARED.popitem(last=False)
    return prepared


def _bundle_entry(request: JobRequest, cache: BundleCache) -> tuple[dict, tuple]:
    """The cached (encode payload, bundle JSON) for this request's
    compute identity, building it on first touch."""
    program, trace, fingerprint = _prepared(
        request.workload, request.workload_params
    )
    key = cache_key(
        fingerprint,
        request.block_size,
        request.tt_capacity,
        request.strategy,
    )
    entry = cache.get(key)
    if entry is None:
        flow = EncodingFlow(
            request.block_size,
            tt_capacity=request.tt_capacity,
            strategy=request.strategy,
        )
        result = flow.run(program, trace, name=request.workload)
        bundle = EncodingBundle.from_flow_result(program, result)
        bundle_json = bundle.to_json()
        payload = {
            "workload": request.workload,
            "workload_hash": fingerprint,
            "block_size": request.block_size,
            "tt_capacity": request.tt_capacity,
            "strategy": request.strategy,
            "trace_length": result.trace_length,
            "baseline_transitions": result.baseline_transitions,
            "encoded_transitions": result.encoded_transitions,
            "reduction_percent": round(result.reduction_percent, 4),
            "blocks_selected": len(result.selected_blocks),
            "tt_entries_used": result.tt_entries_used,
            "hot_coverage": round(result.hot_coverage, 6),
            "decode_verified": result.decode_verified,
            "original_digest": bundle.original_digest,
            "bundle_digest": hashlib.sha256(
                bundle_json.encode()
            ).hexdigest(),
        }
        entry = {"encode": payload, "bundle_json": bundle_json}
        cache.put(key, entry)
    return entry, (program, trace, fingerprint)


def _compute(request: JobRequest, cache: BundleCache) -> dict:
    """The pure payload computation, by kind."""
    entry, (program, trace, _) = _bundle_entry(request, cache)
    encode_payload = dict(entry["encode"])
    if request.kind == "encode":
        return encode_payload
    bundle = EncodingBundle.from_json(entry["bundle_json"])
    if request.kind == "deploy":
        tt, bbit = bundle.build_tables(tt_capacity=request.tt_capacity)
        return {
            "workload": request.workload,
            "block_size": request.block_size,
            "strategy": request.strategy,
            "tt_rows": len(bundle.tt_entries),
            "bbit_rows": len(bundle.bbit_entries),
            "tt_capacity": tt.capacity,
            "bbit_capacity": bbit.capacity,
            "original_digest": bundle.original_digest,
            "bundle_digest": encode_payload["bundle_digest"],
        }
    # decode_verify: the full loader path plus a bit-exact replay.
    verified = bundle.deploy_and_check(program, trace)
    return {
        "workload": request.workload,
        "block_size": request.block_size,
        "strategy": request.strategy,
        "trace_length": len(trace),
        "verified": verified,
        "original_digest": bundle.original_digest,
        "bundle_digest": encode_payload["bundle_digest"],
    }


def _execute(
    wire: dict, attempt: int, cache_dir: str | None, in_pool: bool
) -> dict:
    request = parse_request(wire)

    if request.chaos == "kill" and attempt == 0 and in_pool:
        # A worker crash, as the pool sees one: no exception, no
        # cleanup, the process is simply gone mid-job.  Pool-only —
        # in the serial fallback this would kill the server itself,
        # and degraded mode exists precisely to make progress.
        os._exit(23)

    # Cross-process telemetry: the server rides a TraceContext on the
    # envelope (an underscore key, invisible to the job identity).  In
    # a pool child we reset to a fresh process-local registry/tracer so
    # everything captured below is a true per-job *delta*; on the
    # serial path OBS *is* the server's state, so we only anchor the
    # span stack (spans land in the server tracer directly) and never
    # reset.  A kill-chaos crash above loses exactly this one job's
    # in-flight delta, nothing more.
    ctx = TraceContext.from_wire(wire.get("_trace")) if isinstance(wire, dict) else None
    capture = ctx is not None and in_pool and OBS.enabled
    if capture:
        obs.reset()
    anchor = (
        OBS.tracer.push_remote(ctx)
        if ctx is not None and OBS.enabled
        else None
    )

    def body() -> dict:
        if request.chaos == "slow":
            # Stall well past the job's (tight) deadline; the
            # deadline guard below must convert this into a clean
            # deadline_exceeded, never a hung worker.
            time.sleep(SLOW_STALL_S)
        return _compute(request, _cache_for(cache_dir))

    try:
        with OBS.tracer.span(
            "serve.worker",
            kind=request.kind,
            workload=request.workload,
            attempt=attempt,
            pool="1" if in_pool else "0",
        ):
            try:
                payload = run_with_deadline(
                    body, request.deadline_s, what=f"job {request.key}"
                )
            except DeadlineExceeded as err:
                outcome = {"outcome": "deadline_exceeded", "error": str(err)}
            except Exception as err:
                # A poisoned job: deterministic compute failure,
                # isolated to this case.  Returned, not raised — the
                # dispatcher treats a raising worker as infrastructure
                # trouble worth retrying.
                outcome = {
                    "outcome": "error",
                    "error": f"{type(err).__name__}: {err}",
                }
            else:
                outcome = {"outcome": "ok", "payload": payload}
        if capture:
            # Piggyback the bounded delta on the result envelope; the
            # server pops it before the result reaches the WAL.
            outcome["_telemetry"] = {
                "v": 1,
                "pid": os.getpid(),
                "metrics": OBS.registry.export_delta(),
                "spans": OBS.tracer.export_spans(128),
            }
        return outcome
    finally:
        if anchor is not None:
            OBS.tracer.pop_remote(anchor)


def pool_execute(wire: dict, attempt: int, cache_dir: str | None) -> dict:
    """Pool-worker entry point: one job, chaos armed."""
    return _execute(wire, attempt, cache_dir, in_pool=True)


def pool_worker_main(conn, parent_pid: int) -> None:
    """A forked worker's life: answer each ``(wire, attempt, cache_dir)``
    on its pipe with the outcome (or the exception it raised) until the
    ``None`` stop sentinel or EOF."""
    pool_worker_init(parent_pid)
    with contextlib.suppress(EOFError):
        for message in iter(conn.recv, None):
            try:
                conn.send(pool_execute(*message))
            except Exception as err:
                conn.send(err)


def serial_execute(wire: dict, attempt: int, cache_dir: str | None) -> dict:
    """Degraded-mode twin: same computation, chaos kills disarmed."""
    return _execute(wire, attempt, cache_dir, in_pool=False)
