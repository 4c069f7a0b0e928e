"""Seeded job batch, set-up and checks for the ``serve_warm`` workload.

An in-process :class:`~repro.serve.server.EncodingServer` runs with
chaos off, no WAL and one pool worker.  One closed-loop client sends
the seeded selftest batch and waits for each reply before it submits its
next job, as a :class:`~repro.serve.client.ServeClient` caller does.
A second client adds no throughput with one worker, only queueing, and
it keeps both vCPUs of a 2-vCPU host busy at once, so its times follow
the host's scheduler more than the server.
Set-up starts the pool, warms every compute identity through the server
(so every timed job hits the worker's bundle cache) and recomputes
every payload in this process with a fresh cache: the oracle each timed
result is compared with.

A job fails if its outcome is not ``ok``, if its payload differs from
the oracle's, or if a ``decode_verify`` job reports ``verified=false``.
A failed job is counted, never raised.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

from repro.serve.jobs import parse_request
from repro.serve.selftest import SelftestOptions, generate_requests
from repro.serve.server import EncodingServer, ServeConfig
from repro.serve.worker import serial_execute

WORKERS = 1
#: One pass runs the batch this many times (300 jobs), so a pass has
#: three samples beyond its 99th percentile.
BATCHES_PER_PASS = 2
#: Resubmissions the client makes for a shed job before it counts it as
#: failed; with one client and a queue of 32 no job is ever shed.
MAX_SHED_RETRIES = 200
#: How long teardown waits for the pool's processes to end.
JOIN_TIMEOUT_S = 10.0


@dataclass
class JobResult:
    """One job, as its client saw it."""

    label: str
    kind: str
    #: client-observed latency, from submit to result
    wall_s: float
    #: the result's ``duration_s``: admission to completion in the server
    compute_s: float
    ok: bool
    #: trace fetches a ``decode_verify`` job replays (0 for other kinds)
    fetches: int = 0
    #: encoded transitions an ``encode`` job reports (0 for other kinds)
    encoded_transitions: int = 0
    error: str = ""


def batch(seed: int) -> list[dict]:
    """The selftest batch with chaos off, in a seeded order.  Without
    chaos the seed picks no job of its own, so it orders the batch."""
    requests = generate_requests(SelftestOptions(seed=seed, chaos=()))
    random.Random(f"serve_warm:{seed}").shuffle(requests)
    return requests


def identity(raw: dict) -> str:
    """A job's compute identity: what its payload is a function of."""
    request = parse_request(raw)
    return f"{request.kind}|{request.config_key}"


def config() -> ServeConfig:
    return ServeConfig(workers=WORKERS, wal_path=None, cache_dir=None)


async def submit(server: EncodingServer, raw: dict) -> tuple[dict, float]:
    """One job as a ``ServeClient`` caller sends it: a shed reply is
    waited out and resubmitted.  Returns (result, latency)."""
    start = time.perf_counter()
    result = await server.submit(raw)
    for _ in range(MAX_SHED_RETRIES):
        if result.get("outcome") != "shed":
            break
        await asyncio.sleep(result.get("retry_after_s", 0.05))
        result = await server.submit(raw)
    return result, time.perf_counter() - start


async def warm_up(
    server: EncodingServer, requests: list[dict]
) -> list[tuple[dict, dict, float]]:
    """Run every distinct compute identity once through the server, so
    the worker's bundle cache, prepared traces and codebooks are warm.
    Returns (request, result, latency) per identity."""
    distinct = {}
    for raw in requests:
        distinct.setdefault(identity(raw), raw)
    return [(raw, *await submit(server, raw)) for raw in distinct.values()]


def oracle(requests: list[dict]) -> dict[str, dict]:
    """Each identity's payload, recomputed in this process with a fresh
    cache.  Call it only after the pool has started: a pool forked from
    this process afterwards would inherit the oracle's cache."""
    payloads = {}
    for raw in requests:
        outcome = serial_execute(dict(raw), 1, None)
        if outcome.get("outcome") != "ok":
            raise RuntimeError(f"oracle recompute failed: {outcome.get('error')}")
        payloads[identity(raw)] = outcome["payload"]
    return payloads


def check(raw: dict, result: dict, want: dict[str, dict], latency: float) -> JobResult:
    """Hold one result to the oracle."""
    kind = result.get("kind", "")
    label = f"{result.get('tenant')}/{result.get('job_id')} {identity(raw)}"
    payload = result.get("payload") or {}
    job = JobResult(label, kind, latency, float(result.get("duration_s", 0.0)), True)
    if result.get("outcome") != "ok":
        job.ok = False
        job.error = f"outcome {result.get('outcome')!r}: {result.get('error')}"
    elif payload != want.get(identity(raw)):
        job.ok = False
        job.error = "payload differs from the in-process recompute"
    elif kind == "decode_verify" and not payload.get("verified"):
        job.ok = False
        job.error = "decode_verify returned verified=false"
    elif kind == "decode_verify":
        job.fetches = payload["trace_length"]
    elif kind == "encode":
        job.encoded_transitions = payload["encoded_transitions"]
    return job


async def run_batch(
    server: EncodingServer, requests: list[dict], want: dict[str, dict], recorder=None
) -> tuple[list[JobResult], float]:
    """One pass: the closed-loop client sends ``requests`` in order.
    Returns the checked jobs and the pass's wall time.  A ``recorder``
    gets one span per job, from submit to result."""
    out: list[JobResult] = []
    start = time.perf_counter()
    for raw in requests:
        submitted = time.perf_counter()
        result, latency = await submit(server, raw)
        job = check(raw, result, want, latency)
        if recorder is not None:
            recorder.add("serve.job", submitted, submitted + latency, kind=job.kind)
        out.append(job)
    return out, time.perf_counter() - start


def _children(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; the fields after it do not.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            kids.append(int(entry))
    return kids


def children_peak_rss_mb() -> float:
    """Largest peak resident memory among this process's live
    children (the pool worker), from ``/proc/<pid>/status`` VmHWM."""
    peak_kib = 0
    for pid in _children(os.getpid()):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak_kib = max(peak_kib, int(line.split()[1]))
    return peak_kib / 1024.0


def join_children() -> None:
    """Wait until every process the pool started has ended."""
    deadline = time.monotonic() + JOIN_TIMEOUT_S
    for proc in multiprocessing.active_children():
        proc.join(max(0.0, deadline - time.monotonic()))
        if proc.is_alive():
            proc.kill()
            proc.join()
