"""Chaos/load selftest: the service's own acceptance harness.

``repro serve --selftest`` drives a seeded fleet of concurrent
tenants against a live :class:`~repro.serve.server.EncodingServer`
while :class:`~repro.faults.service.ChaosPolicy` injects worker
kills, stalls past deadline, and malformed requests — then holds the
run to three hard standards:

1. **zero wrong results** — every completed job's payload (bundle
   digest included) must equal an independent serial recompute of the
   same request with a fresh cache;
2. **a closed failure taxonomy** — every non-``ok`` outcome must be
   exactly the one its chaos annotation predicts (``malformed`` /
   ``deadline_exceeded``); a killed worker's job must still end
   ``ok`` via retry;
3. **deterministic reporting** — under ``--deterministic`` the
   ``SERVE_report.json`` is a pure function of the seed, which is
   what lets CI SIGKILL the server mid-queue, ``--resume`` it, and
   ``cmp`` the two reports byte for byte.

A real (non-deterministic) run adds an ``ops`` block to the report:
the server's shed/retry/rebuild counters and the wall time.  It is
*not* byte-gated.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass

from repro.faults.service import CHAOS_KINDS, SLOW_DEADLINE_S, ChaosPolicy
from repro.pipeline.cache import BundleCache
from repro.runtime import atomic_write_text
from repro.serve.jobs import deterministic_result, parse_request
from repro.serve.server import EncodingServer, ServeConfig
from repro.serve.worker import _compute

#: Small-parameter workload menu: each point simulates + encodes in
#: tens of milliseconds, so hundreds of jobs fit in a CI selftest.
MENU = (
    ("fir", {"taps": 8, "samples": 48}),
    ("mmul", {"n": 6}),
    ("sor", {"n": 8, "sweeps": 2}),
    ("conv2d", {"n": 8}),
)

_KIND_CYCLE = ("encode", "decode_verify", "encode", "deploy")
_K_CYCLE = (4, 5)
_STRATEGY_CYCLE = ("greedy", "greedy", "optimal")


@dataclass
class SelftestOptions:
    seed: int = 0
    tenants: int = 6
    jobs_per_tenant: int = 25
    workers: int = 2
    queue_depth: int = 16
    chaos: tuple[str, ...] = CHAOS_KINDS
    deterministic: bool = False
    default_deadline_s: float = 30.0
    wal_path: str | None = None
    resume: bool = False
    cache_dir: str | None = None
    report_path: str | None = None

    def batch_key(self) -> str:
        """The WAL identity of this generated batch: everything that
        changes *which jobs exist*, nothing about how they are run."""
        identity = json.dumps(
            {
                "selftest": 1,
                "seed": self.seed,
                "tenants": self.tenants,
                "jobs_per_tenant": self.jobs_per_tenant,
                "chaos": sorted(self.chaos),
            },
            sort_keys=True,
        )
        return hashlib.sha256(identity.encode()).hexdigest()[:16]


def generate_requests(options: SelftestOptions) -> list[dict]:
    """The seeded job batch: pure function of the options."""
    policy = ChaosPolicy(options.seed, models=tuple(options.chaos))
    requests: list[dict] = []
    for t in range(options.tenants):
        tenant = f"tenant{t:02d}"
        for j in range(options.jobs_per_tenant):
            job_id = f"j{j:03d}"
            workload, params = MENU[(t + j) % len(MENU)]
            request = {
                "tenant": tenant,
                "job_id": job_id,
                "kind": _KIND_CYCLE[j % len(_KIND_CYCLE)],
                "workload": workload,
                "block_size": _K_CYCLE[(t + j) % len(_K_CYCLE)],
                "tt_capacity": 16,
                "strategy": _STRATEGY_CYCLE[j % len(_STRATEGY_CYCLE)],
                "workload_params": dict(params),
            }
            plan = policy.plan_for(tenant, job_id)
            if plan is None:
                pass
            elif plan.kind == "malformed":
                request = policy.corrupt(request, tenant, job_id)
            elif plan.kind == "slow":
                request["chaos"] = "slow"
                request["deadline_s"] = SLOW_DEADLINE_S
            else:  # kill
                request["chaos"] = "kill"
            requests.append(request)
    return requests


def expected_outcome(request: dict) -> str:
    """The taxonomy contract: what chaos predicts for this request."""
    if "_chaos_mutation" in request:
        return "malformed"
    if request.get("chaos") == "slow":
        return "deadline_exceeded"
    return "ok"  # including "kill": the retry must succeed


def _oracle_payloads(requests: list[dict]) -> dict[str, dict]:
    """Independent serial recompute of every well-formed request's
    payload, deduped by compute identity, using a fresh private cache
    (so a poisoned service-side cache could never vouch for itself)."""
    cache = BundleCache(capacity=64, cache_dir=None)
    oracle: dict[str, dict] = {}
    for raw in requests:
        if "_chaos_mutation" in raw:
            continue
        clean = dict(raw)
        clean["chaos"] = ""
        clean.pop("deadline_s", None)
        request = parse_request(clean)
        key = f"{request.kind}|{request.config_key}"
        if key not in oracle:
            oracle[key] = _compute(request, cache)
    return oracle


def verify_results(
    requests: list[dict], results: list[dict]
) -> list[str]:
    """Hold the (request, result) pairs to the three standards; every
    violation becomes one human-readable problem string."""
    problems: list[str] = []
    oracle = _oracle_payloads(requests)
    for raw, result in zip(requests, results):
        tag = f"{result.get('tenant')}/{result.get('job_id')}"
        expected = expected_outcome(raw)
        outcome = result.get("outcome")
        if outcome != expected:
            problems.append(
                f"{tag}: outcome {outcome!r}, chaos predicts {expected!r}"
                + (f" (error: {result.get('error')})" if result.get("error") else "")
            )
            continue
        if outcome != "ok":
            continue
        clean = dict(raw)
        clean["chaos"] = ""
        clean.pop("deadline_s", None)
        request = parse_request(clean)
        want = oracle[f"{request.kind}|{request.config_key}"]
        got = result.get("payload")
        if got != want:
            drift = sorted(
                k
                for k in set(want) | set(got or {})
                if (got or {}).get(k) != want.get(k)
            )
            problems.append(
                f"{tag}: payload drifts from serial recompute in "
                f"field(s) {', '.join(drift)}"
            )
        elif request.kind == "decode_verify" and not got.get("verified"):
            problems.append(f"{tag}: decode_verify returned verified=false")
    return problems


async def _run(options: SelftestOptions) -> tuple[list[dict], EncodingServer]:
    config = ServeConfig(
        workers=options.workers,
        queue_depth=options.queue_depth,
        default_deadline_s=options.default_deadline_s,
        seed=options.seed,
        cache_dir=options.cache_dir,
        wal_path=options.wal_path,
        resume=options.resume,
        batch_key=options.batch_key(),
    )
    requests = generate_requests(options)
    async with EncodingServer(config) as server:
        results = await server.run_batch(requests)
    return results, server


def run_selftest(options: SelftestOptions) -> tuple[dict, list[str]]:
    """Run the whole harness; returns (report dict, problems)."""
    requests = generate_requests(options)
    started = time.monotonic()
    results, server = asyncio.run(_run(options))
    wall_s = time.monotonic() - started

    problems = verify_results(requests, results)

    ordered = sorted(results, key=lambda r: (r["tenant"], r["job_id"]))
    if options.deterministic:
        ordered = [deterministic_result(r) for r in ordered]
    outcome_counts: dict[str, int] = {}
    for result in results:
        outcome = result["outcome"]
        outcome_counts[outcome] = outcome_counts.get(outcome, 0) + 1
    report = {
        "schema": "repro.serve.selftest/1",
        "seed": options.seed,
        "tenants": options.tenants,
        "jobs_per_tenant": options.jobs_per_tenant,
        "chaos": sorted(options.chaos),
        "deterministic": options.deterministic,
        "summary": {
            "jobs": len(results),
            "outcomes": dict(sorted(outcome_counts.items())),
            "problems": len(problems),
        },
        "problems": problems,
        "jobs": ordered,
    }
    if not options.deterministic:
        # Operational detail is real-run only: timing-dependent by
        # nature, it must stay out of anything gated byte-identical.
        report["ops"] = {"stats": dict(server.stats), "wall_s": round(wall_s, 3)}
    if options.report_path:
        atomic_write_text(
            options.report_path, json.dumps(report, indent=1) + "\n"
        )
    return report, problems
