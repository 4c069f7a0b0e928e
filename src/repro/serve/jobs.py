"""Job model for the encoding service: requests, results, identities.

Everything here is deliberately *pure data*: a job's final result is
a function of its request and nothing else (not the queue position,
not which worker ran it, not how many times it was retried).  That is
the property the whole resume story hangs on — a WAL replay can only
be byte-identical if the bytes never depended on timing in the first
place.

Validation happens *before admission*: a malformed request is
rejected with a :class:`JobValidationError` naming the field, burns
no queue slot and no worker time, and still produces a journaled
``malformed`` result (a rejection is an answer, not an accident).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ReproError
from repro.workloads.registry import BENCHMARK_ORDER, EXTENDED_WORKLOADS

#: What a job asks the service to do with its (workload, k, TT,
#: strategy) point: produce the bundle, materialise hardware tables
#: from it, or run the full loader path and replay-verify the decode.
JOB_KINDS = ("encode", "deploy", "decode_verify")

#: The complete, closed outcome taxonomy.  ``shed`` is a *response*,
#: never a final result — a shed job was refused admission and the
#: client retries it; it does not enter the WAL.
OUTCOMES = ("ok", "malformed", "deadline_exceeded", "error", "shed")

_KNOWN_WORKLOADS = BENCHMARK_ORDER + EXTENDED_WORKLOADS

#: Block-selection strategies deployable through the TT/BBIT flow.
#: (``disjoint`` exists in the stream codec but has no table-backed
#: decode, so the service refuses it at admission.)
SERVE_STRATEGIES = ("greedy", "optimal")

#: Upper bound on ``workload_params`` values, so a hostile request
#: cannot ask one worker to simulate a week of trace.
_MAX_PARAM = 4096


class JobValidationError(ReproError):
    """A job request failed admission-time validation."""


@dataclass(frozen=True)
class JobRequest:
    """One validated unit of service work."""

    tenant: str
    job_id: str
    kind: str
    workload: str
    block_size: int = 5
    tt_capacity: int = 16
    strategy: str = "greedy"
    workload_params: dict = field(default_factory=dict)
    deadline_s: float | None = None
    #: Chaos annotation stamped by the selftest harness (``kill`` /
    #: ``slow``); production requests leave it empty.
    chaos: str = ""

    @cached_property
    def key(self) -> str:
        """Canonical WAL/journal key: tenant, id, and a digest of the
        *semantic* request fields, so a resumed run refuses to replay
        a result for a job whose parameters changed.  Computed once per
        request: the fields are frozen, so the key cannot go stale."""
        semantic = json.dumps(
            {
                "kind": self.kind,
                "workload": self.workload,
                "block_size": self.block_size,
                "tt_capacity": self.tt_capacity,
                "strategy": self.strategy,
                "workload_params": dict(sorted(self.workload_params.items())),
                "deadline_s": self.deadline_s,
                "chaos": self.chaos,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        digest = hashlib.sha256(semantic.encode()).hexdigest()[:16]
        return f"{self.tenant}|{self.job_id}|{digest}"

    @property
    def config_key(self) -> str:
        """The compute identity (what the bundle cache is keyed by,
        modulo the workload hash resolved in the worker)."""
        params = ",".join(
            f"{k}={v}" for k, v in sorted(self.workload_params.items())
        )
        return (
            f"{self.workload}({params})-k{self.block_size}"
            f"-tt{self.tt_capacity}-{self.strategy}"
        )

    def wire(self) -> dict:
        """The request as a pipe/WAL-safe dict (fixed key order)."""
        return {
            "tenant": self.tenant,
            "job_id": self.job_id,
            "kind": self.kind,
            "workload": self.workload,
            "block_size": self.block_size,
            "tt_capacity": self.tt_capacity,
            "strategy": self.strategy,
            "workload_params": dict(sorted(self.workload_params.items())),
            "deadline_s": self.deadline_s,
            "chaos": self.chaos,
        }


def _reject(message: str) -> None:
    raise JobValidationError(f"malformed job request: {message}")


def _require_str(raw: dict, name: str, default: str | None = None) -> str:
    value = raw.get(name, default)
    if not isinstance(value, str) or not value:
        _reject(f"field {name!r} must be a non-empty string, got {value!r}")
    return value


def _require_int(raw: dict, name: str, default: int, lo: int, hi: int) -> int:
    value = raw.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        _reject(f"field {name!r} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        _reject(f"field {name!r} out of range [{lo}, {hi}]: {value}")
    return value


def parse_request(raw: object) -> JobRequest:
    """Validate an untrusted request dict into a :class:`JobRequest`.

    Raises :class:`JobValidationError` naming the offending field.
    Unknown keys are rejected too — a typoed parameter silently
    ignored is a result the client did not ask for.
    """
    if not isinstance(raw, dict):
        _reject(f"request must be a JSON object, got {type(raw).__name__}")
    known = {
        "tenant",
        "job_id",
        "kind",
        "workload",
        "block_size",
        "tt_capacity",
        "strategy",
        "workload_params",
        "deadline_s",
        "chaos",
    }
    # Underscore-prefixed keys are worker-pipe/harness annotations
    # (the ``_trace`` context, ``_chaos_mutation`` tags) — tolerated.
    unknown = [
        k for k in raw if k not in known and not str(k).startswith("_")
    ]
    if unknown:
        _reject(f"unknown field(s): {', '.join(sorted(map(str, unknown)))}")

    tenant = _require_str(raw, "tenant")
    job_id = _require_str(raw, "job_id")
    kind = _require_str(raw, "kind")
    if kind not in JOB_KINDS:
        _reject(f"unknown kind {kind!r}; expected one of {JOB_KINDS}")
    workload = _require_str(raw, "workload")
    if workload not in _KNOWN_WORKLOADS:
        _reject(
            f"unknown workload {workload!r}; "
            f"available: {', '.join(_KNOWN_WORKLOADS)}"
        )
    strategy = _require_str(raw, "strategy", default="greedy")
    if strategy not in SERVE_STRATEGIES:
        _reject(
            f"unknown strategy {strategy!r}; expected one of "
            f"{SERVE_STRATEGIES}"
        )
    block_size = _require_int(raw, "block_size", default=5, lo=2, hi=16)
    tt_capacity = _require_int(raw, "tt_capacity", default=16, lo=1, hi=1024)

    params = raw.get("workload_params", {})
    if not isinstance(params, dict):
        _reject(f"field 'workload_params' must be an object, got {params!r}")
    clean_params: dict = {}
    for name, value in params.items():
        if not isinstance(name, str):
            _reject(f"workload_params key {name!r} must be a string")
        if isinstance(value, bool) or not isinstance(value, int):
            _reject(
                f"workload_params[{name!r}] must be an integer, got {value!r}"
            )
        if not 1 <= value <= _MAX_PARAM:
            _reject(
                f"workload_params[{name!r}] out of range [1, {_MAX_PARAM}]: "
                f"{value}"
            )
        clean_params[name] = value

    deadline = raw.get("deadline_s")
    if deadline is not None:
        if isinstance(deadline, bool) or not isinstance(
            deadline, (int, float)
        ):
            _reject(f"field 'deadline_s' must be a number, got {deadline!r}")
        if not 0 < float(deadline) <= 3600:
            _reject(f"field 'deadline_s' out of range (0, 3600]: {deadline}")
        deadline = float(deadline)

    chaos = raw.get("chaos", "")
    if not isinstance(chaos, str) or chaos not in ("", "kill", "slow"):
        _reject(f"field 'chaos' must be '', 'kill' or 'slow', got {chaos!r}")

    return JobRequest(
        tenant=tenant,
        job_id=job_id,
        kind=kind,
        workload=workload,
        block_size=block_size,
        tt_capacity=tt_capacity,
        strategy=strategy,
        workload_params=clean_params,
        deadline_s=deadline,
        chaos=chaos,
    )


def fallback_identity(raw: object) -> tuple[str, str, str]:
    """Best-effort (tenant, job_id, key) for a request that failed
    validation, so its rejection can still be journaled and routed
    back to the right client."""
    tenant, job_id = "?", "?"
    if isinstance(raw, dict):
        if isinstance(raw.get("tenant"), str) and raw["tenant"]:
            tenant = raw["tenant"]
        if isinstance(raw.get("job_id"), str) and raw["job_id"]:
            job_id = raw["job_id"]
        # Annotations (``_chaos_mutation``, ``_trace``) must not
        # perturb the identity, or a resumed run would miss the WAL.
        raw = {k: v for k, v in raw.items() if not str(k).startswith("_")}
    try:
        canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        canonical = repr(raw)
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    return tenant, job_id, f"{tenant}|{job_id}|malformed-{digest}"


def make_result(
    *,
    tenant: str,
    job_id: str,
    kind: str,
    outcome: str,
    payload: dict | None = None,
    error: str = "",
    attempts: int = 1,
    duration_s: float = 0.0,
) -> dict:
    """Build a result wire dict with a fixed key order.

    The key order matters: results are journaled with
    ``json.dumps(..., sort_keys=False)`` and the resume gate compares
    reports byte-for-byte.
    """
    if outcome not in OUTCOMES:
        raise ValueError(f"unknown outcome {outcome!r}")
    return {
        "tenant": tenant,
        "job_id": job_id,
        "kind": kind,
        "outcome": outcome,
        "payload": payload if payload is not None else {},
        "error": error,
        "attempts": attempts,
        "duration_s": duration_s,
    }


def deterministic_result(result: dict) -> dict:
    """The WAL/report form of a result: every timing- or path-
    dependent field zeroed, semantic fields untouched.

    ``attempts`` and ``duration_s`` depend on which chaos the job met
    *on this particular run* (a resumed run never re-meets it), so
    they cannot appear in anything gated byte-identical.
    """
    clean = dict(result)
    clean["attempts"] = 0
    clean["duration_s"] = 0.0
    return clean
