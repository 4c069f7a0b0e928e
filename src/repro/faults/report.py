"""Campaign results: per-case records, per-model tables, JSON report.

Outcome vocabulary (one per injected case):

``detected``
    Strict-mode decode raised a structured :class:`~repro.errors.ReproError`
    (uncorrectable table row, protocol violation, truncation at
    finalize).
``corrected``
    Decode completed bit-identical to the original stream with no
    recovery event, and the tables' SEC-DED logic corrected at least
    one single-bit row error along the way — the self-healing path
    working as designed.
``recovered``
    Recover- or degraded-mode decode completed, with the fault logged
    in the decoder's ``recovery_events`` (degraded to pass-through or
    golden-image service, never silently wrong without a trace).
``silently-corrupted``
    Decode completed with no error and no recovery event, but the
    output differs from the original instruction stream — the failure
    mode the whole subsystem exists to measure.
``crashed``
    An unstructured exception escaped (or recover mode raised, which
    it never may), or a campaign worker timed out.
``masked``
    The corruption never manifested on this trace: output correct, no
    event (e.g. the corrupted TT row was never read).
``not-applicable``
    The injector could not construct the fault on this target (e.g.
    no block long enough for a mid-block entry).

Detection-or-recovery rates are computed over *manifested* cases only
(``masked`` and ``not-applicable`` are excluded): a fault that never
fires says nothing about whether it would have been caught.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.runtime import atomic_write_text

DETECTED = "detected"
CORRECTED = "corrected"
RECOVERED = "recovered"
SILENT = "silently-corrupted"
CRASHED = "crashed"
MASKED = "masked"
NOT_APPLICABLE = "not-applicable"

OUTCOMES = (
    DETECTED,
    CORRECTED,
    RECOVERED,
    SILENT,
    CRASHED,
    MASKED,
    NOT_APPLICABLE,
)


@dataclass
class CaseResult:
    """One (workload, model, trial, mode) fault-injection run."""

    workload: str
    model: str
    seed: str
    mode: str
    outcome: str
    detail: dict = field(default_factory=dict)
    error: str | None = None
    #: Wall-clock seconds for this case.  Deliberately excluded from
    #: :meth:`to_dict`: per-case records stay byte-deterministic across
    #: identical runs; durations surface through the report's per-model
    #: aggregates and ``slowest_case``.
    duration_seconds: float | None = None

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "model": self.model,
            "seed": self.seed,
            "mode": self.mode,
            "outcome": self.outcome,
            "detail": self.detail,
            "error": self.error,
        }


@dataclass
class FaultCampaignReport:
    """Every case of one campaign plus the configuration that ran it."""

    config: dict
    cases: list[CaseResult]

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def model_table(self) -> list[dict]:
        """One row per (model, mode): outcome counts and the
        detection-or-recovery rate over manifested cases."""
        keys: list[tuple[str, str]] = []
        rows: dict[tuple[str, str], dict] = {}
        for case in self.cases:
            key = (case.model, case.mode)
            if key not in rows:
                keys.append(key)
                rows[key] = {
                    "model": case.model,
                    "mode": case.mode,
                    **{outcome: 0 for outcome in OUTCOMES},
                    "total_seconds": 0.0,
                    "slowest_seconds": None,
                    "slowest_seed": None,
                }
            row = rows[key]
            row[case.outcome] += 1
            if case.duration_seconds is not None:
                row["total_seconds"] += case.duration_seconds
                if (
                    row["slowest_seconds"] is None
                    or case.duration_seconds > row["slowest_seconds"]
                ):
                    row["slowest_seconds"] = case.duration_seconds
                    row["slowest_seed"] = case.seed
        table = []
        for key in keys:
            row = rows[key]
            manifested = (
                row[DETECTED]
                + row[CORRECTED]
                + row[RECOVERED]
                + row[SILENT]
                + row[CRASHED]
            )
            row["manifested"] = manifested
            row["detection_or_recovery_rate"] = (
                (row[DETECTED] + row[CORRECTED] + row[RECOVERED]) / manifested
                if manifested
                else None
            )
            cases = sum(row[outcome] for outcome in OUTCOMES)
            row["mean_seconds"] = (
                row["total_seconds"] / cases if cases else None
            )
            table.append(row)
        return table

    def slowest_case(self) -> dict | None:
        """The single longest-running case of the whole campaign."""
        timed = [c for c in self.cases if c.duration_seconds is not None]
        if not timed:
            return None
        worst = max(timed, key=lambda c: c.duration_seconds)
        return {
            "workload": worst.workload,
            "model": worst.model,
            "mode": worst.mode,
            "seed": worst.seed,
            "outcome": worst.outcome,
            "duration_seconds": worst.duration_seconds,
        }

    def silent_cases(self) -> list[CaseResult]:
        return [case for case in self.cases if case.outcome == SILENT]

    def protected_models(self) -> list[str]:
        return list(self.config.get("protected_models", []))

    def protected_ok(self) -> bool:
        """The acceptance gate: every *protected* model (parity-covered
        table corruption, protocol violation) shows zero silent
        corruptions and a 100% detection-or-recovery rate wherever the
        fault manifested."""
        protected = set(self.protected_models())
        for row in self.model_table():
            if row["model"] not in protected:
                continue
            if row[SILENT] or row[CRASHED]:
                return False
            rate = row["detection_or_recovery_rate"]
            if rate is not None and rate < 1.0:
                return False
        return True

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def format_table(self) -> str:
        header = (
            f"{'model':<22s} {'mode':<8s} {'det':>4s} {'corr':>4s} "
            f"{'rec':>4s} {'sil':>4s} {'crash':>5s} {'mask':>4s} "
            f"{'n/a':>4s} {'det-or-rec':>10s}"
        )
        lines = [header, "-" * len(header)]
        for row in self.model_table():
            rate = row["detection_or_recovery_rate"]
            lines.append(
                f"{row['model']:<22s} {row['mode']:<8s} "
                f"{row[DETECTED]:>4d} {row[CORRECTED]:>4d} "
                f"{row[RECOVERED]:>4d} "
                f"{row[SILENT]:>4d} {row[CRASHED]:>5d} "
                f"{row[MASKED]:>4d} {row[NOT_APPLICABLE]:>4d} "
                f"{'  --' if rate is None else f'{100 * rate:9.1f}%':>10s}"
            )
        return "\n".join(lines)

    def to_dict(self, deterministic: bool = False) -> dict:
        """Full report dict.  ``deterministic=True`` zeroes every
        wall-clock aggregate (timings vary run to run), so two runs
        of one seed-pinned configuration write byte-identical reports."""
        summary = self.model_table()
        if deterministic:
            for row in summary:
                row["total_seconds"] = 0.0
                row["mean_seconds"] = None
                row["slowest_seconds"] = None
                row["slowest_seed"] = None
        return {
            "config": self.config,
            "summary": summary,
            "protected_ok": self.protected_ok(),
            "silent_corruptions": len(self.silent_cases()),
            "total_seconds": (
                0.0
                if deterministic
                else sum(c.duration_seconds or 0.0 for c in self.cases)
            ),
            "slowest_case": None if deterministic else self.slowest_case(),
            "cases": [case.to_dict() for case in self.cases],
        }

    def to_json(self, deterministic: bool = False) -> str:
        return json.dumps(self.to_dict(deterministic=deterministic), indent=1)

    def write(
        self,
        path: str = "FAULTS_report.json",
        deterministic: bool = False,
        vfs=None,
    ) -> Path:
        target = Path(path)
        # Atomic: a crash mid-write can never leave a truncated report.
        atomic_write_text(
            target, self.to_json(deterministic=deterministic), vfs=vfs
        )
        return target
