"""The fault-injection campaign runner.

Sweeps fault models x workloads x trials x decoder modes over a
deployment prepared by the real pipeline (flow -> bundle -> tables),
classifies every run (see :mod:`repro.faults.report`), and emits
``FAULTS_report.json``.

Determinism: each case's corruption is drawn from
``random.Random(f"{seed}:{workload}:{model}:{trial}")`` — the *same*
fault is injected for the strict and recover runs of a trial, so the
per-model tables compare both hardening strategies on an identical
fault population.

Workers: cases run one per task through the shared campaign runner
(:func:`repro.runtime.pool.run_tasks`: pool, ``case_timeout``, circuit
breaker, serial fallback).  The serial path (:func:`_run_case_serial`)
honors the *same* per-case deadline via :mod:`repro.runtime.deadline`,
with :data:`RETRY_ATTEMPTS` seeded-backoff attempts.

No checkpointing: the default fir sweep (700 cases) takes a few
seconds, so a campaign that dies is run again; with
``deterministic=True`` the rerun writes a byte-identical report.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.errors import CampaignError, ReproError
from repro.faults.models import (
    DEFAULT_MODELS,
    FaultModel,
    InjectionRecord,
    RunState,
)
from repro.faults.report import (
    CORRECTED,
    CRASHED,
    DETECTED,
    MASKED,
    NOT_APPLICABLE,
    RECOVERED,
    SILENT,
    CaseResult,
    FaultCampaignReport,
)
from repro.hw.fetch_decoder import FetchDecoder
from repro.obs import OBS
from repro.runtime import (
    BackoffPolicy,
    DeadlineExceeded,
    retry_call,
    run_tasks,
    run_with_deadline,
)
from repro.sim.tracer import FetchTrace


@dataclass
class DeploymentTarget:
    """A picklable snapshot of one deployed workload: everything a
    trial needs to materialise fresh tables, image and trace."""

    name: str
    block_size: int
    text_base: int
    original_words: list[int]
    encoded_words: list[int]
    tt_entries: list[dict]
    bbit_entries: list[dict]
    trace: list[int]
    parity: bool = True
    #: Per-region scheme metadata for mixed-scheme bundles (empty for
    #: classic single-scheme deployments).
    regions: list[dict] = field(default_factory=list)

    @classmethod
    def prepare(
        cls,
        workload: str,
        block_size: int = 5,
        parity: bool = True,
        workload_params: dict | None = None,
    ) -> "DeploymentTarget":
        """Run the full pipeline on a named workload and snapshot the
        deployable state (the campaign's pipeline integration)."""
        from repro.pipeline.bundle import EncodingBundle
        from repro.pipeline.flow import EncodingFlow
        from repro.sim.cpu import run_program
        from repro.workloads.registry import build_workload

        wl = build_workload(workload, **(workload_params or {}))
        program = wl.assemble()
        cpu, trace = run_program(program)
        if wl.verify is not None:
            wl.verify(cpu)
        result = EncodingFlow(block_size=block_size).run(
            program, trace, workload
        )
        if not result.selected_blocks:
            raise CampaignError(
                f"workload {workload!r} produced no encoded blocks; "
                "nothing to inject faults into"
            )
        bundle = EncodingBundle.from_flow_result(program, result)
        bundle.validate()
        return cls(
            name=workload,
            block_size=block_size,
            text_base=program.text_base,
            original_words=list(program.words),
            encoded_words=list(bundle.encoded_words),
            tt_entries=list(bundle.tt_entries),
            bbit_entries=list(bundle.bbit_entries),
            trace=list(trace),
            parity=parity,
        )

    @classmethod
    def prepare_mixed(
        cls,
        workload: str,
        block_size: int = 5,
        parity: bool = True,
        workload_params: dict | None = None,
    ) -> "DeploymentTarget":
        """Run the per-region scheme selector on a named workload and
        snapshot the resulting mixed-scheme bundle — the target the
        ``scheme_tag_corruption`` model needs."""
        from repro.pipeline.selector import SchemeSelector
        from repro.sim.cpu import run_program
        from repro.workloads.registry import build_workload

        wl = build_workload(workload, **(workload_params or {}))
        program = wl.assemble()
        cpu, trace = run_program(program)
        if wl.verify is not None:
            wl.verify(cpu)
        result = SchemeSelector(block_size=block_size).run(
            program, trace, workload
        )
        bundle = result.bundle
        if not bundle.regions:
            raise CampaignError(
                f"workload {workload!r} produced no tagged regions; "
                "nothing for the scheme-tag injector to corrupt"
            )
        return cls(
            name=f"{workload}-mixed",
            block_size=block_size,
            text_base=program.text_base,
            original_words=list(program.words),
            encoded_words=list(bundle.encoded_words),
            tt_entries=list(bundle.tt_entries),
            bbit_entries=list(bundle.bbit_entries),
            trace=list(trace),
            parity=parity,
            regions=[dict(region) for region in bundle.regions],
        )

    def materialise(self) -> RunState:
        """Fresh tables + private image/trace copies for one trial."""
        from repro.pipeline.bundle import EncodingBundle

        bundle = EncodingBundle(
            name=self.name,
            block_size=self.block_size,
            text_base=self.text_base,
            encoded_words=self.encoded_words,
            original_digest="0" * 64,  # not re-derived for trials
            tt_entries=self.tt_entries,
            bbit_entries=self.bbit_entries,
            regions=[dict(region) for region in self.regions],
        )
        tt, bbit = bundle.build_tables(parity=self.parity)
        return RunState(
            tt=tt,
            bbit=bbit,
            image=list(self.encoded_words),
            trace=list(self.trace),
            encoded_region=bundle.encoded_pc_region(),
            text_base=self.text_base,
            region_schemes=bundle.region_scheme_map(),
            region_word_decoders=bundle.region_word_decoders(),
            regions=[dict(region) for region in self.regions],
        )


# ----------------------------------------------------------------------
# One case
# ----------------------------------------------------------------------


def run_case(
    target: DeploymentTarget, model: FaultModel, seed: str, mode: str
) -> CaseResult:
    """Inject one fault, replay the trace, classify the outcome.

    Every result carries its wall-clock ``duration_seconds`` (kept out
    of the deterministic per-case JSON; aggregated in the report's
    per-model duration columns and slowest-case field)."""
    started = time.perf_counter()
    result = _run_case(target, model, seed, mode)
    result.duration_seconds = time.perf_counter() - started
    return result


def _run_case(
    target: DeploymentTarget, model: FaultModel, seed: str, mode: str
) -> CaseResult:
    state = target.materialise()
    record: InjectionRecord = model.inject(state, random.Random(seed))
    if not record.applicable:
        return CaseResult(
            target.name, model.name, seed, mode, NOT_APPLICABLE, record.detail
        )
    base = target.text_base
    image = state.image
    num_words = len(image)
    golden_words = target.original_words

    def golden(pc: int) -> int:
        return golden_words[(pc - base) >> 2]

    decoder = FetchDecoder(
        state.tt,
        state.bbit,
        target.block_size,
        encoded_region=state.encoded_region,
        mode=mode,
        # Recover mode gets the golden bundle: a corrupted scheme tag
        # has no pass-through story (the region's stored words may be
        # rewritten), so recovery serves golden words there.  The
        # classic table-fault recover paths never consult it.
        golden_lookup=golden if mode == "recover" else None,
        region_schemes=state.region_schemes or None,
        region_word_decoders=state.region_word_decoders or None,
    )

    def lookup(pc: int) -> int:
        index = (pc - base) >> 2
        if not 0 <= index < num_words:
            raise ReproError(f"fetch outside the image: {pc:#010x}")
        return image[index]

    trace = FetchTrace.from_addresses(state.trace)
    try:
        decoded = decoder.decode_trace(trace, lookup, finalize=True)
    except ReproError as err:
        if mode == "recover":
            # Recover mode promises never to raise on a corrupted
            # block; an escape is a harness bug, not a detection.
            return CaseResult(
                target.name,
                model.name,
                seed,
                mode,
                CRASHED,
                record.detail,
                error=f"recover mode raised: {err!r}",
            )
        return CaseResult(
            target.name,
            model.name,
            seed,
            mode,
            DETECTED,
            record.detail,
            error=str(err),
        )
    except Exception as err:  # noqa: BLE001 — campaign must classify, not die
        return CaseResult(
            target.name,
            model.name,
            seed,
            mode,
            CRASHED,
            record.detail,
            error=repr(err),
        )
    if decoder.recovery_events:
        detail = dict(record.detail)
        detail["recovery_events"] = decoder.recovery_events[:8]
        return CaseResult(
            target.name, model.name, seed, mode, RECOVERED, detail
        )
    if not trace.matches(decoded, target.original_words, base):
        return CaseResult(
            target.name, model.name, seed, mode, SILENT, record.detail
        )
    corrections = state.tt.ecc_corrections + state.bbit.ecc_corrections
    if corrections:
        detail = dict(record.detail)
        detail["ecc_corrections"] = corrections
        return CaseResult(
            target.name, model.name, seed, mode, CORRECTED, detail
        )
    return CaseResult(target.name, model.name, seed, mode, MASKED, record.detail)


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------


@dataclass
class CampaignConfig:
    workloads: tuple[str, ...] = ("fir",)
    #: Workloads additionally deployed as mixed-scheme bundles through
    #: the per-region selector (targets named ``<workload>-mixed``);
    #: these are what the ``scheme_tag_corruption`` model bites on.
    mixed_workloads: tuple[str, ...] = ()
    block_size: int = 5
    seed: int = 1
    trials: int = 25
    modes: tuple[str, ...] = ("strict", "recover")
    models: tuple[FaultModel, ...] = DEFAULT_MODELS
    parity: bool = True
    workers: int | None = None
    case_timeout: float = 120.0
    workload_params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "workloads": list(self.workloads),
            "mixed_workloads": list(self.mixed_workloads),
            "block_size": self.block_size,
            "seed": self.seed,
            "trials": self.trials,
            "modes": list(self.modes),
            "models": [model.name for model in self.models],
            "protected_models": [
                model.name for model in self.models if model.protected
            ],
            "parity": self.parity,
            "workers": self.workers,
            "case_timeout": self.case_timeout,
        }


#: Attempts for a deadline-guarded serial case (seeded backoff between
#: them) before it is classified ``crashed``.
RETRY_ATTEMPTS = 2

_WORKER_TARGETS: dict[str, DeploymentTarget] = {}


def _worker_init(targets: list[DeploymentTarget]) -> None:
    global _WORKER_TARGETS
    _WORKER_TARGETS = {target.name: target for target in targets}


def _worker_run_case(task: tuple[str, FaultModel, str, str]) -> CaseResult:
    """Pool entry point: one case against this worker's targets."""
    target_name, model, seed, mode = task
    return run_case(_WORKER_TARGETS[target_name], model, seed, mode)


def _run_case_serial(
    target: DeploymentTarget,
    model: FaultModel,
    seed: str,
    mode: str,
    case_timeout: float,
) -> CaseResult:
    """One case under a wall-clock deadline — the serial path's
    equivalent of ``future.result(timeout)`` — with seeded-backoff
    retries on expiry and a ``crashed`` classification if every
    attempt times out."""
    policy = BackoffPolicy(max_attempts=RETRY_ATTEMPTS)

    def attempt():
        return run_with_deadline(
            lambda: run_case(target, model, seed, mode),
            case_timeout,
            what=f"case {seed}/{mode}",
        )

    try:
        return retry_call(
            attempt,
            policy=policy,
            seed=f"{seed}:{mode}",
            retry_on=(DeadlineExceeded,),
        )
    except DeadlineExceeded as err:
        if OBS.enabled:
            OBS.registry.counter(
                "faults.case_timeouts",
                "cases killed by the per-case timeout",
            ).inc()
        return CaseResult(
            target.name,
            model.name,
            seed,
            mode,
            CRASHED,
            {},
            error=f"case timeout: {err}",
        )


def run_campaign(
    config: CampaignConfig,
    targets: list[DeploymentTarget] | None = None,
) -> FaultCampaignReport:
    """Run the full sweep; ``targets`` overrides workload preparation
    (used by tests to inject synthetic deployments)."""
    if targets is None:
        targets = []
        for workload in config.workloads:
            with OBS.tracer.span("faults.prepare", workload=workload):
                targets.append(
                    DeploymentTarget.prepare(
                        workload,
                        block_size=config.block_size,
                        parity=config.parity,
                        workload_params=config.workload_params.get(workload),
                    )
                )
        for workload in config.mixed_workloads:
            with OBS.tracer.span(
                "faults.prepare_mixed", workload=workload
            ):
                targets.append(
                    DeploymentTarget.prepare_mixed(
                        workload,
                        block_size=config.block_size,
                        parity=config.parity,
                        workload_params=config.workload_params.get(workload),
                    )
                )
    by_name = {target.name: target for target in targets}
    if len(by_name) != len(targets):
        raise CampaignError("duplicate target names in campaign")
    tasks: list[tuple[str, FaultModel, str, str]] = []
    for target in targets:
        for model in config.models:
            for trial in range(config.trials):
                seed = f"{config.seed}:{target.name}:{model.name}:{trial}"
                for mode in config.modes:
                    tasks.append((target.name, model, seed, mode))

    def serial(task: tuple[str, FaultModel, str, str]) -> CaseResult:
        name, model, seed, mode = task
        return _run_case_serial(
            by_name[name], model, seed, mode, config.case_timeout
        )

    with OBS.tracer.span(
        "faults.campaign", cases=len(tasks), workers=config.workers or 1
    ):
        cases = run_tasks(
            tasks,
            _worker_run_case,
            serial,
            workers=config.workers,
            timeout=config.case_timeout,
            prefix="faults",
            noun="case",
            initializer=_worker_init,
            initargs=(targets,),
        )
    if OBS.enabled:
        registry = OBS.registry
        for case in cases:
            registry.counter(
                "faults.cases",
                "campaign cases by model, mode and outcome",
                model=case.model,
                mode=case.mode,
                outcome=case.outcome,
            ).inc()
            if case.duration_seconds is not None:
                registry.histogram(
                    "faults.case_seconds",
                    "per-case wall-clock duration",
                    model=case.model,
                ).observe(case.duration_seconds)
    return FaultCampaignReport(config=config.to_dict(), cases=cases)
