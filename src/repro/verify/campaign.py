"""The differential verification campaign runner.

A run has two halves:

* **exhaustive sweeps** — per configured block size, every codebook
  entry against the reference solver (:func:`checks.sweep_codebook`),
  every τ selector's decode through all its layers
  (:func:`checks.sweep_tau`), and every boundary/tail class
  (:func:`checks.sweep_boundary`); plus one deterministic encoder-zoo
  sweep (:func:`checks.sweep_encoder_tables`) covering every
  registered backend's canonical streams, the memoryless optimality
  proof and the low-weight codeword-table invariants.  These are what
  make the coverage gate (100% codebook/τ for k=4..7, 100% encoder
  schemes) *deterministically* reachable — randomised inputs alone
  cannot promise exhaustion;
* **randomised cases** — ``cases`` seeded inputs scheduled over the
  four input families (streams with the configured bias sweep,
  synthetic instruction blocks, corrupted table states, and
  fetch-like word streams through the encoder zoo), each fully
  determined by ``random.Random(f"{seed}:{kind}:{case_id}")``.

Random cases fan out in chunks of :data:`CHUNK_SIZE` through the
shared campaign runner (:func:`repro.runtime.pool.run_tasks`, the
fault campaign's loop too: timeouts, circuit breaker, serial
fallback, worker telemetry).  The pool initializer re-arms any
injected mutation so self-test divergences fire in every worker.

Divergences never raise: each is shrunk
(:mod:`repro.verify.counterexample`) and recorded in the report.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from functools import partial

from repro.obs import OBS
from repro.runtime import run_tasks
from repro.verify import checks
from repro.verify.counterexample import (
    make_record,
    shrink_stream,
    shrink_words,
)
from repro.verify.coverage import CoverageTracker
from repro.verify.generators import (
    biased_stream,
    burst_stream,
    block_words,
    hot_word_stream,
    word_blocks,
)
from repro.verify.mutation import apply_mutation, applied_mutations
from repro.verify.report import VerifyReport

#: Twelve-case scheduling cycle: 5 stream, 3 program, 2 tables and
#: 2 encoder-zoo cases.
KIND_PATTERN = (
    "stream",
    "program",
    "stream",
    "tables",
    "encoders",
    "stream",
    "program",
    "stream",
    "tables",
    "stream",
    "program",
    "encoders",
)

#: Randomised cases per pool task; a run fans out only when it has
#: more than one chunk.
CHUNK_SIZE = 25


@dataclass(frozen=True)
class VerifyConfig:
    """Everything that determines a campaign, and nothing that
    doesn't: two runs with equal configs generate identical inputs."""

    cases: int = 200
    seed: int = 7
    bias: tuple[float, ...] = (0.05, 0.25, 0.5, 0.75, 0.95)
    block_sizes: tuple[int, ...] = (2, 3, 4, 5, 6, 7)
    strategies: tuple[str, ...] = ("greedy", "optimal", "disjoint")
    min_stream_bits: int = 8
    max_stream_bits: int = 288
    min_block_words: int = 2
    max_block_words: int = 28
    sweeps: bool = True
    workers: int = 0
    chunk_timeout: float = 120.0
    mutation: str | None = None
    max_counterexamples: int = 25
    shrink_budget: int = 300

    def to_dict(self) -> dict:
        return asdict(self)


# ----------------------------------------------------------------------
# Case scheduling: pure functions of (config, case_id)
# ----------------------------------------------------------------------


def case_kind(case_id: int) -> str:
    return KIND_PATTERN[case_id % len(KIND_PATTERN)]


def case_seed_key(config: VerifyConfig, case_id: int) -> str:
    return f"{config.seed}:{case_kind(case_id)}:{case_id}"


def run_case(config: VerifyConfig, case_id: int) -> dict:
    """Generate and run one randomised differential case.

    The returned dict is picklable and self-describing: kind, seed
    key, parameters, coverage contribution, and — on divergence — a
    shrunk, replayable counterexample.
    """
    kind = case_kind(case_id)
    seed_key = case_seed_key(config, case_id)
    rng = random.Random(seed_key)
    block_size = config.block_sizes[case_id % len(config.block_sizes)]

    if kind == "stream":
        strategy = config.strategies[
            (case_id // len(config.block_sizes)) % len(config.strategies)
        ]
        bias = config.bias[case_id % len(config.bias)]
        length = rng.randint(config.min_stream_bits, config.max_stream_bits)
        if case_id % 5 == 0:
            stream = burst_stream(rng, length, flip=max(0.02, 1.0 - bias))
        else:
            stream = biased_stream(rng, length, bias)
        params = {"k": block_size, "strategy": strategy, "bias": bias}
        result = checks.check_stream(stream, block_size, strategy)
        input_data: list = stream
        if not result.ok:
            input_data = shrink_stream(
                stream,
                lambda bits: not checks.check_stream(
                    bits, block_size, strategy
                ).ok,
                budget=config.shrink_budget,
            )
    elif kind == "program":
        sparse = (None, 0.15, 0.85)[case_id % 3]
        words = block_words(
            rng,
            rng.randint(config.min_block_words, config.max_block_words),
            sparse=sparse,
        )
        params = {"k": block_size}
        result = checks.check_program(words, block_size)
        input_data = words
        if not result.ok:
            input_data = shrink_words(
                words,
                lambda ws: not checks.check_program(ws, block_size).ok,
                budget=config.shrink_budget,
            )
    elif kind == "encoders":
        alphabet = 2 + case_id % 7
        noise = (0.0, 0.1, 0.3)[case_id % 3]
        length = rng.randint(16, 160)
        words = hot_word_stream(rng, length, alphabet=alphabet, noise=noise)
        params = {"alphabet": alphabet, "noise": noise}
        result = checks.check_encoders(words)
        input_data = words
        if not result.ok:
            input_data = shrink_words(
                words,
                lambda ws: not checks.check_encoders(ws).ok,
                budget=config.shrink_budget,
            )
    else:  # tables
        fault = checks.TABLE_FAULTS[(case_id // 5) % len(checks.TABLE_FAULTS)]
        blocks = word_blocks(
            rng, 1 + case_id % 3, min_words=2, max_words=12
        )
        flip_seed = f"{seed_key}:flip"
        params = {"k": block_size, "fault": fault, "flip_seed": flip_seed}
        result = checks.check_tables(blocks, block_size, fault, flip_seed)
        input_data = blocks  # small; recorded unshrunk

    case = {
        "case_id": case_id,
        "kind": kind,
        "seed_key": seed_key,
        "params": params,
        "ok": result.ok,
        "coverage": result.coverage_lists(),
        "counterexample": None,
    }
    if not result.ok:
        case["counterexample"] = make_record(
            kind,
            seed_key,
            params,
            input_data,
            result.mismatch,
            applied_mutations(),
        )
    return case


def _run_chunk(config: VerifyConfig, case_ids: list[int]) -> list[dict]:
    """One pool task: a chunk of consecutive randomised cases."""
    return [run_case(config, case_id) for case_id in case_ids]


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------


def _run_sweeps(
    config: VerifyConfig, tracker: CoverageTracker
) -> tuple[dict[str, dict[str, int]], list[dict]]:
    """The deterministic exhaustive half; returns (kind counts,
    counterexample records)."""
    kinds: dict[str, dict[str, int]] = {}
    counterexamples: list[dict] = []
    sweeps = (
        ("sweep_codebook", checks.sweep_codebook),
        ("sweep_tau", checks.sweep_tau),
        ("sweep_boundary", checks.sweep_boundary),
    )
    for name, sweep in sweeps:
        counts = kinds.setdefault(name, {"run": 0, "failed": 0})
        for block_size in config.block_sizes:
            result = sweep(block_size)
            counts["run"] += 1
            tracker.merge(result.coverage_lists())
            if not result.ok:
                counts["failed"] += 1
                counterexamples.append(
                    make_record(
                        name,
                        f"{config.seed}:{name}:k={block_size}",
                        {"k": block_size},
                        None,
                        result.mismatch,
                        applied_mutations(),
                    )
                )
            if OBS.enabled:
                OBS.registry.counter(
                    "verify.sweeps",
                    "exhaustive verification sweeps executed",
                    sweep=name,
                    outcome="ok" if result.ok else "mismatch",
                ).inc()
    # The encoder-zoo sweep is block-size independent: one run covers
    # every registered backend's canonical streams and table
    # invariants.
    counts = kinds.setdefault("sweep_encoders", {"run": 0, "failed": 0})
    result = checks.sweep_encoder_tables()
    counts["run"] += 1
    tracker.merge(result.coverage_lists())
    if not result.ok:
        counts["failed"] += 1
        counterexamples.append(
            make_record(
                "sweep_encoders",
                f"{config.seed}:sweep_encoders",
                {},
                None,
                result.mismatch,
                applied_mutations(),
            )
        )
    if OBS.enabled:
        OBS.registry.counter(
            "verify.sweeps",
            "exhaustive verification sweeps executed",
            sweep="sweep_encoders",
            outcome="ok" if result.ok else "mismatch",
        ).inc()
    return kinds, counterexamples


def run_verify(config: VerifyConfig) -> VerifyReport:
    """Run the full campaign and aggregate the report (never raises
    on divergence — only on misconfiguration)."""
    started = time.perf_counter()
    apply_mutation(config.mutation)
    tracker = CoverageTracker(config.block_sizes)
    kinds: dict[str, dict[str, int]] = {}
    mismatches: list[dict] = []
    counterexamples: list[dict] = []

    with OBS.tracer.span(
        "verify.campaign", cases=config.cases, seed=config.seed
    ):
        if config.sweeps:
            with OBS.tracer.span("verify.sweeps"):
                kinds, sweep_counterexamples = _run_sweeps(config, tracker)
            for record in sweep_counterexamples:
                mismatches.append(
                    {
                        "kind": record["kind"],
                        "seed_key": record["seed_key"],
                        "mismatch": record["mismatch"]["kind"],
                    }
                )
                counterexamples.append(record)

        with OBS.tracer.span("verify.cases", cases=config.cases):
            chunks = [
                list(range(start, min(start + CHUNK_SIZE, config.cases)))
                for start in range(0, config.cases, CHUNK_SIZE)
            ]
            run = partial(_run_chunk, config)
            ran = run_tasks(
                chunks,
                run,
                run,
                workers=config.workers if len(chunks) > 1 else 0,
                timeout=config.chunk_timeout,
                prefix="verify",
                noun="chunk",
                # Self-test mutations must corrupt every process that
                # decodes, or pool runs would report fewer divergences
                # than serial ones.
                initializer=apply_mutation,
                initargs=(config.mutation,),
            )
            cases = [case for chunk in ran for case in chunk]

    for case in cases:
        counts = kinds.setdefault(case["kind"], {"run": 0, "failed": 0})
        counts["run"] += 1
        tracker.merge(case["coverage"])
        if OBS.enabled:
            OBS.registry.counter(
                "verify.cases",
                "randomised differential cases executed",
                kind=case["kind"],
                outcome="ok" if case["ok"] else "mismatch",
            ).inc()
        if not case["ok"]:
            counts["failed"] += 1
            mismatches.append(
                {
                    "kind": case["kind"],
                    "seed_key": case["seed_key"],
                    "mismatch": case["counterexample"]["mismatch"]["kind"],
                }
            )
            if len(counterexamples) < config.max_counterexamples:
                counterexamples.append(case["counterexample"])

    gate_problems = tracker.gate_problems()
    if OBS.enabled:
        OBS.registry.counter(
            "verify.mismatches", "differential divergences observed"
        ).inc(len(mismatches))
        for dimension in (
            "codebook_entries",
            "tau_selectors",
            "encoder_schemes",
        ):
            OBS.registry.gauge(
                "verify.coverage_percent",
                "behaviour-space coverage per dimension",
                dimension=dimension,
            ).set(round(tracker.percent(dimension), 2))

    return VerifyReport(
        config=config.to_dict(),
        kinds=kinds,
        mismatches=mismatches,
        counterexamples=counterexamples,
        coverage=tracker.snapshot(),
        gate_problems=gate_problems,
        mutations=list(applied_mutations()),
        total_seconds=time.perf_counter() - started,
    )
