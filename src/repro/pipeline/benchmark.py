"""Codec throughput harness: production path vs. reference oracle.

Measures the hot encode/decode paths on the same workloads
``benchmarks/test_perf_components.py`` uses (a 5000-bit random stream,
a 64-word basic block; seed 1234) and reports streams/s, words/s,
bits/s and the speedup of the production path (compiled codebook
encode, bitplane decode) over the oracles in
:mod:`repro.core.reference` (per-block
:class:`~repro.core.block_solver.BlockSolver` encode, bit-serial
decode).  Results are written to ``BENCH_codec.json`` so the
performance trajectory is tracked across PRs (CI uploads the file as
an artifact; ``repro bench`` produces it locally).

Every case cross-checks production and oracle outputs for
bit-identity before timing — a benchmark of a wrong result is
meaningless.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.core.program_codec import (
    decode_basic_block,
    encode_basic_block,
)
from repro.core.reference import (
    decode_basic_block_reference,
    decode_stream_reference,
    encode_basic_block_reference,
    encode_stream_reference,
)
from repro.core.stream_codec import StreamEncoder, decode_stream
from repro.obs.report import run_metadata
from repro.obs.tracing import Tracer

#: Dedicated always-on tracer for benchmark timing: the harness must
#: measure even when process-wide observability is disabled (indeed the
#: acceptance run times the codec *with* ``repro.obs.OBS`` off), so it
#: does not share the global tracer's enable switch.
_BENCH_TRACER = Tracer(enabled=True)


@dataclass(frozen=True)
class BenchCase:
    """One production-vs-oracle measurement."""

    name: str
    unit: str  # what one "unit" is: stream, word, bit
    units_per_run: float
    reference_seconds: float
    fast_seconds: float

    @property
    def speedup(self) -> float:
        if self.fast_seconds == 0:
            return float("inf")
        return self.reference_seconds / self.fast_seconds

    @property
    def fast_per_second(self) -> float:
        return _rate(self.units_per_run, self.fast_seconds)

    @property
    def reference_per_second(self) -> float:
        return _rate(self.units_per_run, self.reference_seconds)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "unit": self.unit,
            "units_per_run": self.units_per_run,
            "reference_seconds": self.reference_seconds,
            "fast_seconds": self.fast_seconds,
            "reference_per_second": self.reference_per_second,
            "fast_per_second": self.fast_per_second,
            "speedup": self.speedup,
        }


@dataclass
class BenchReport:
    """All cases of one harness run plus the run configuration."""

    config: dict
    cases: list[BenchCase]

    @property
    def geomean_speedup(self) -> float:
        if not self.cases:
            return 1.0
        return math.exp(
            sum(math.log(case.speedup) for case in self.cases)
            / len(self.cases)
        )

    def case(self, name: str) -> BenchCase:
        for case in self.cases:
            if case.name == name:
                return case
        raise KeyError(f"no benchmark case named {name!r}")

    def to_dict(self) -> dict:
        return {
            "generated_by": "repro.pipeline.benchmark",
            "config": self.config,
            "cases": [case.to_dict() for case in self.cases],
            "geomean_speedup": self.geomean_speedup,
        }

    def write(self, path: str | Path) -> Path:
        return _write_report(path, self.to_dict())

    def format_table(self) -> str:
        header = (
            f"{'case':<24} {'ref s':>10} {'fast s':>10} "
            f"{'fast rate':>16} {'speedup':>8}"
        )
        lines = [header, "-" * len(header)]
        for case in self.cases:
            rate = f"{case.fast_per_second:,.0f} {case.unit}/s"
            lines.append(
                f"{case.name:<24} {case.reference_seconds:>10.5f} "
                f"{case.fast_seconds:>10.5f} {rate:>16} "
                f"{case.speedup:>7.1f}x"
            )
        lines.append(f"geomean speedup: {self.geomean_speedup:.1f}x")
        return "\n".join(lines)


@dataclass(frozen=True)
class EncoderBenchCase:
    """One zoo backend timed two ways over the same words.

    The two sides are different jobs, not a slow and a fast path of
    one job, so no ratio is reported: ``encode_count`` encodes the
    words and counts the packed driven stream's toggles
    (``encoder.transitions``); ``reference_count`` is the scheme's
    independent per-transfer counter from the verify campaign.
    """

    name: str
    words: int
    encode_count_seconds: float
    reference_count_seconds: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "unit": "words",
            "units_per_run": self.words,
            "encode_count_seconds": self.encode_count_seconds,
            "encode_count_per_second": _rate(self.words, self.encode_count_seconds),
            "reference_count_seconds": self.reference_count_seconds,
            "reference_count_per_second": _rate(
                self.words, self.reference_count_seconds
            ),
        }


@dataclass
class EncoderBenchReport:
    """Every zoo backend's case of one harness run plus its config."""

    config: dict
    cases: list[EncoderBenchCase]

    def to_dict(self) -> dict:
        return {
            "generated_by": "repro.pipeline.benchmark",
            "config": self.config,
            "cases": [case.to_dict() for case in self.cases],
        }

    def write(self, path: str | Path) -> Path:
        return _write_report(path, self.to_dict())

    def format_table(self) -> str:
        header = (
            f"{'case':<22} {'encode+count s':>15} {'words/s':>12} "
            f"{'reference s':>12} {'words/s':>12}"
        )
        lines = [header, "-" * len(header)]
        for case in self.cases:
            row = case.to_dict()
            lines.append(
                f"{case.name:<22} {case.encode_count_seconds:>15.5f} "
                f"{row['encode_count_per_second']:>12,.0f} "
                f"{case.reference_count_seconds:>12.5f} "
                f"{row['reference_count_per_second']:>12,.0f}"
            )
        return "\n".join(lines)


def _rate(units: float, seconds: float) -> float:
    return float("inf") if seconds == 0 else units / seconds


def _write_report(path: str | Path, payload: dict) -> Path:
    from repro.runtime import atomic_write_text

    path = Path(path)
    # Atomic: a crash mid-write never leaves a truncated report.
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    return path


def _best_time(
    fn: Callable[[], object], repeats: int, label: str = "bench.run"
) -> float:
    """Minimum wall time over ``repeats`` runs (the standard noise
    filter for throughput benchmarks), measured through obs spans so
    every individual repetition lands in the benchmark trace."""
    best = float("inf")
    for repeat in range(max(1, repeats)):
        with _BENCH_TRACER.span(label, repeat=repeat) as span:
            fn()
        best = min(best, span.duration)
    return best


def _trace_decode_case(
    block_size: int, repeats: int, workload_name: str = "conv2d"
) -> BenchCase:
    """Full ``decode_trace`` over a workload image: the workload's hot
    basic blocks encoded and patched into the program image exactly as
    :class:`~repro.pipeline.flow.EncodingFlow` deploys them, then the
    *actual* simulator fetch trace replayed through the decoder.  The
    reference is the same engine walked one :meth:`FetchDecoder.fetch`
    at a time over the expanded trace; the bulk path reads the
    simulator's run-length trace and decodes each distinct run once, as
    it does in production, because a real trace re-fetches its hot
    loops."""
    from repro.cfg.graph import ControlFlowGraph
    from repro.cfg.hotspot import select_hot_blocks
    from repro.cfg.loops import find_natural_loops
    from repro.cfg.profile import profile_trace
    from repro.core.program_codec import encode_basic_blocks
    from repro.hw.bbit import BasicBlockIdentificationTable, BBITEntry
    from repro.hw.fetch_decoder import FetchDecoder
    from repro.hw.tt import TransformationTable
    from repro.sim.cpu import run_program
    from repro.workloads.registry import build_workload

    program = build_workload(workload_name).assemble()
    _cpu, trace = run_program(program)
    cfg = ControlFlowGraph.build(program)
    profile = profile_trace(cfg, trace)
    plan = select_hot_blocks(
        profile, block_size, loops=find_natural_loops(cfg)
    )
    tt = TransformationTable(max(1, plan.tt_entries_used), parity=True)
    bbit = BasicBlockIdentificationTable(
        max(1, len(plan.selected)), parity=True
    )
    image = list(program.words)
    encoded_region: set[int] = set()
    lengths = {
        start: plan.encoded_length(start, len(cfg.blocks[start]))
        for start in plan.selected
    }
    encodings = encode_basic_blocks(
        [cfg.blocks[start].words[: lengths[start]] for start in plan.selected],
        block_size,
    )
    for start, encoding in zip(plan.selected, encodings):
        length = lengths[start]
        bbit.install(
            BBITEntry(
                pc=start,
                tt_index=tt.allocate(encoding),
                num_instructions=length,
            )
        )
        first = program.index_of(start)
        for offset, word in enumerate(encoding.encoded_words):
            image[first + offset] = word
        encoded_region.update(range(start, start + 4 * length, 4))

    base = program.text_base
    fetches = list(trace)

    def _lookup(pc: int) -> int:
        return image[(pc - base) >> 2]

    def _decode_bulk() -> list[int]:
        decoder = FetchDecoder(
            tt, bbit, block_size, encoded_region=encoded_region
        )
        return decoder.decode_trace(trace, _lookup)

    def _decode_per_fetch() -> list[int]:
        decoder = FetchDecoder(
            tt, bbit, block_size, encoded_region=encoded_region
        )
        return [decoder.fetch(pc, _lookup(pc)) for pc in fetches]

    if _decode_bulk() != _decode_per_fetch():
        raise RuntimeError(
            "trace_decode: bulk bitplane walk diverged from the "
            "per-fetch walk"
        )
    return BenchCase(
        name="trace_decode",
        unit="words",
        units_per_run=len(fetches),
        reference_seconds=_best_time(
            _decode_per_fetch, repeats, "bench.trace_decode.reference"
        ),
        fast_seconds=_best_time(
            _decode_bulk, repeats, "bench.trace_decode.fast"
        ),
    )


def run_encoder_zoo_benchmarks(
    num_words: int = 512,
    repeats: int = 3,
    seed: int = 1234,
) -> EncoderBenchReport:
    """Encoder-zoo throughput: one case per registered backend.

    Each case times the production ``encoder.transitions`` (encode,
    then count packed toggles) and the scheme's independent reference
    counter from the verify campaign on the same words.  The counts are
    cross-checked for equality before timing, so a run certifies
    correctness and throughput together.  Written to
    ``BENCH_encoders.json`` by ``repro bench --encoders``; the file
    tracks each backend's rates across PRs.
    """
    from repro.baselines.protocol import (
        make_encoder,
        reference_transitions,
        registered_schemes,
    )
    from repro.verify.generators import hot_word_stream

    words = hot_word_stream(random.Random(f"bench:{seed}"), num_words)
    cases: list[EncoderBenchCase] = []
    for scheme in registered_schemes():
        encoder = make_encoder(scheme).fit(words)
        if encoder.transitions(words) != reference_transitions(encoder, words):
            raise RuntimeError(
                f"encoder_{scheme}: encoded transition count diverged from "
                "the reference counter"
            )
        name = f"encoder_{scheme.replace('-', '_')}"
        cases.append(
            EncoderBenchCase(
                name=name,
                words=len(words),
                encode_count_seconds=_best_time(
                    lambda: encoder.transitions(words),
                    repeats,
                    f"bench.{name}.encode_count",
                ),
                reference_count_seconds=_best_time(
                    lambda: reference_transitions(encoder, words),
                    repeats,
                    f"bench.{name}.reference_count",
                ),
            )
        )

    meta = run_metadata(command="repro bench --encoders", seed=seed)
    config = {
        "num_words": num_words,
        "repeats": repeats,
        "seed": seed,
        "schemes": list(registered_schemes()),
        "python": meta["python"],
        "platform": meta["platform"],
        "git_sha": meta["git_sha"],
        "timestamp": meta["timestamp"],
        "timestamp_unix": meta["timestamp_unix"],
        "run_id": _BENCH_TRACER.run_id,
    }
    return EncoderBenchReport(config=config, cases=cases)


def run_codec_benchmarks(
    stream_length: int = 5000,
    num_words: int = 64,
    block_size: int = 5,
    repeats: int = 3,
    seed: int = 1234,
) -> BenchReport:
    """Run the full production-vs-oracle suite and return the report."""
    rng = random.Random(seed)
    stream = [rng.randint(0, 1) for _ in range(stream_length)]
    words = [rng.getrandbits(32) for _ in range(num_words)]
    cases: list[BenchCase] = []

    def _case(name, unit, units, production, reference) -> None:
        if production() != reference():
            raise RuntimeError(f"{name}: production path diverged from the oracle")
        cases.append(
            BenchCase(
                name=name,
                unit=unit,
                units_per_run=units,
                reference_seconds=_best_time(
                    reference, repeats, f"bench.{name}.reference"
                ),
                fast_seconds=_best_time(
                    production, repeats, f"bench.{name}.fast"
                ),
            )
        )

    for strategy in ("greedy", "optimal", "disjoint"):
        encoder = StreamEncoder(block_size, strategy=strategy)
        _case(
            f"stream_encode_{strategy}",
            "streams",
            1,
            lambda: encoder.encode(stream),
            lambda: encode_stream_reference(
                stream, block_size, strategy=strategy
            ),
        )

    _case(
        "block_encode_greedy",
        "words",
        num_words,
        lambda: encode_basic_block(words, block_size),
        lambda: encode_basic_block_reference(words, block_size),
    )

    encoding = encode_basic_block(words, block_size)
    _case(
        "block_decode",
        "words",
        num_words,
        lambda: decode_basic_block(encoding),
        lambda: decode_basic_block_reference(encoding),
    )

    stream_encoding = StreamEncoder(block_size).encode(stream)
    if decode_stream(stream_encoding) != stream:
        raise RuntimeError("stream_decode_serial: decode did not restore the stream")
    _case(
        "stream_decode_serial",
        "bits",
        stream_length,
        lambda: decode_stream(stream_encoding),
        lambda: decode_stream_reference(stream_encoding),
    )

    cases.append(_trace_decode_case(block_size, repeats))

    # Provenance stamp (git SHA, platform, timestamp, run id) so
    # BENCH_codec.json files are comparable across PRs and machines.
    meta = run_metadata(command="repro bench", seed=seed)
    config = {
        "stream_length": stream_length,
        "num_words": num_words,
        "block_size": block_size,
        "repeats": repeats,
        "seed": seed,
        "python": meta["python"],
        "platform": meta["platform"],
        "git_sha": meta["git_sha"],
        "timestamp": meta["timestamp"],
        "timestamp_unix": meta["timestamp_unix"],
        "run_id": _BENCH_TRACER.run_id,
    }
    return BenchReport(config=config, cases=cases)

