"""The paper's complete flow, programmatically.

Section 4's operational overview, end to end:

1. run the application on the simulator and capture the fetch trace;
2. build the CFG, profile it, find the natural loops;
3. select hot basic blocks under the Transformation Table budget;
4. vertically encode each selected block (per bus line, chained
   overlapped blocks) and patch the encoded words into the program
   memory image;
5. program the TT and BBIT, then replay the fetch trace through the
   behavioural fetch decoder and check every instruction is restored
   bit-exactly;
6. count bus transitions for the baseline image and the encoded image
   over the same trace.

The result carries everything Figure 6 reports (total transitions,
reduction percentage) plus the bookkeeping the hardware sections talk
about (TT entries used, coverage of the hot region).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.cfg.graph import ControlFlowGraph
from repro.cfg.hotspot import (
    DEFAULT_BBIT_ENTRIES,
    DEFAULT_TT_ENTRIES,
    SelectionPlan,
    select_hot_blocks,
)
from repro.cfg.loops import find_natural_loops
from repro.cfg.profile import profile_trace
from repro.core.program_codec import encode_basic_blocks
from repro.core.transformations import OPTIMAL_SET, Transformation
from repro.errors import DecodeVerificationError
from repro.hw.bbit import BasicBlockIdentificationTable, BBITEntry
from repro.hw.fetch_decoder import FetchDecoder
from repro.hw.tt import TransformationTable
from repro.isa.assembler import Program
from repro.obs import OBS
from repro.sim.bus import count_trace_transitions, per_line_trace_transitions
from repro.sim.tracer import FetchTrace
from repro.workloads.common import Workload


@dataclass
class FlowResult:
    """Everything measured for one (workload, block size) point."""

    name: str
    block_size: int
    baseline_transitions: int
    encoded_transitions: int
    trace_length: int
    selected_blocks: list[int]
    tt_entries_used: int
    tt_capacity: int
    hot_coverage: float  # fetch fraction inside encoded blocks
    decode_verified: bool
    encoded_image: list[int] = field(repr=False, default_factory=list)
    plan: SelectionPlan | None = field(repr=False, default=None)

    @property
    def reduction_percent(self) -> float:
        if self.baseline_transitions == 0:
            return 0.0
        return (
            100.0
            * (self.baseline_transitions - self.encoded_transitions)
            / self.baseline_transitions
        )

    @property
    def transitions_millions(self) -> float:
        """Figure 6's #TR row unit."""
        return self.baseline_transitions / 1e6

    @property
    def encoded_millions(self) -> float:
        return self.encoded_transitions / 1e6


def _restores(program: Program, trace: FetchTrace, decoded: list[int]) -> bool:
    """Whether ``decoded`` is ``program``'s words over ``trace``,
    compared one run occurrence at a time (a slice compare per run)."""
    if len(decoded) != len(trace):
        return False
    words = program.words
    base = program.text_base
    offset = 0
    for start, length in zip(trace.starts, trace.lengths):
        first = (start - base) >> 2
        if decoded[offset : offset + length] != words[first : first + length]:
            return False
        offset += length
    return True


class EncodingFlow:
    """Configurable end-to-end encoder + measurement pipeline."""

    def __init__(
        self,
        block_size: int,
        tt_capacity: int = DEFAULT_TT_ENTRIES,
        bbit_capacity: int = DEFAULT_BBIT_ENTRIES,
        transformations: Sequence[Transformation] = OPTIMAL_SET,
        strategy: str = "greedy",
        loops_only: bool = True,
        verify_decode: bool = True,
        parity_protect: bool = False,
    ):
        if strategy == "disjoint" and verify_decode:
            raise ValueError(
                "the disjoint strategy cannot be deployed: the TT/BBIT "
                "fetch decoder restores overlapped blocks only (pass "
                "verify_decode=False to measure it)"
            )
        self.block_size = block_size
        self.tt_capacity = tt_capacity
        self.bbit_capacity = bbit_capacity
        self.transformations = tuple(transformations)
        self.strategy = strategy
        self.loops_only = loops_only
        self.verify_decode = verify_decode
        #: Arm per-row parity words on the TT/BBIT this flow programs
        #: (the hardened deploy path; see docs/robustness.md).
        self.parity_protect = parity_protect

    # ------------------------------------------------------------------

    def run(
        self, program: Program, trace: Iterable[int], name: str = "program"
    ) -> FlowResult:
        """Encode ``program``'s hot blocks and measure over ``trace``."""
        trace = FetchTrace.of(trace)
        span = OBS.tracer.span(
            "flow.run", workload=name, k=self.block_size, fetches=len(trace)
        )
        with span:
            with OBS.tracer.span("flow.analyze", workload=name):
                cfg = ControlFlowGraph.build(program)
                profile = profile_trace(cfg, trace)
                loops = find_natural_loops(cfg)
            with OBS.tracer.span("flow.select", workload=name):
                plan = select_hot_blocks(
                    profile,
                    self.block_size,
                    tt_capacity=self.tt_capacity,
                    bbit_capacity=self.bbit_capacity,
                    loops=loops,
                    loops_only=self.loops_only,
                )

            tt = TransformationTable(
                self.tt_capacity, parity=self.parity_protect
            )
            bbit = BasicBlockIdentificationTable(
                self.bbit_capacity, parity=self.parity_protect
            )
            image = list(program.words)
            encoded_region: set[int] = set()
            # Long blocks against a nearly-full TT encode a prefix only;
            # the E/CT tail ends decoding there and the rest of the block
            # stays plain in memory.
            lengths = {
                start: plan.encoded_length(start, len(cfg.blocks[start]))
                for start in plan.selected
            }
            with OBS.tracer.span(
                "flow.encode", workload=name, blocks=len(plan.selected)
            ):
                encodings = encode_basic_blocks(
                    [
                        cfg.blocks[start].words[: lengths[start]]
                        for start in plan.selected
                    ],
                    self.block_size,
                    transformations=self.transformations,
                    strategy=self.strategy,
                )
            with OBS.tracer.span("flow.deploy", workload=name):
                for start, encoding in zip(plan.selected, encodings):
                    length = lengths[start]
                    base_index = tt.allocate(encoding)
                    bbit.install(
                        BBITEntry(
                            pc=start,
                            tt_index=base_index,
                            num_instructions=length,
                        )
                    )
                    first = program.index_of(start)
                    for offset, word in enumerate(encoding.encoded_words):
                        image[first + offset] = word
                    encoded_region.update(range(start, start + 4 * length, 4))

            decode_verified = False
            if self.verify_decode and plan.selected:
                with OBS.tracer.span("flow.verify_decode", workload=name):
                    decoder = FetchDecoder(
                        tt, bbit, self.block_size, encoded_region=encoded_region
                    )
                    base = program.text_base
                    decoded = decoder.decode_trace(
                        trace, lambda pc: image[(pc - base) >> 2]
                    )
                    if not _restores(program, trace, decoded):
                        raise DecodeVerificationError(
                            f"{name}: hardware decode failed to restore the "
                            "instruction stream"
                        )
                    decode_verified = True

            with OBS.tracer.span("flow.measure", workload=name):
                baseline = count_trace_transitions(program, trace)
                encoded = count_trace_transitions(program, trace, image)
        if OBS.enabled:
            self._publish_metrics(name, plan, baseline, encoded, profile)
        return FlowResult(
            name=name,
            block_size=self.block_size,
            baseline_transitions=baseline,
            encoded_transitions=encoded,
            trace_length=len(trace),
            selected_blocks=list(plan.selected),
            tt_entries_used=plan.tt_entries_used,
            tt_capacity=self.tt_capacity,
            hot_coverage=profile.coverage_of(plan.selected),
            decode_verified=decode_verified,
            encoded_image=image,
            plan=plan,
        )

    def _publish_metrics(
        self, name: str, plan, baseline: int, encoded: int, profile
    ) -> None:
        """Per-(workload, k) gauges and counters for one flow run."""
        registry = OBS.registry
        labels = {"workload": name, "k": str(self.block_size)}
        registry.counter(
            "flow.runs", "end-to-end encoding flow executions", **labels
        ).inc()
        registry.gauge(
            "flow.baseline_transitions",
            "bus transitions over the trace, unencoded image",
            **labels,
        ).set(baseline)
        registry.gauge(
            "flow.encoded_transitions",
            "bus transitions over the trace, encoded image",
            **labels,
        ).set(encoded)
        registry.gauge(
            "flow.hot_coverage",
            "fraction of fetches inside encoded blocks",
            **labels,
        ).set(profile.coverage_of(plan.selected))
        registry.gauge(
            "flow.tt_entries_used", "TT rows the selection consumed", **labels
        ).set(plan.tt_entries_used)
        registry.gauge(
            "flow.blocks_selected", "basic blocks selected for encoding", **labels
        ).set(len(plan.selected))

    def run_workload(self, workload: Workload, max_steps: int = 200_000_000) -> FlowResult:
        """Convenience: simulate a workload, then run the flow."""
        program = workload.assemble()
        from repro.sim.cpu import run_program

        with OBS.tracer.span("flow.simulate", workload=workload.name):
            cpu, trace = run_program(program, max_steps=max_steps)
            if workload.verify is not None:
                workload.verify(cpu)
        return self.run(program, trace, name=workload.name)

    def per_line_breakdown(
        self, program: Program, trace: Iterable[int], result: FlowResult
    ) -> tuple[list[int], list[int]]:
        """Per-bus-line transitions (baseline, encoded) for a result."""
        return (
            per_line_trace_transitions(program, trace),
            per_line_trace_transitions(program, trace, result.encoded_image),
        )
