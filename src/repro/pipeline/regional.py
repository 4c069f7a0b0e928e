"""Regional reprogramming: one table configuration per hot region.

The paper's hardware is *reprogrammable*: "the information about the
transformation is provided to the processor core either when loading
the program or by software prior to entering the application hot spot"
(Section 1), enabling "flexible and inexpensive switches between the
transformations" (abstract).  The baseline flow programs the tables
once; this variant gives every top-level hot loop its own full TT/BBIT
configuration, reloaded (by software, Section 7.1 style) whenever
execution moves between regions.

That matters exactly when a single 16-entry TT cannot cover all hot
loops at once — multi-phase programs.  The result reports the regional
reduction, the number of reloads the trace would trigger, and the
reload traffic (table words written through the peripheral), so the
benefit can be weighed against the reprogramming cost the paper calls
"insignificant in volume".

A region's tables decode only that region's blocks, and the fetch
decoder enters every block from the idle state (after a jump or after
the previous block's last word), so what a reload clears never
reaches a block.  Every region's tables side by side are therefore one
plain TT/BBIT bundle, checked like the flow's through
:meth:`~repro.pipeline.bundle.EncodingBundle.deploy_and_check`; the
reloads are counted once per distinct run of the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterable, Sequence

from repro.cfg.graph import ControlFlowGraph
from repro.cfg.profile import profile_trace
from repro.core.transformations import OPTIMAL_SET, Transformation
from repro.errors import DecodeVerificationError
from repro.hw.peripheral import programming_words
from repro.isa.assembler import Program
from repro.pipeline.bundle import EncodingBundle, _digest, table_programming
from repro.pipeline.selector import encode_region, plan_regions
from repro.sim.bus import count_trace_transitions
from repro.sim.tracer import FetchTrace


@dataclass
class Region:
    """One top-level hot loop: the blocks it encodes and the
    peripheral stores that load its tables."""

    header: int
    blocks: set[int]
    encoded_blocks: list[int] = field(default_factory=list)
    programming_store_count: int = 0


@dataclass
class RegionalResult:
    """Measurements for the regional-reprogramming flow."""

    name: str
    block_size: int
    baseline_transitions: int
    encoded_transitions: int
    regions: list[Region]
    reloads: int
    reload_words: int  # total peripheral stores across all reloads
    decode_verified: bool

    @property
    def reduction_percent(self) -> float:
        if self.baseline_transitions == 0:
            return 0.0
        return (
            100.0
            * (self.baseline_transitions - self.encoded_transitions)
            / self.baseline_transitions
        )


def _reload_traffic(
    cfg: ControlFlowGraph, regions: Sequence[Region], trace: FetchTrace
) -> tuple[int, int]:
    """``(reloads, reload words)`` over the trace: a region's tables
    are loaded whenever a fetch lands in its body while another
    region's (or none) are loaded.  Each distinct run's sequence of
    entered regions is found once; a group's first occurrence switches
    from the loaded region, each repeat from the run's own last one."""
    region_of = {
        pc: index
        for index, region in enumerate(regions)
        for start in region.blocks
        for pc in range(start, cfg.blocks[start].end, 4)
    }
    entered = {}
    for start, length in trace.run_counts():
        hits = map(region_of.get, range(start, start + 4 * length, 4))
        entered[start, length] = [
            index for index, _ in groupby(i for i in hits if i is not None)
        ]
    stores = [region.programming_store_count for region in regions]
    reloads = words = 0
    loaded = None
    for run, times in zip(zip(trace.starts, trace.lengths), trace.repeats):
        sequence = entered[run]
        if not sequence:
            continue
        for previous, count in ((loaded, 1), (sequence[-1], times - 1)):
            switches = sequence if sequence[0] != previous else sequence[1:]
            reloads += count * len(switches)
            words += count * sum(stores[index] for index in switches)
        loaded = sequence[-1]
    return reloads, words


class RegionalEncodingFlow:
    """Per-region table configurations with software reload between."""

    def __init__(
        self,
        block_size: int,
        tt_capacity: int = 16,
        bbit_capacity: int = 16,
        transformations: Sequence[Transformation] = OPTIMAL_SET,
    ):
        self.block_size = block_size
        self.tt_capacity = tt_capacity
        self.bbit_capacity = bbit_capacity
        self.transformations = tuple(transformations)

    def run(
        self, program: Program, trace: Iterable[int], name: str = "program"
    ) -> RegionalResult:
        trace = FetchTrace.of(trace)
        cfg = ControlFlowGraph.build(program)
        profile = profile_trace(cfg, trace)
        plans = plan_regions(
            cfg,
            profile,
            self.block_size,
            tt_capacity=self.tt_capacity,
            bbit_capacity=self.bbit_capacity,
        )

        image = list(program.words)
        regions: list[Region] = []
        tt_entries: list[dict] = []
        bbit_entries: list[dict] = []
        for plan in plans:
            if not plan.selected:
                continue
            encodings = encode_region(
                cfg, program, plan, self.block_size, image, self.transformations
            )
            region_tt, region_bbit = table_programming(
                encodings, tt_base=len(tt_entries)
            )
            tt_entries += region_tt
            bbit_entries += region_bbit
            regions.append(
                Region(
                    header=plan.header,
                    blocks=set(plan.blocks),
                    encoded_blocks=list(plan.selected),
                    programming_store_count=len(programming_words(encodings)),
                )
            )

        bundle = EncodingBundle(
            name=name,
            block_size=self.block_size,
            text_base=program.text_base,
            encoded_words=image,
            original_digest=_digest(program.words),
            tt_entries=tt_entries,
            bbit_entries=bbit_entries,
        )
        decode_verified = bundle.deploy_and_check(program, trace)
        if regions and not decode_verified:
            raise DecodeVerificationError(
                f"{name}: regional decode failed to restore the stream"
            )
        reloads, reload_words = _reload_traffic(cfg, regions, trace)

        return RegionalResult(
            name=name,
            block_size=self.block_size,
            baseline_transitions=count_trace_transitions(program, trace),
            encoded_transitions=count_trace_transitions(program, trace, image),
            regions=regions,
            reloads=reloads,
            reload_words=reload_words,
            decode_verified=decode_verified,
        )
