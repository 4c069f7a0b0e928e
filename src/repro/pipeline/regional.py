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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.cfg.graph import ControlFlowGraph
from repro.cfg.hotspot import select_hot_blocks
from repro.cfg.loops import NaturalLoop, find_natural_loops
from repro.cfg.profile import profile_trace
from repro.core.program_codec import encode_basic_block
from repro.core.transformations import OPTIMAL_SET, Transformation
from repro.hw.bbit import BasicBlockIdentificationTable, BBITEntry
from repro.hw.fetch_decoder import FetchDecoder
from repro.hw.peripheral import programming_words
from repro.hw.tt import TransformationTable
from repro.isa.assembler import Program
from repro.sim.bus import count_trace_transitions
from repro.sim.tracer import FetchTrace


@dataclass
class Region:
    """One top-level hot loop and its table configuration."""

    header: int
    blocks: set[int]
    tt: TransformationTable
    bbit: BasicBlockIdentificationTable
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


def _top_level_loops(loops: Sequence[NaturalLoop]) -> list[NaturalLoop]:
    return [
        loop
        for loop in loops
        if not any(loop.is_nested_in(other) for other in loops)
    ]


@dataclass
class RegionPlan:
    """A hot region before any encoding commitment: its loop header,
    the body blocks it claims, and the blocks/lengths the hot-block
    selector would encode under the full table budget.  Shared between
    the regional flow (which always encodes with TT/BBIT) and the
    per-scheme selector (which may hand the region to a different
    backend entirely)."""

    header: int
    blocks: set[int]
    selected: list[int]
    lengths: dict[int, int]  # selected block start -> encoded length


def plan_regions(
    cfg: ControlFlowGraph,
    profile,
    block_size: int,
    tt_capacity: int = 16,
    bbit_capacity: int = 16,
) -> list[RegionPlan]:
    """Decompose the program into top-level hot-loop regions, ordered
    by profile weight, each with its own full-budget block selection.
    Regions whose selection came up empty are kept (``selected == []``)
    — the selector can still hand them to a non-TT backend."""
    loops = find_natural_loops(cfg)
    top_loops = sorted(
        _top_level_loops(loops), key=profile.loop_weight, reverse=True
    )
    plans: list[RegionPlan] = []
    claimed: set[int] = set()
    for loop in top_loops:
        body = loop.body - claimed
        if not body:
            continue
        claimed |= body
        plan = select_hot_blocks(
            profile,
            block_size,
            tt_capacity=tt_capacity,
            bbit_capacity=bbit_capacity,
            loops=[loop],
            loops_only=True,
        )
        selected = [start for start in plan.selected if start in body]
        lengths = {
            start: plan.encoded_length(start, len(cfg.blocks[start]))
            for start in selected
        }
        plans.append(
            RegionPlan(
                header=loop.header,
                blocks=set(body),
                selected=selected,
                lengths=lengths,
            )
        )
    return plans


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
        block_to_region: dict[int, Region] = {}
        for region_plan in plans:
            selected = region_plan.selected
            if not selected:
                continue
            region = Region(
                header=region_plan.header,
                blocks=set(region_plan.blocks),
                tt=TransformationTable(self.tt_capacity),
                bbit=BasicBlockIdentificationTable(self.bbit_capacity),
            )
            encodings = []
            for start in selected:
                block = cfg.blocks[start]
                length = region_plan.lengths[start]
                encoding = encode_basic_block(
                    block.words[:length],
                    self.block_size,
                    transformations=self.transformations,
                )
                base_index = region.tt.allocate(encoding)
                region.bbit.install(
                    BBITEntry(
                        pc=start, tt_index=base_index, num_instructions=length
                    )
                )
                first = program.index_of(start)
                for offset, word in enumerate(encoding.encoded_words):
                    image[first + offset] = word
                region.encoded_blocks.append(start)
                encodings.append((start, encoding))
            region.programming_store_count = len(programming_words(encodings))
            regions.append(region)
            for start in region.blocks:
                block_to_region[start] = region

        # Walk the trace: switch table configurations at region entry,
        # decode through the active region's hardware.
        reloads = 0
        reload_words = 0
        active: Region | None = None
        decoder: FetchDecoder | None = None
        base = program.text_base
        decoded: list[int] = []
        for pc in trace:
            block_start = cfg.block_of(pc).start
            region = block_to_region.get(block_start)
            if region is not None and region is not active:
                active = region
                decoder = FetchDecoder(
                    region.tt, region.bbit, self.block_size
                )
                reloads += 1
                reload_words += region.programming_store_count
            stored = image[(pc - base) >> 2]
            if region is None or decoder is None:
                decoded.append(stored)
            else:
                decoded.append(decoder.fetch(pc, stored))
        original = [program.words[(pc - base) >> 2] for pc in trace]
        decode_verified = decoded == original
        if regions and not decode_verified:
            raise RuntimeError(
                f"{name}: regional decode failed to restore the stream"
            )

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
