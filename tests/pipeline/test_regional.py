"""Tests for the regional-reprogramming flow."""

import pytest

from repro.cfg.graph import ControlFlowGraph
from repro.cfg.profile import profile_trace
from repro.core.program_codec import encode_basic_block
from repro.hw.bbit import BasicBlockIdentificationTable, BBITEntry
from repro.hw.fetch_decoder import FetchDecoder
from repro.hw.peripheral import programming_words
from repro.hw.tt import TransformationTable
from repro.isa.assembler import assemble
from repro.pipeline.flow import EncodingFlow
from repro.pipeline.regional import RegionalEncodingFlow, plan_regions
from repro.sim.cpu import run_program
from repro.sim.tracer import FetchTrace
from repro.workloads.registry import build_workload

# Two sequential phases, each with a big hot loop body: together they
# exceed a small TT, separately each fits.
TWO_PHASE = """
        .text
main:   li $s0, 60
phase1:
        addu $t0, $t1, $t2
        xor  $t3, $t0, $t1
        sll  $t4, $t3, 2
        or   $t5, $t4, $t0
        subu $t6, $t5, $t2
        and  $t7, $t6, $t3
        addu $t1, $t7, $t0
        addiu $s0, $s0, -1
        bnez $s0, phase1
        li $s1, 60
phase2:
        lui  $t0, 0x1234
        ori  $t1, $t0, 0x5678
        srl  $t2, $t1, 3
        nor  $t3, $t2, $t0
        sra  $t4, $t3, 1
        slt  $t5, $t4, $t1
        xor  $t6, $t5, $t2
        addiu $s1, $s1, -1
        bnez $s1, phase2
        li $v0, 10
        syscall
"""


@pytest.fixture(scope="module")
def two_phase():
    program = assemble(TWO_PHASE)
    cpu, trace = run_program(program)
    return program, trace


class TestRegionalFlow:
    def test_decode_verified(self, two_phase):
        program, trace = two_phase
        result = RegionalEncodingFlow(block_size=5).run(
            program, trace, "two-phase"
        )
        assert result.decode_verified
        assert len(result.regions) == 2

    def test_reload_counting(self, two_phase):
        program, trace = two_phase
        result = RegionalEncodingFlow(block_size=5).run(
            program, trace, "two-phase"
        )
        # Phase 1 then phase 2: exactly two region entries.
        assert result.reloads == 2
        assert result.reload_words > 0

    def test_beats_static_under_tt_pressure(self, two_phase):
        program, trace = two_phase
        # A tiny TT cannot hold both phases at once; regional
        # reprogramming gives each phase the whole table.
        capacity = 3
        static = EncodingFlow(block_size=5, tt_capacity=capacity).run(
            program, trace, "static"
        )
        regional = RegionalEncodingFlow(block_size=5, tt_capacity=capacity).run(
            program, trace, "regional"
        )
        assert regional.decode_verified
        assert regional.encoded_transitions < static.encoded_transitions

    def test_matches_static_when_capacity_ample(self, two_phase):
        program, trace = two_phase
        static = EncodingFlow(block_size=5, tt_capacity=32).run(
            program, trace, "static"
        )
        regional = RegionalEncodingFlow(block_size=5, tt_capacity=32).run(
            program, trace, "regional"
        )
        # With room for everything, both approaches encode the same
        # blocks; transitions agree.
        assert regional.encoded_transitions == static.encoded_transitions

    def test_reload_traffic_is_small(self, two_phase):
        program, trace = two_phase
        result = RegionalEncodingFlow(block_size=5).run(
            program, trace, "two-phase"
        )
        # The paper: "the amount of information needed is insignificant
        # in volume".  Reload words must be tiny next to the fetch
        # traffic.
        assert result.reload_words * 32 < 0.05 * 32 * len(trace)

    def test_no_loops_program(self):
        program = assemble(
            ".text\nmain: addu $t0, $t1, $t2\nli $v0, 10\nsyscall\n"
        )
        cpu, trace = run_program(program)
        result = RegionalEncodingFlow(block_size=5).run(program, trace, "flat")
        assert result.regions == []
        assert result.reloads == 0
        assert result.reduction_percent == 0.0

    def test_revisiting_region_reloads_once_per_switch(self):
        # Alternate between two loop phases several times.
        program = assemble(
            """
            .text
main:       li $s7, 3
outer:      li $s0, 10
loopA:      addu $t0, $t1, $t2
            xor  $t3, $t0, $t1
            addiu $s0, $s0, -1
            bnez $s0, loopA
            li $s1, 10
loopB:      lui  $t4, 0x4321
            ori  $t5, $t4, 9
            addiu $s1, $s1, -1
            bnez $s1, loopB
            addiu $s7, $s7, -1
            bnez $s7, outer
            li $v0, 10
            syscall
            """
        )
        cpu, trace = run_program(program)
        result = RegionalEncodingFlow(block_size=4).run(program, trace, "alt")
        assert result.decode_verified
        # The outer loop contains both inner loops, so the whole nest
        # is one top-level region: a single reload.
        assert result.reloads == 1


def _per_fetch_walk(program, trace, block_size, tt_capacity):
    """The regional flow's reference semantics, one fetch at a time:
    each region's blocks installed into its own TT/BBIT, a reload (and
    a fresh decoder on that region's tables) at every fetch that lands
    in a region other than the loaded one, and every fetch decoded
    through the loaded region's decoder (outside any region, the
    stored word).  Returns (reloads, reload words, decode verdict)."""
    cfg = ControlFlowGraph.build(program)
    plans = plan_regions(
        cfg, profile_trace(cfg, trace), block_size, tt_capacity=tt_capacity
    )
    image = list(program.words)
    region_of = {}
    for index, plan in enumerate(plan for plan in plans if plan.selected):
        tt = TransformationTable(tt_capacity)
        bbit = BasicBlockIdentificationTable(16)
        encodings = []
        for start in plan.selected:
            length = plan.lengths[start]
            encoding = encode_basic_block(
                cfg.blocks[start].words[:length], block_size
            )
            bbit.install(
                BBITEntry(
                    pc=start,
                    tt_index=tt.allocate(encoding),
                    num_instructions=length,
                )
            )
            first = program.index_of(start)
            image[first : first + len(encoding)] = encoding.encoded_words
            encodings.append((start, encoding))
        config = (index, tt, bbit, len(programming_words(encodings)))
        for start in plan.blocks:
            region_of[start] = config
    reloads = reload_words = 0
    loaded = decoder = None
    base = program.text_base
    decoded = []
    for pc in trace:
        config = region_of.get(cfg.block_of(pc).start)
        if config is not None and config is not loaded:
            loaded = config
            _, tt, bbit, stores = config
            decoder = FetchDecoder(tt, bbit, block_size)
            reloads += 1
            reload_words += stores
        stored = image[(pc - base) >> 2]
        decoded.append(stored if config is None else decoder.fetch(pc, stored))
    original = [program.words[(pc - base) >> 2] for pc in trace]
    return reloads, reload_words, decoded == original


# Two called loops alternate from main's loop, then two top-level
# loops run back to back (loopC's exit falls into loopD): regions
# switch across runs, within one run, and come back after others.
CALLS = """
        .text
main:   li $s7, 4
outer:  jal fa
        jal fb
        addiu $s7, $s7, -1
        bnez $s7, outer
        li $s0, 12
loopC:  addu $t0, $t1, $t2
        addiu $s0, $s0, -1
        bnez $s0, loopC
loopD:  xor  $t3, $t0, $t1
        addiu $s0, $s0, 1
        slti $t6, $s0, 9
        bnez $t6, loopD
        li $v0, 10
        syscall
fa:     li $s0, 10
loopA:  addu $t0, $t1, $t2
        xor  $t3, $t0, $t1
        addiu $s0, $s0, -1
        bnez $s0, loopA
        jr $ra
fb:     li $s1, 10
loopB:  lui  $t4, 0x4321
        ori  $t5, $t4, 9
        addiu $s1, $s1, -1
        bnez $s1, loopB
        jr $ra
"""


@pytest.mark.parametrize("capacity", [2, 3, 4, 16])
@pytest.mark.parametrize("block_size", [4, 5])
@pytest.mark.parametrize("source", ["two_phase", "calls", "fir"])
def test_reloads_and_verdict_match_the_per_fetch_walk(
    source, block_size, capacity
):
    if source == "fir":
        program = build_workload("fir", samples=24).assemble()
    else:
        program = assemble(TWO_PHASE if source == "two_phase" else CALLS)
    _, trace = run_program(program)
    result = RegionalEncodingFlow(block_size, tt_capacity=capacity).run(
        program, trace, source
    )
    assert (
        result.reloads,
        result.reload_words,
        result.decode_verified,
    ) == _per_fetch_walk(program, trace, block_size, capacity)


def test_repeated_run_across_regions_matches_the_per_fetch_walk():
    # loopC's body falls into loopD's: replayed back to back, each
    # repeat of that one run re-enters loopC's region from loopD's.
    program = assemble(CALLS)
    _, trace = run_program(program)
    crossing = list(
        range(program.address_of("loopC"), program.address_of("loopD") + 16, 4)
    )
    replay = FetchTrace.from_addresses(trace.expand() + crossing * 3)
    assert replay.repeats[-1] == 3
    result = RegionalEncodingFlow(4).run(program, replay, "replay")
    assert (
        result.reloads,
        result.reload_words,
        result.decode_verified,
    ) == _per_fetch_walk(program, replay, 4, 16)
