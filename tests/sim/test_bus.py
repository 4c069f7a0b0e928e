"""Tests for the bus transition/energy model and the fetch tracer."""

import pytest

from repro.isa.assembler import assemble
from repro.sim.bus import (
    BusModel,
    count_trace_transitions,
    per_line_trace_transitions,
)
from repro.sim.cpu import run_program
from repro.sim.tracer import FetchTrace


@pytest.fixture(scope="module")
def looped_program():
    return assemble(
        """
        .text
        main: li $t0, 4
        loop: addiu $t0, $t0, -1
        bnez $t0, loop
        li $v0, 10
        syscall
        """
    )


class TestTransitionCounting:
    def test_matches_manual_hamming(self, looped_program):
        cpu, trace = run_program(looped_program)
        words = [looped_program.word_at(a) for a in trace]
        expected = sum((a ^ b).bit_count() for a, b in zip(words, words[1:]))
        assert count_trace_transitions(looped_program, trace) == expected

    def test_per_line_sums_to_total(self, looped_program):
        cpu, trace = run_program(looped_program)
        per_line = per_line_trace_transitions(looped_program, trace)
        assert len(per_line) == 32
        assert sum(per_line) == count_trace_transitions(looped_program, trace)

    def test_empty_and_single_traces(self, looped_program):
        assert count_trace_transitions(looped_program, []) == 0
        assert (
            count_trace_transitions(looped_program, [looped_program.entry])
            == 0
        )

    def test_constant_fetch_no_transitions(self, looped_program):
        pc = looped_program.entry
        assert count_trace_transitions(looped_program, [pc] * 10) == 0

    def test_custom_image(self, looped_program):
        cpu, trace = run_program(looped_program)
        # An all-equal image produces zero transitions.
        image = [0xAAAAAAAA] * len(looped_program.words)
        assert count_trace_transitions(looped_program, trace, image) == 0

    def test_bad_address_rejected(self, looped_program):
        with pytest.raises(ValueError):
            count_trace_transitions(looped_program, [0])


class TestEnergyModel:
    def test_energy_proportional_to_transitions(self):
        model = BusModel()
        assert model.energy_joules(200) == pytest.approx(
            2 * model.energy_joules(100)
        )

    def test_offchip_costs_more(self):
        onchip = BusModel(line_capacitance=0.5e-12)
        offchip = BusModel(line_capacitance=20e-12)
        assert offchip.energy_joules(1000) > 10 * onchip.energy_joules(1000)


class TestFetchTrace:
    def test_record(self, looped_program):
        cpu, trace = run_program(looped_program)
        assert isinstance(trace, FetchTrace)
        assert trace.expand()[0] == looped_program.entry
        assert len(trace) == cpu.steps

    def test_fetch_counts(self, looped_program):
        cpu, trace = run_program(looped_program)
        loop = looped_program.address_of("loop")
        assert trace.fetch_counts()[loop] == 4

    def test_words_align_with_addresses(self, looped_program):
        cpu, trace = run_program(looped_program)
        words = [looped_program.word_at(a) for a in trace.expand()]
        assert len(words) == len(trace)
        assert words[0] == looped_program.word_at(trace.expand()[0])

    def test_edge_counts(self, looped_program):
        cpu, trace = run_program(looped_program)
        loop = looped_program.address_of("loop")
        # back edge (bnez -> loop) taken 3 times
        assert trace.edge_counts()[(loop + 4, loop)] == 3

    def test_coverage_full(self, looped_program):
        cpu, trace = run_program(looped_program)
        text = range(looped_program.text_base, looped_program.text_end, 4)
        assert set(trace.fetch_counts()) == set(text)
