"""Remaining tracer coverage: the window helper and edge cases."""

from repro.isa.assembler import assemble
from repro.sim.bus import count_trace_transitions, per_line_trace_transitions
from repro.sim.tracer import FetchTrace, window


class TestWindow:
    def test_slice_semantics(self):
        addresses = list(range(0, 100, 4))
        assert list(window(addresses, 2, 3)) == [8, 12, 16]

    def test_clamped_at_end(self):
        assert list(window([4, 8], 1, 10)) == [8]

    def test_empty(self):
        assert list(window([], 0, 5)) == []


class TestEmptyTrace:
    def test_empty_statistics(self):
        trace = FetchTrace()
        assert len(trace) == 0
        assert trace.expand() == []
        assert not trace.run_counts()
        assert not trace.fetch_counts()
        assert not trace.edge_counts()

    def test_empty_program_coverage(self):
        program = assemble("")
        assert count_trace_transitions(program, FetchTrace()) == 0
        assert per_line_trace_transitions(program, FetchTrace()) == [0] * 32
