"""Remaining tracer coverage: empty-trace edge cases."""

from repro.isa.assembler import assemble
from repro.sim.bus import count_trace_transitions, per_line_trace_transitions
from repro.sim.tracer import FetchTrace


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
