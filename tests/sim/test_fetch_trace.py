"""Properties of the run-length :class:`FetchTrace` against plain PC
lists, and of the transition counts read from it."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.sim.bus import count_trace_transitions, per_line_trace_transitions
from repro.sim.tracer import FetchTrace
from tests.strategies import fetch_pc_lists

TEXT_WORDS = 48
PROGRAM = assemble(".text\nmain:\n" + "nop\n" * TEXT_WORDS)
BASE = PROGRAM.text_base

images = st.lists(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    min_size=TEXT_WORDS,
    max_size=TEXT_WORDS,
)


def _reference_transitions(trace: list[int], image: list[int]) -> int:
    """Per-fetch popcount of consecutive bus words."""
    words = [image[(pc - BASE) >> 2] for pc in trace]
    return sum(bin(a ^ b).count("1") for a, b in zip(words, words[1:]))


@given(fetch_pc_lists(TEXT_WORDS, BASE))
def test_round_trip(pcs):
    trace = FetchTrace.from_addresses(pcs)
    assert trace.expand() == pcs
    assert list(trace) == pcs
    assert len(trace) == len(pcs)
    assert sum(trace.lengths) == len(pcs)
    assert sum(trace.run_counts().values()) == len(trace.starts)


@given(fetch_pc_lists(TEXT_WORDS, BASE))
def test_runs_are_maximal_and_canonical(pcs):
    trace = FetchTrace.from_addresses(pcs)
    for i in range(1, len(trace.starts)):
        assert trace.starts[i] != trace.starts[i - 1] + 4 * trace.lengths[i - 1]
    rebuilt = FetchTrace()
    for start, length in zip(trace.starts, trace.lengths):
        rebuilt.append_runs([start], [length])
    assert rebuilt == trace


@given(fetch_pc_lists(TEXT_WORDS, BASE))
def test_counts_match_per_fetch_counting(pcs):
    trace = FetchTrace.from_addresses(pcs)
    assert trace.fetch_counts() == Counter(pcs)
    assert trace.edge_counts() == Counter(zip(pcs, pcs[1:]))
    offset = 0
    for start, length in zip(trace.starts, trace.lengths):
        assert pcs[offset : offset + length] == list(
            range(start, start + 4 * length, 4)
        )
        offset += length


@settings(max_examples=150)
@given(fetch_pc_lists(TEXT_WORDS, BASE), images)
def test_transitions_match_per_fetch_reference(pcs, image):
    assert count_trace_transitions(PROGRAM, pcs, image) == _reference_transitions(
        pcs, image
    )
    per_line = per_line_trace_transitions(PROGRAM, pcs, image)
    words = [image[(pc - BASE) >> 2] for pc in pcs]
    for bit, toggles in enumerate(per_line):
        assert toggles == sum(
            ((a ^ b) >> bit) & 1 for a, b in zip(words, words[1:])
        )


@given(
    fetch_pc_lists(TEXT_WORDS, BASE),
    st.sampled_from((BASE - 4, BASE + 4 * TEXT_WORDS, 0)),
    st.data(),
)
def test_out_of_text_address_raises(pcs, outside, data):
    at = data.draw(st.integers(min_value=0, max_value=len(pcs)))
    with pytest.raises(ValueError):
        count_trace_transitions(PROGRAM, pcs[:at] + [outside] + pcs[at:])
