"""Bus codecs continued across pieces cost what the whole stream costs.

The per-region selector costs a stateful codec (bus-invert, T0,
low-weight) one run piece at a time, each encoded from the state the
previous piece reports as its ``exit``.  That is only sound if cutting
a stream anywhere and carrying the state across the cuts changes
nothing: the pieces' transitions, entry edges included, must sum to the
one-shot stream's, and each piece must decode back to its own words
from its entry state.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.protocol import make_encoder

MASK = (1 << 32) - 1
CODECS = ("bus-invert", "t0", "low-weight")

#: streams of sequential address runs (T0's freeze), some starting at
#: the top of the address space so they wrap, mixed with repeated and
#: arbitrary words (bus-invert's inversions, low-weight's differences)
streams = st.lists(
    st.tuples(
        st.sampled_from([0, 0x400000, 0xFFFFFFF8, 0xDEADBEEF, 0x0F0F0F0F])
        | st.integers(min_value=0, max_value=MASK),
        st.integers(min_value=1, max_value=6),
    ),
    max_size=12,
).map(lambda runs: [(start + 4 * i) & MASK for start, n in runs for i in range(n)])

cuts = st.lists(st.integers(min_value=0, max_value=80), max_size=8)


def _pieces(words, points):
    """``words`` cut at every point (clamped, so some pieces are empty)."""
    bounds = [0, *sorted(min(p, len(words)) for p in points), len(words)]
    return [words[a:b] for a, b in zip(bounds, bounds[1:])]


def _check(scheme, words, points):
    encoder = make_encoder(scheme).fit(words)
    total = 0
    state = None
    for piece in _pieces(words, points):
        stream = encoder.encode(piece, state)
        assert encoder.decode(stream, state) == [w & MASK for w in piece]
        total += stream.transitions()
        state = stream.exit
    assert total == encoder.encode(words).transitions()


@pytest.mark.parametrize("scheme", CODECS)
@settings(max_examples=150, deadline=None)
@given(words=streams, points=cuts)
@example(words=[], points=[0, 0])
@example(words=[0x400000 + 4 * i for i in range(8)], points=[1, 4, 4, 7])
@example(words=[0, MASK, 0, MASK, 0x0000FFFF], points=[2, 3])
def test_split_pieces_sum_to_one_shot(scheme, words, points):
    _check(scheme, words, points)


@pytest.mark.parametrize("scheme", CODECS)
def test_every_single_cut_of_a_mixed_stream(scheme):
    words = [0x400000 + 4 * i for i in range(6)] + [0xFFFF0000, 0x0000FFFF] * 3
    words += [0x400010 + 4 * i for i in range(5)]
    for point in range(len(words) + 1):
        _check(scheme, words, [point])
