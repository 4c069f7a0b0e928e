"""Tests for vertical per-bus-line encoding of instruction blocks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitstream import word_column
from repro.core.program_codec import (
    BlockEncoding,
    decode_basic_block,
    encode_basic_block,
    tt_entries_required,
)
from repro.core.stream_codec import encode_stream, segment_bounds

word_lists = st.lists(
    st.integers(min_value=0, max_value=(1 << 32) - 1), min_size=1, max_size=30
)


class TestRoundTrip:
    @given(word_lists, st.integers(min_value=2, max_value=7))
    @settings(max_examples=100, deadline=None)
    def test_decode_restores_words(self, words, block_size):
        encoding = encode_basic_block(words, block_size)
        assert decode_basic_block(encoding) == words

    def test_empty_block(self):
        encoding = encode_basic_block([], 5)
        assert encoding.encoded_words == ()
        assert decode_basic_block(encoding) == []

    def test_single_instruction_block(self):
        encoding = encode_basic_block([0xDEADBEEF], 5)
        assert encoding.encoded_words == (0xDEADBEEF,)
        assert encoding.num_segments == 1
        assert all(t.is_identity for t in encoding.segment_plans[0])

    @pytest.mark.parametrize("count", [9, 12, 13, 20])
    def test_disjoint_block_round_trip(self, count):
        # Disjoint segments re-anchor at every start and share no
        # boundary bit; decode must follow the encoding's own layout,
        # whose segment count can differ from the overlapped one.
        rng = random.Random(count)
        words = [rng.getrandbits(32) for _ in range(count)]
        encoding = encode_basic_block(words, 5, strategy="disjoint")
        assert not encoding.overlapped
        assert encoding.bounds == segment_bounds(count, 5, overlapped=False)
        assert decode_basic_block(encoding) == words


class TestTransitionAccounting:
    @given(word_lists, st.integers(min_value=4, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_never_worse(self, words, block_size):
        encoding = encode_basic_block(words, block_size)
        assert encoding.encoded_transitions <= encoding.original_transitions

    def test_word_transitions_equal_column_sums(self):
        rng = random.Random(5)
        words = [rng.getrandbits(32) for _ in range(20)]
        encoding = encode_basic_block(words, 5)
        per_column = sum(
            encode_stream(word_column(words, b), 5).encoded_transitions
            for b in range(32)
        )
        assert encoding.encoded_transitions == per_column

    def test_loop_like_code_reduces_well(self):
        # A register-stepping loop body: high vertical regularity.
        base = 0x8C880000  # lw-style opcode
        words = [base | (i & 0x1F) << 16 | (i * 4) & 0xFFFF for i in range(16)]
        encoding = encode_basic_block(words, 5)
        assert encoding.reduction_percent > 20.0

    def test_reduction_percent_zero_guard(self):
        encoding = encode_basic_block([7, 7, 7, 7], 4)
        assert encoding.original_transitions == 0
        assert encoding.reduction_percent == 0.0


class TestSegmentPlans:
    def test_plan_shape(self):
        words = list(range(12))
        encoding = encode_basic_block(words, 5)
        assert encoding.num_segments == len(encoding.bounds)
        for plan in encoding.segment_plans:
            assert len(plan) == 32

    def test_selectors_within_three_bits(self):
        rng = random.Random(11)
        words = [rng.getrandbits(32) for _ in range(17)]
        encoding = encode_basic_block(words, 6)
        for row in encoding.selectors():
            for selector in row:
                assert 0 <= selector < 8

    def test_selectors_reject_unmapped_transformations(self):
        from repro.core.transformations import ALL_TRANSFORMATIONS, by_name

        words = [0b100, 0b010, 0b100, 0b001, 0b111]
        encoding = encode_basic_block(words, 5, transformations=ALL_TRANSFORMATIONS)
        has_unmapped = any(
            t.selector is None
            for plan in encoding.segment_plans
            for t in plan
        )
        if has_unmapped:
            with pytest.raises(ValueError):
                encoding.selectors()
        else:
            encoding.selectors()  # must not raise

    def test_word_width_validation(self):
        with pytest.raises(ValueError):
            encode_basic_block([1 << 32], 5)
        with pytest.raises(ValueError):
            encode_basic_block([-1], 5)


class TestTtCapacityAccounting:
    def test_paper_sizing_example(self):
        # Section 7.2: "if the low-power code utilizes sequences of
        # size 7, then a 16 entry TT can handle a total of 7 * 16 = 112
        # instructions".  With the one-bit overlap each non-initial
        # entry contributes k-1 new instructions, so 16 entries cover
        # 1 + 16 * 6 = 97 instructions; we assert our accounting.
        assert tt_entries_required(7, 7) == 1
        assert tt_entries_required(97, 7) == 16

    @pytest.mark.parametrize(
        "instructions,block_size,expected",
        [(1, 5, 1), (2, 5, 1), (5, 5, 1), (6, 5, 2), (9, 5, 2), (10, 5, 3)],
    )
    def test_entry_counts(self, instructions, block_size, expected):
        assert tt_entries_required(instructions, block_size) == expected

    def test_matches_actual_encoding(self):
        for m in range(1, 40):
            for k in (4, 5, 6, 7):
                words = [(m * 37 + i) & 0xFFFFFFFF for i in range(m)]
                encoding = encode_basic_block(words, k)
                assert encoding.num_segments == tt_entries_required(m, k)


class TestNarrowBuses:
    def test_width_16(self):
        words = [i & 0xFFFF for i in range(100, 120)]
        encoding = encode_basic_block(words, 5, width=16)
        assert decode_basic_block(encoding) == words
        for plan in encoding.segment_plans:
            assert len(plan) == 16

    def test_width_8_roundtrip(self):
        words = [0xA5, 0x5A, 0xFF, 0x00, 0x81]
        encoding = encode_basic_block(words, 4, width=8)
        assert decode_basic_block(encoding) == words
