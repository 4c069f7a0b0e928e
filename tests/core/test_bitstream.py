"""Tests for bit-stream utilities and transition counting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bitstream import (
    columns_to_words,
    count_transitions,
    from_paper_string,
    int_to_stream,
    pack_bits,
    to_paper_string,
    validate_bits,
    word_column,
)
from repro.core.transitions import word_transitions

bits = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=64)
words32 = st.lists(
    st.integers(min_value=0, max_value=(1 << 32) - 1), min_size=0, max_size=40
)


class TestTransitions:
    def test_empty_and_singleton(self):
        assert count_transitions([]) == 0
        assert count_transitions([1]) == 0

    def test_alternating(self):
        assert count_transitions([0, 1, 0, 1]) == 3

    def test_constant(self):
        assert count_transitions([1] * 10) == 0

    def test_paper_figure1_example(self):
        # Figure 1: the leftmost column 1010 has two transitions fewer
        # after being stored as 1000.
        original = from_paper_string("1010")
        stored = from_paper_string("1000")
        assert count_transitions(original) - count_transitions(stored) == 2

    @given(bits)
    def test_reversal_invariance(self, stream):
        assert count_transitions(stream) == count_transitions(stream[::-1])

    @given(bits)
    def test_complement_invariance(self, stream):
        assert count_transitions(stream) == count_transitions(
            [1 - b for b in stream]
        )


class TestValidation:
    def test_validate_accepts_bits(self):
        assert validate_bits((0, 1, 1)) == [0, 1, 1]

    def test_validate_rejects_non_bits(self):
        with pytest.raises(ValueError):
            validate_bits([0, 2])
        with pytest.raises(ValueError):
            validate_bits([0.5])


class TestPaperStrings:
    def test_paper_string_reverses_time(self):
        assert to_paper_string([0, 1, 0, 0]) == "0010"
        assert from_paper_string("0010") == [0, 1, 0, 0]

    @given(bits.filter(lambda s: len(s) > 0))
    def test_roundtrip(self, stream):
        assert from_paper_string(to_paper_string(stream)) == stream

    def test_bad_strings_rejected(self):
        with pytest.raises(ValueError):
            from_paper_string("")
        with pytest.raises(ValueError):
            from_paper_string("01a")


class TestIntConversion:
    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_roundtrip(self, value):
        assert pack_bits(int_to_stream(value, 16)) == value

    def test_width_checks(self):
        with pytest.raises(ValueError):
            int_to_stream(4, 2)
        with pytest.raises(ValueError):
            int_to_stream(1, 0)


class TestWordColumns:
    def test_column_extraction(self):
        words = [0b01, 0b10, 0b11]
        assert word_column(words, 0) == [1, 0, 1]
        assert word_column(words, 1) == [0, 1, 1]

    @given(words32)
    def test_columns_roundtrip(self, words):
        columns = [word_column(words, b) for b in range(32)]
        assert columns_to_words(columns) == words or not words

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            columns_to_words([[0, 1], [0]])


class TestWordTransitions:
    @given(words32)
    def test_total_equals_column_sums(self, words):
        expected = sum(
            count_transitions(word_column(words, b)) for b in range(32)
        )
        assert word_transitions(words) == expected
