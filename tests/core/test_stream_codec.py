"""Tests for chained overlapped-block stream encoding (Section 6)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import random_streams
from repro.core.bitstream import count_transitions
from repro.core.program_codec import decode_basic_block, encode_basic_block
from repro.core.reference import decode_stream_reference, encode_stream_reference
from repro.core.stream_codec import (
    StreamEncoder,
    decode_stream,
    encode_stream,
    segment_bounds,
)
from repro.core.transformations import ALL_TRANSFORMATIONS, OPTIMAL_SET

streams = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=80)
block_sizes = st.integers(min_value=2, max_value=7)


class TestSegmentBounds:
    def test_single_block(self):
        assert segment_bounds(5, 5) == [(0, 5)]

    def test_one_bit_overlap(self):
        # Section 6's own example: size-4 blocks share one bit.
        bounds = segment_bounds(7, 4)
        assert bounds == [(0, 4), (3, 4)]

    def test_tail_block_shorter(self):
        assert segment_bounds(6, 5) == [(0, 5), (4, 2)]

    def test_disjoint_mode(self):
        assert segment_bounds(10, 5, overlapped=False) == [(0, 5), (5, 5)]
        assert segment_bounds(11, 5, overlapped=False) == [
            (0, 5),
            (5, 5),
            (10, 1),
        ]

    def test_degenerate_lengths(self):
        assert segment_bounds(0, 5) == []
        assert segment_bounds(1, 5) == [(0, 1)]

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            segment_bounds(10, 1)

    @given(
        st.integers(min_value=1, max_value=200),
        block_sizes,
    )
    def test_overlapped_coverage(self, length, block_size):
        bounds = segment_bounds(length, block_size)
        covered = set()
        for start, seg_len in bounds:
            covered.update(range(start, start + seg_len))
        assert covered == set(range(length))
        # Consecutive blocks overlap in exactly one position.
        for (s1, l1), (s2, _) in zip(bounds, bounds[1:]):
            assert s1 + l1 - 1 == s2


class TestRoundTrip:
    @given(streams, block_sizes)
    @settings(max_examples=300)
    def test_greedy_roundtrip(self, stream, block_size):
        encoding = encode_stream(stream, block_size, strategy="greedy")
        assert decode_stream(encoding) == stream

    @given(streams, block_sizes)
    @settings(max_examples=150)
    def test_optimal_roundtrip(self, stream, block_size):
        encoding = encode_stream(stream, block_size, strategy="optimal")
        assert decode_stream(encoding) == stream

    @given(streams, block_sizes)
    @settings(max_examples=150)
    def test_disjoint_roundtrip(self, stream, block_size):
        encoding = encode_stream(stream, block_size, strategy="disjoint")
        assert decode_stream(encoding) == stream

    @given(streams, block_sizes)
    @settings(max_examples=150)
    def test_plan_decode_matches(self, stream, block_size):
        # The bit-serial oracle, walking the segment plan bit by bit,
        # must agree with the bitplane decoder.
        encoding = encode_stream(stream, block_size)
        assert decode_stream_reference(encoding) == decode_stream(encoding)
        assert decode_stream_reference(encoding) == stream


class TestNeverWorse:
    @given(streams, block_sizes)
    @settings(max_examples=300)
    def test_greedy_never_increases_transitions(self, stream, block_size):
        encoding = encode_stream(stream, block_size)
        assert encoding.encoded_transitions <= encoding.original_transitions

    @given(streams, block_sizes)
    @settings(max_examples=150)
    def test_optimal_never_worse_than_greedy(self, stream, block_size):
        greedy = encode_stream(stream, block_size, strategy="greedy")
        optimal = encode_stream(stream, block_size, strategy="optimal")
        assert optimal.encoded_transitions <= greedy.encoded_transitions


class TestPaperNumbers:
    def test_section6_fifty_percent_claim(self):
        # "in all the cases the total reduction in bit transitions was
        # within 1% of the expected value of 50% for codes with block
        # size of five bits" (length-1000 random sequences).
        pooled_original = 0
        pooled_encoded = 0
        for stream in random_streams(count=30, length=1000, seed=42):
            encoding = encode_stream(stream, 5)
            pooled_original += encoding.original_transitions
            pooled_encoded += encoding.encoded_transitions
        reduction = 100.0 * (pooled_original - pooled_encoded) / pooled_original
        assert reduction == pytest.approx(50.0, abs=1.5)

    def test_greedy_matches_global_optimum_on_random_streams(self):
        # Section 6: "the iterative approach leads in practice to
        # optimal results."
        for stream in random_streams(count=5, length=200, seed=7):
            greedy = encode_stream(stream, 5, strategy="greedy")
            optimal = encode_stream(stream, 5, strategy="optimal")
            assert greedy.encoded_transitions == optimal.encoded_transitions

    @pytest.mark.parametrize(
        "block_size,expected",
        [(4, 58.3), (5, 50.0), (6, 43.8), (7, 38.5)],
    )
    def test_random_stream_reduction_tracks_figure3(self, block_size, expected):
        pooled_original = 0
        pooled_encoded = 0
        for stream in random_streams(count=20, length=1000, seed=block_size):
            encoding = encode_stream(stream, block_size)
            pooled_original += encoding.original_transitions
            pooled_encoded += encoding.encoded_transitions
        reduction = 100.0 * (pooled_original - pooled_encoded) / pooled_original
        assert reduction == pytest.approx(expected, abs=2.0)


class TestOverlapMatters:
    def test_overlap_beats_disjoint_on_random_streams(self):
        # The paper dismisses disjoint blocks: boundary transitions are
        # uncontrolled.  Overlapped encoding must strictly win overall.
        total_overlap = 0
        total_disjoint = 0
        for stream in random_streams(count=10, length=500, seed=13):
            total_overlap += encode_stream(
                stream, 5, strategy="greedy"
            ).encoded_transitions
            total_disjoint += encode_stream(
                stream, 5, strategy="disjoint"
            ).encoded_transitions
        assert total_overlap < total_disjoint


class TestEncodingObject:
    def test_empty_stream(self):
        encoding = encode_stream([], 5)
        assert encoding.encoded == ()
        assert decode_stream(encoding) == []
        assert encoding.reduction_percent == 0.0

    def test_single_bit_stream(self):
        encoding = encode_stream([1], 5)
        assert encoding.encoded == (1,)
        assert len(encoding.segments) == 1
        assert encoding.segments[0].transformation.is_identity

    def test_segments_cover_stream(self):
        stream = [0, 1] * 20
        encoding = encode_stream(stream, 5)
        assert encoding.segments[0].start == 0
        assert encoding.segments[-1].end == len(stream)

    def test_alternating_stream_collapses(self):
        # 0101... decodes via ~y from an all-constant stored stream.
        stream = [0, 1] * 25
        encoding = encode_stream(stream, 5)
        assert encoding.encoded_transitions == 0
        assert encoding.reduction_percent == 100.0

    def test_constant_stream_untouched(self):
        stream = [1] * 30
        encoding = encode_stream(stream, 5)
        assert encoding.encoded_transitions == 0
        assert encoding.original_transitions == 0

    def test_transition_counts_consistent(self):
        stream = [0, 0, 1, 1, 0, 1, 0, 0, 1]
        encoding = encode_stream(stream, 4)
        assert encoding.original_transitions == count_transitions(stream)
        assert encoding.encoded_transitions == count_transitions(
            list(encoding.encoded)
        )


class TestEncoderConfiguration:
    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            StreamEncoder(5, strategy="magic")

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            StreamEncoder(1)

    def test_full_set_at_least_as_good(self):
        for stream in random_streams(count=5, length=300, seed=99):
            eight = encode_stream(stream, 5, OPTIMAL_SET)
            sixteen = encode_stream(stream, 5, ALL_TRANSFORMATIONS)
            assert (
                sixteen.encoded_transitions <= eight.encoded_transitions
            )

    def test_plan_length_mismatch_rejected(self):
        encoding = encode_basic_block([0, 1, 0, 1, 0, 1], 4)
        truncated = dataclasses.replace(encoding, segment_plans=())
        with pytest.raises(ValueError, match="plan length 0 does not match"):
            decode_basic_block(truncated)

    def test_optimal_empty_dp_state_has_clear_error(self):
        # A history-only candidate set leaves the optimal DP with no
        # feasible state; the failure must name the problem rather
        # than surface as min() on an empty sequence.
        from repro.core.boolfunc import TT_Y, BoolFunc
        from repro.core.transformations import Transformation

        history_only = (Transformation(BoolFunc(TT_Y)),)
        for encode in (encode_stream, encode_stream_reference):
            with pytest.raises(
                RuntimeError, match="optimal DP state is empty"
            ):
                encode([0, 1, 1, 0, 1], 3, history_only, strategy="optimal")
