"""Tests for stream statistics and the Section 6 experiment helpers."""

import pytest

from repro.core.analysis import (
    ReductionSummary,
    random_streams,
    summarize_streams,
)


class TestRandomStreams:
    def test_reproducible(self):
        assert random_streams(3, 50, seed=1) == random_streams(3, 50, seed=1)

    def test_different_seeds_differ(self):
        assert random_streams(1, 200, seed=1) != random_streams(1, 200, seed=2)

    def test_shape(self):
        streams = random_streams(4, 100)
        assert len(streams) == 4
        assert all(len(s) == 100 for s in streams)
        assert all(bit in (0, 1) for s in streams for bit in s)

    def test_bias(self):
        ones = sum(sum(s) for s in random_streams(5, 1000, seed=3, bias=0.9))
        assert ones > 4000  # ~4500 expected

    def test_bias_bounds(self):
        with pytest.raises(ValueError):
            random_streams(1, 10, bias=1.5)


class TestSummaries:
    def test_pooled_reduction(self):
        streams = [[0, 1] * 50, [1, 0] * 50]
        summary = summarize_streams(streams, 5)
        assert summary.streams == 2
        assert summary.reduction_percent == 100.0
        assert summary.mean_percent == 100.0

    def test_empty_summary_guards(self):
        summary = ReductionSummary(0, 0, 0, ())
        assert summary.reduction_percent == 0.0
        assert summary.mean_percent == 0.0
        assert summary.stdev_percent == 0.0

    def test_section6_defaults(self):
        # The Section 6 experiment: uniform random streams at k=5.
        summary = summarize_streams(random_streams(5, 400, seed=2003), 5)
        assert summary.streams == 5
        assert 45.0 < summary.reduction_percent < 55.0

    def test_biased_streams_reduce_more(self):
        # Heavily biased streams have few transitions to begin with;
        # percentage reduction stays high because long runs encode to
        # constant stored streams.
        uniform = summarize_streams(random_streams(5, 500, 1, 0.5), 5)
        biased = summarize_streams(random_streams(5, 500, 1, 0.05), 5)
        assert biased.original_transitions < uniform.original_transitions
        assert biased.reduction_percent > 0.0
