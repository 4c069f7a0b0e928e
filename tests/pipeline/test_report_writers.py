"""Tests for the biased-stream theory extension."""

import pytest

from repro.core.theory import expected_improvement_biased, theory_row


class TestBiasedTheory:
    def test_uniform_case_matches_figure3(self):
        for k in (3, 4, 5, 6):
            assert expected_improvement_biased(k, 0.5) == pytest.approx(
                theory_row(k).improvement_percent
            )

    def test_symmetry(self):
        # Global-inversion duality: bias p and 1-p give identical
        # expected improvements.
        for bias in (0.1, 0.25, 0.4):
            assert expected_improvement_biased(5, bias) == pytest.approx(
                expected_improvement_biased(5, 1.0 - bias)
            )

    def test_matches_empirical_sweep(self):
        from repro.core.analysis import random_streams, summarize_streams

        for bias in (0.2, 0.5, 0.8):
            theory = expected_improvement_biased(5, bias)
            measured = summarize_streams(
                random_streams(10, 2000, seed=31, bias=bias), 5
            ).reduction_percent
            # Overlap + sampling noise keep these within ~3 points.
            assert measured == pytest.approx(theory, abs=3.0)

    def test_degenerate_biases(self):
        # All-zero / all-one streams have no transitions to remove.
        assert expected_improvement_biased(5, 0.0) == 0.0
        assert expected_improvement_biased(5, 1.0) == 0.0

    def test_bias_validation(self):
        with pytest.raises(ValueError):
            expected_improvement_biased(5, -0.1)
