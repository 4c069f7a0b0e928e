"""Differential checks: clean inputs agree, contracts hold, sweeps pass."""

import pytest

from tests.strategies import rng_for, seeded_stream, seeded_words

from repro.verify.checks import (
    TABLE_FAULTS,
    CheckResult,
    check_encoders,
    check_program,
    check_stream,
    check_tables,
    sweep_boundary,
    sweep_codebook,
    sweep_encoder_tables,
    sweep_tau,
)


class TestCheckResult:
    def test_fail_keeps_only_the_first_mismatch(self):
        result = CheckResult()
        result.fail("first", detail=1)
        result.fail("second", detail=2)
        assert not result.ok
        assert result.mismatch == {"kind": "first", "detail": 1}

    def test_coverage_lists_are_sorted_and_json_friendly(self):
        result = CheckResult()
        result.cover("dim", "b")
        result.cover("dim", "a")
        assert result.coverage_lists() == {"dim": ["a", "b"]}


class TestCheckStream:
    @pytest.mark.parametrize("strategy", ["greedy", "optimal", "disjoint"])
    def test_clean_streams_agree_everywhere(self, strategy):
        stream = seeded_stream(("checks", strategy), 120, bias=0.5)
        result = check_stream(stream, 5, strategy)
        assert result.ok, result.mismatch
        assert "codebook_entries" in result.coverage
        assert "block_sizes" in result.coverage

    def test_boundary_coverage_keys(self):
        stream = seeded_stream(("checks", "tail"), 10, bias=0.5)
        result = check_stream(stream, 4, "greedy")
        assert result.ok
        assert result.coverage["boundary_residues"] == {
            f"k=4|mod={10 % 3}"
        }
        assert len(result.coverage["tail_lengths"]) == 1

    def test_first_segment_covers_anchored(self):
        result = check_stream([1, 0, 1, 1], 4, "greedy")
        assert result.ok
        assert any(
            "anchored" in key
            for key in result.coverage["codebook_entries"]
        )


class TestCheckProgram:
    def test_clean_program_agrees_in_all_modes(self):
        words = seeded_words(("checks", "program"), 14)
        result = check_program(words, 5)
        assert result.ok, result.mismatch
        assert result.coverage["decoder_transitions"] == {
            "clean:strict",
            "clean:recover",
        }

    def test_single_word_block(self):
        result = check_program([0xDEADBEEF], 4)
        assert result.ok, result.mismatch


class TestCheckTables:
    @pytest.mark.parametrize("fault", TABLE_FAULTS)
    def test_every_fault_class_meets_its_contract(self, fault):
        rng = rng_for("checks-tables", fault)
        blocks = [
            [rng.getrandbits(32) for _ in range(6)] for _ in range(2)
        ]
        result = check_tables(blocks, 5, fault, f"flip:{fault}")
        assert result.ok, result.mismatch
        event = {
            "none": "clean",
            "single_bit": "corrected",
            "double_bit_tt": "tt_uncorrectable",
            "double_bit_bbit": "bbit_uncorrectable",
        }[fault]
        assert result.coverage["decoder_transitions"] == {
            f"{event}:strict",
            f"{event}:recover",
        }

    def test_unknown_fault_is_a_mismatch_not_a_crash(self):
        result = check_tables([[1, 2]], 4, "gamma_ray", "seed")
        assert not result.ok
        assert result.mismatch["kind"] == "unknown_table_fault"

    def test_same_flip_seed_reproduces_the_same_verdict(self):
        blocks = [seeded_words(("checks", "repro"), 8)]
        a = check_tables(blocks, 4, "double_bit_tt", "flip:same")
        b = check_tables(blocks, 4, "double_bit_tt", "flip:same")
        assert a.ok == b.ok
        assert a.coverage_lists() == b.coverage_lists()


class TestSweeps:
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_codebook_sweep_is_clean_and_exhaustive(self, k):
        result = sweep_codebook(k)
        assert result.ok, result.mismatch
        assert len(result.coverage["codebook_entries"]) == 3 * (1 << k)

    @pytest.mark.parametrize("k", [3, 5])
    def test_tau_sweep_covers_all_eight_selectors(self, k):
        result = sweep_tau(k)
        assert result.ok, result.mismatch
        assert len(result.coverage["tau_selectors"]) == 8

    def test_boundary_sweep_covers_every_residue_and_tail(self, k=5):
        result = sweep_boundary(k)
        assert result.ok, result.mismatch
        assert result.coverage["boundary_residues"] == {
            f"k={k}|mod={r}" for r in range(k - 1)
        }
        assert result.coverage["tail_lengths"] == {
            f"k={k}|tail={t}" for t in range(1, k + 1)
        }


class TestCheckEncoders:
    def test_clean_on_hot_stream_covers_every_scheme(
        self, seeded_hot_words, encoder_schemes
    ):
        result = check_encoders(seeded_hot_words("checks-enc", 120))
        assert result.ok, result.mismatch
        assert result.coverage["encoder_schemes"] == set(encoder_schemes)

    def test_clean_on_empty_and_singleton_streams(self):
        for words in ([], [0xFFFFFFFF]):
            result = check_encoders(words)
            assert result.ok, result.mismatch

    def test_scheme_subset_restricts_coverage(self):
        result = check_encoders([1, 2, 3], schemes=("gray",))
        assert result.ok, result.mismatch
        assert result.coverage["encoder_schemes"] == {"gray"}

    def test_deterministic_verdict(self, seeded_hot_words):
        words = seeded_hot_words("checks-det", 80)
        a, b = check_encoders(words), check_encoders(words)
        assert a.ok == b.ok
        assert a.coverage_lists() == b.coverage_lists()


class TestSweepEncoderTables:
    def test_sweep_is_clean_and_covers_all_schemes(self, encoder_schemes):
        result = sweep_encoder_tables()
        assert result.ok, result.mismatch
        assert result.coverage["encoder_schemes"] == set(encoder_schemes)

    def test_sweep_is_deterministic(self):
        a, b = sweep_encoder_tables(), sweep_encoder_tables()
        assert a.ok == b.ok
        assert a.coverage_lists() == b.coverage_lists()
