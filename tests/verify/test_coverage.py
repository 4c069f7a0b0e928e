"""Coverage-tracker universes, merging, and the acceptance gate."""

from repro.verify.coverage import (
    DECODER_TRANSITIONS,
    GATED_BLOCK_SIZES,
    CoverageTracker,
    codebook_key,
    tau_key,
)


class TestUniverses:
    def test_codebook_universe_is_three_variants_per_word(self):
        tracker = CoverageTracker([4])
        assert len(tracker.universes["codebook_entries"]) == 3 * 16

    def test_tau_universe_is_eight_per_block_size(self):
        tracker = CoverageTracker([4, 5])
        assert len(tracker.universes["tau_selectors"]) == 16

    def test_decoder_transition_universe(self):
        assert len(DECODER_TRANSITIONS) == 8
        tracker = CoverageTracker([4])
        assert tracker.universes["decoder_transitions"] == set(
            DECODER_TRANSITIONS
        )

    def test_duplicate_block_sizes_collapse(self):
        assert CoverageTracker([4, 4, 4]).block_sizes == (4,)


class TestAccounting:
    def test_cover_and_percent(self):
        tracker = CoverageTracker([4])
        assert tracker.percent("tau_selectors") == 0.0
        for selector in range(8):
            tracker.cover("tau_selectors", tau_key(4, selector))
        assert tracker.percent("tau_selectors") == 100.0

    def test_merge_folds_case_contributions(self):
        tracker = CoverageTracker([4])
        tracker.merge(
            {
                "tau_selectors": [tau_key(4, 0), tau_key(4, 1)],
                "unknown_dimension": ["ignored"],
            }
        )
        assert tracker.percent("tau_selectors") == 25.0
        assert "unknown_dimension" not in tracker.covered

    def test_keys_outside_the_universe_do_not_inflate_percent(self):
        tracker = CoverageTracker([4])
        tracker.cover("tau_selectors", tau_key(9, 0))  # k=9 not configured
        assert tracker.percent("tau_selectors") == 0.0
        snapshot = tracker.snapshot()
        assert snapshot["tau_selectors"]["covered"] == 0

    def test_prefix_percent_separates_block_sizes(self):
        tracker = CoverageTracker([4, 5])
        for word in range(16):
            tracker.cover("codebook_entries", codebook_key(4, "anchored", word))
            tracker.cover(
                "codebook_entries", codebook_key(4, "constrained0", word)
            )
            tracker.cover(
                "codebook_entries", codebook_key(4, "constrained1", word)
            )
        assert tracker.percent("codebook_entries", "k=4|") == 100.0
        assert tracker.percent("codebook_entries", "k=5|") == 0.0


class TestGate:
    @staticmethod
    def _cover_encoders(tracker):
        for scheme in tracker.universes["encoder_schemes"]:
            tracker.cover("encoder_schemes", scheme)

    def test_gate_flags_every_uncovered_gated_dimension(self):
        tracker = CoverageTracker(GATED_BLOCK_SIZES)
        problems = tracker.gate_problems()
        # codebook + tau for each of the four gated ks, plus the
        # encoder-scheme dimension.
        assert len(problems) == 9
        assert any("k=7" in problem for problem in problems)
        assert any("encoder_schemes" in problem for problem in problems)

    def test_ungated_block_sizes_do_not_gate(self):
        tracker = CoverageTracker([2, 3])
        self._cover_encoders(tracker)
        assert tracker.gate_problems() == []

    def test_encoder_schemes_gate_names_the_missing_backend(self):
        tracker = CoverageTracker([2])
        for scheme in tracker.universes["encoder_schemes"]:
            if scheme != "gray":
                tracker.cover("encoder_schemes", scheme)
        problems = tracker.gate_problems()
        assert len(problems) == 1
        assert "gray" in problems[0]

    def test_full_coverage_clears_the_gate(self):
        tracker = CoverageTracker([4])
        for word in range(16):
            for variant in ("anchored", "constrained0", "constrained1"):
                tracker.cover(
                    "codebook_entries", codebook_key(4, variant, word)
                )
        for selector in range(8):
            tracker.cover("tau_selectors", tau_key(4, selector))
        self._cover_encoders(tracker)
        assert tracker.gate_problems() == []

    def test_snapshot_reports_missing_keys_and_breakdown(self):
        tracker = CoverageTracker([4])
        tracker.cover("tau_selectors", tau_key(4, 0))
        snapshot = tracker.snapshot()
        entry = snapshot["tau_selectors"]
        assert entry["covered"] == 1 and entry["universe"] == 8
        assert entry["percent"] == 12.5
        assert len(entry["missing"]) == 7
        assert entry["by_block_size"] == {"4": 12.5}
