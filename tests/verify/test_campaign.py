"""Campaign scheduling, determinism, and the aggregated report."""

from dataclasses import replace

import pytest

import repro.obs as obs
from repro.obs import OBS

from repro.verify.campaign import (
    KIND_PATTERN,
    VerifyConfig,
    case_kind,
    case_seed_key,
    run_case,
    run_verify,
)

#: A small, fast configuration: one gated block size, serial.
SMALL = VerifyConfig(cases=20, seed=11, block_sizes=(4,))

#: Just over two chunks of randomised cases: enough to fan out.
VERIFY_FANOUT = VerifyConfig(cases=60, seed=11, block_sizes=(4,))


class TestScheduling:
    def test_kind_pattern_mix(self):
        counts = {kind: KIND_PATTERN.count(kind) for kind in set(KIND_PATTERN)}
        assert counts == {
            "stream": 5,
            "program": 3,
            "tables": 2,
            "encoders": 2,
        }

    def test_case_kind_cycles(self):
        pattern_len = len(KIND_PATTERN)
        assert [case_kind(i) for i in range(pattern_len)] == list(KIND_PATTERN)
        assert case_kind(pattern_len) == case_kind(0)

    def test_seed_key_is_replayable_shape(self):
        assert case_seed_key(SMALL, 3) == "11:tables:3"


class TestRunCase:
    @pytest.mark.parametrize("case_id", [0, 1, 3])  # one of each kind
    def test_deterministic_and_self_describing(self, case_id):
        a = run_case(SMALL, case_id)
        b = run_case(SMALL, case_id)
        assert a == b
        assert a["kind"] == case_kind(case_id)
        assert a["seed_key"] == case_seed_key(SMALL, case_id)
        assert a["ok"] is True
        assert a["counterexample"] is None
        assert a["coverage"]  # every case contributes coverage

    def test_different_seed_different_input_same_verdict(self):
        other = VerifyConfig(cases=20, seed=12, block_sizes=(4,))
        a = run_case(SMALL, 0)
        b = run_case(other, 0)
        assert a["seed_key"] != b["seed_key"]
        assert a["ok"] and b["ok"]


class TestRunVerify:
    def test_small_campaign_is_green_and_gated_coverage_complete(self):
        report = run_verify(SMALL)
        assert report.mismatches == []
        assert report.counterexamples == []
        # The sweeps make the k=4 gate deterministically reachable.
        assert report.gate_problems == []
        assert report.check_ok
        assert report.coverage["codebook_entries"]["percent"] == 100.0
        assert report.coverage["tau_selectors"]["percent"] == 100.0

    def test_kind_counts_add_up(self):
        report = run_verify(SMALL)
        random_kinds = {"stream", "program", "tables", "encoders"}
        total_random = sum(
            report.kinds[kind]["run"]
            for kind in random_kinds & set(report.kinds)
        )
        assert total_random == SMALL.cases
        for sweep in ("sweep_codebook", "sweep_tau", "sweep_boundary"):
            assert report.kinds[sweep] == {"run": 1, "failed": 0}
        assert report.kinds["sweep_encoders"] == {"run": 1, "failed": 0}

    def test_no_sweeps_leaves_the_gate_unreachable(self):
        report = run_verify(
            VerifyConfig(cases=10, seed=11, block_sizes=(4,), sweeps=False)
        )
        assert report.mismatches == []
        assert report.gate_problems  # randomised cases alone can't prove it
        assert not report.check_ok

    def test_parallel_run_matches_serial(self):
        # More than one 25-case chunk, so the run really fans out.
        serial = run_verify(VERIFY_FANOUT)
        parallel = run_verify(replace(VERIFY_FANOUT, workers=2))
        assert parallel.mismatches == serial.mismatches == []
        assert parallel.kinds == serial.kinds
        assert parallel.coverage == serial.coverage
        assert parallel.check_ok

    def test_parallel_run_keeps_worker_telemetry(self):
        """Metrics recorded inside pool workers reach the parent: a
        fanned-out run reports the same families as a serial one."""

        def observed(workers: int) -> tuple[list[str], int]:
            obs.enable()
            obs.reset()
            try:
                run_verify(
                    replace(VERIFY_FANOUT, sweeps=False, workers=workers)
                )
                registry = OBS.registry
                return (
                    registry.family_names(),
                    registry.counter("codec.words_encoded").value,
                )
            finally:
                obs.disable()
                obs.reset()

        serial_families, serial_words = observed(0)
        parallel_families, parallel_words = observed(2)
        assert "codec.words_encoded" in serial_families
        assert parallel_families == serial_families
        assert parallel_words == serial_words > 0
