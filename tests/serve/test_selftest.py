"""The chaos harness holds itself to its three standards."""

import json

import pytest

from repro.serve.selftest import (
    SelftestOptions,
    expected_outcome,
    generate_requests,
    run_selftest,
    verify_results,
)

#: Small enough for unit tests, big enough to hit every menu point,
#: kind, and chaos model at the default rates.
SMALL = dict(tenants=3, jobs_per_tenant=8, workers=2, queue_depth=8)


class TestGeneration:
    def test_batch_is_a_pure_function_of_the_options(self):
        a = generate_requests(SelftestOptions(seed=11, **SMALL))
        b = generate_requests(SelftestOptions(seed=11, **SMALL))
        assert a == b

    def test_seed_changes_the_chaos_plan(self):
        a = generate_requests(SelftestOptions(seed=11, **SMALL))
        b = generate_requests(SelftestOptions(seed=12, **SMALL))
        assert a != b

    def test_batch_key_ignores_execution_knobs(self):
        a = SelftestOptions(seed=1, **SMALL)
        b = SelftestOptions(seed=1, **{**SMALL, "workers": 7})
        assert a.batch_key() == b.batch_key()
        assert a.batch_key() != SelftestOptions(seed=2, **SMALL).batch_key()

    def test_expected_outcomes_cover_the_taxonomy(self):
        requests = generate_requests(
            SelftestOptions(seed=0, tenants=8, jobs_per_tenant=25)
        )
        expected = {expected_outcome(r) for r in requests}
        # At the default rates a full-size batch meets every model;
        # a killed worker's job must still be expected to end ok.
        assert expected == {"ok", "malformed", "deadline_exceeded"}
        assert any(r.get("chaos") == "kill" for r in requests)


class TestHarness:
    def test_chaos_run_has_zero_wrong_results(self, tmp_path):
        report_path = tmp_path / "SERVE_report.json"
        options = SelftestOptions(
            seed=5, report_path=str(report_path), **SMALL
        )
        report, problems = run_selftest(options)
        assert problems == []
        assert report["summary"]["jobs"] == 3 * 8
        outcomes = report["summary"]["outcomes"]
        assert set(outcomes) <= {"ok", "malformed", "deadline_exceeded"}
        written = json.loads(report_path.read_text())
        assert written["summary"] == report["summary"]
        stats = written["ops"]["stats"]
        assert stats["completed"] == 24
        assert stats["errors"] == 0

    def test_deterministic_report_is_seed_stable(self):
        options = SelftestOptions(seed=3, deterministic=True, **SMALL)
        first, _ = run_selftest(options)
        second, _ = run_selftest(options)
        assert "ops" not in first  # timing detail stays out
        assert first == second


class TestVerifier:
    @pytest.fixture(scope="class")
    def clean_pairs(self):
        options = SelftestOptions(seed=5, chaos=(), **SMALL)
        requests = generate_requests(options)
        report, problems = run_selftest(options)
        assert problems == []
        by_id = {(j["tenant"], j["job_id"]): j for j in report["jobs"]}
        results = [by_id[(r["tenant"], r["job_id"])] for r in requests]
        return requests, results

    def test_catches_a_tampered_payload(self, clean_pairs):
        requests, results = clean_pairs
        tampered = [dict(r) for r in results]
        victim = next(
            t for t in tampered if t["outcome"] == "ok" and t["payload"]
        )
        victim["payload"] = {**victim["payload"], "bundle_digest": "0" * 64}
        problems = verify_results(requests, tampered)
        assert len(problems) == 1
        assert "bundle_digest" in problems[0]

    def test_catches_a_taxonomy_violation(self, clean_pairs):
        requests, results = clean_pairs
        tampered = [dict(r) for r in results]
        tampered[0]["outcome"] = "error"
        problems = verify_results(requests, tampered)
        assert any("chaos predicts 'ok'" in p for p in problems)

    def test_passes_the_clean_run(self, clean_pairs):
        requests, results = clean_pairs
        assert verify_results(requests, results) == []
