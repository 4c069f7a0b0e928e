"""VERIFY_report.json: serialisation, summary, and the CI gate parser."""

import json

from repro.verify.campaign import VerifyConfig, run_verify
from repro.verify.report import (
    REPORT_VERSION,
    VerifyReport,
    load_verify_report,
    verify_report_problems,
)


def _green_report() -> VerifyReport:
    return run_verify(VerifyConfig(cases=10, seed=11, block_sizes=(4,)))


def _red_report() -> VerifyReport:
    return VerifyReport(
        config={},
        kinds={"stream": {"run": 3, "failed": 1}},
        mismatches=[
            {"kind": "stream", "seed_key": "s", "mismatch": "bitplane_decode_wrong"}
        ],
        counterexamples=[
            {
                "version": 1,
                "kind": "stream",
                "seed_key": "s",
                "params": {"k": 4, "strategy": "greedy"},
                "input": [1, 0],
                "mismatch": {"kind": "bitplane_decode_wrong"},
                "mutations": [],
            }
        ],
        coverage={},
        gate_problems=["tau_selectors coverage for k=4 is 50.0%"],
        mutations=["bitplane-scan"],
        total_seconds=1.25,
        meta={"host": "x"},
    )


class TestSerialisation:
    def test_write_then_load_roundtrip(self, tmp_path):
        report = _green_report()
        path = report.write(tmp_path / "VERIFY_report.json")
        data = load_verify_report(path)
        # JSON turns the config's tuples into lists; compare post-JSON.
        assert data == json.loads(report.to_json())
        assert data["version"] == REPORT_VERSION
        assert data["check_ok"] is True

    def test_deterministic_zeroes_wallclock(self):
        report = _red_report()
        data = report.to_dict(deterministic=True)
        assert data["total_seconds"] == 0.0 and data["meta"] == {}
        live = report.to_dict()
        assert live["total_seconds"] == 1.25 and live["meta"] == {"host": "x"}

    def test_two_deterministic_writes_are_byte_identical(self, tmp_path):
        a = _red_report().to_json(deterministic=True)
        b = _red_report().to_json(deterministic=True)
        assert a == b
        json.loads(a)  # and valid JSON


class TestSummary:
    def test_green_summary(self):
        text = _green_report().format_summary()
        assert "check: OK" in text
        assert "coverage codebook_entries: 48/48 (100.0%)" in text

    def test_red_summary_names_the_gate_and_mutations(self):
        text = _red_report().format_summary()
        assert "check: FAILED" in text
        assert "GATE: tau_selectors" in text
        assert "armed mutations: bitplane-scan" in text


class TestGateParser:
    def test_green_report_has_no_problems(self, tmp_path):
        data = _green_report().to_dict()
        assert verify_report_problems(data) == []
        assert (
            verify_report_problems(
                data,
                min_coverage={
                    "codebook_entries": 100.0,
                    "tau_selectors": 100.0,
                },
            )
            == []
        )

    def test_missing_keys_are_fatal(self):
        data = _green_report().to_dict()
        del data["coverage"]
        problems = verify_report_problems(data)
        assert problems == ["report is missing required key 'coverage'"]

    def test_failed_check_and_threshold_are_reported(self):
        data = _red_report().to_dict()
        data["coverage"] = {"tau_selectors": {"percent": 50.0}}
        problems = verify_report_problems(
            data, min_coverage={"tau_selectors": 100.0, "ghost_dimension": 1.0}
        )
        text = "\n".join(problems)
        assert "check failed: 1 mismatch(es)" in text
        assert "below the 100.0% threshold" in text
        assert "lacks dimension 'ghost_dimension'" in text

    def test_version_mismatch_is_reported(self):
        data = _green_report().to_dict()
        data["version"] = 99
        assert any(
            "version" in problem for problem in verify_report_problems(data)
        )

    def test_unreplayable_counterexamples_are_flagged(self):
        data = _red_report().to_dict()
        del data["counterexamples"][0]["params"]
        assert any(
            "not replayable" in problem
            for problem in verify_report_problems(data)
        )
