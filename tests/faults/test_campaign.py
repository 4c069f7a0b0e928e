"""Campaign runner tests: determinism, classification, the report
shape, and the worker-pool downgrade path — driven by a synthetic
deployment target so no workload simulation runs."""

import json
import warnings

import pytest

from tests.strategies import rng_for

from repro.core.program_codec import encode_basic_block
from repro.faults import (
    DEFAULT_MODELS,
    MODELS_BY_NAME,
    CampaignConfig,
    DeploymentTarget,
    FaultCampaignReport,
    run_campaign,
)
from repro.faults import campaign as campaign_module
from repro.faults.report import OUTCOMES
from repro.runtime import pool as pool_module


def _synthetic_target(num_blocks=2, block_len=10, block_size=5, seed=11):
    rng = rng_for("synthetic-target", seed)
    base = 0x400000
    original = [rng.getrandbits(32)]
    encoded = list(original)
    tt_entries, bbit_entries, block_pcs = [], [], []
    pc = base + 4
    tt_index = 0
    for _ in range(num_blocks):
        words = [rng.getrandbits(32) for _ in range(block_len)]
        enc = encode_basic_block(words, block_size)
        for row, (start, seg_len) in zip(enc.selectors(), enc.bounds):
            is_tail = start + seg_len >= block_len
            tt_entries.append(
                {
                    "selectors": list(row),
                    "end": is_tail,
                    "count": (
                        (seg_len if start == 0 else seg_len - 1)
                        if is_tail
                        else 0
                    ),
                }
            )
            tt_index += 1
        bbit_entries.append(
            {
                "pc": pc,
                "tt_index": tt_index - len(enc.bounds),
                "num_instructions": block_len,
            }
        )
        block_pcs.append(pc)
        original.extend(words)
        encoded.extend(enc.encoded_words)
        pc += 4 * block_len
    trace = [base]
    for _ in range(2):
        for start in block_pcs:
            trace.extend(start + 4 * i for i in range(block_len))
            trace.append(base)
    return DeploymentTarget(
        name="synthetic",
        block_size=block_size,
        text_base=base,
        original_words=original,
        encoded_words=encoded,
        tt_entries=tt_entries,
        bbit_entries=bbit_entries,
        trace=trace,
        parity=True,
    )


def _small_config(**overrides):
    defaults = dict(workloads=("synthetic",), trials=3, seed=42)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestRunCampaign:
    def test_full_sweep_shape_and_outcomes(self):
        config = _small_config()
        report = run_campaign(config, targets=[_synthetic_target()])
        expected = len(DEFAULT_MODELS) * config.trials * len(config.modes)
        assert len(report.cases) == expected
        assert all(case.outcome in OUTCOMES for case in report.cases)
        # Strict and recover runs of a trial share the injection seed.
        seeds = {case.seed for case in report.cases}
        assert len(seeds) == len(DEFAULT_MODELS) * config.trials

    def test_protected_ok_on_synthetic_target(self):
        report = run_campaign(_small_config(), targets=[_synthetic_target()])
        assert report.protected_ok()
        silent_models = {case.model for case in report.silent_cases()}
        assert silent_models <= {"image_bit_flip", "image_3bit_flip"}

    def test_campaign_is_deterministic(self):
        first = run_campaign(_small_config(), targets=[_synthetic_target()])
        second = run_campaign(_small_config(), targets=[_synthetic_target()])
        assert [c.to_dict() for c in first.cases] == [
            c.to_dict() for c in second.cases
        ]

    def test_model_table_rates(self):
        report = run_campaign(_small_config(), targets=[_synthetic_target()])
        table = report.model_table()
        assert {row["model"] for row in table} == set(MODELS_BY_NAME)
        for row in table:
            manifested = row["manifested"]
            rate = row["detection_or_recovery_rate"]
            assert (rate is None) == (manifested == 0)
            if row["model"] in report.protected_models() and manifested:
                assert rate == 1.0

    def test_report_json_roundtrip(self, tmp_path):
        report = run_campaign(_small_config(), targets=[_synthetic_target()])
        path = report.write(tmp_path / "FAULTS_report.json")
        data = json.loads(path.read_text())
        assert set(data) == {
            "config",
            "summary",
            "protected_ok",
            "silent_corruptions",
            "total_seconds",
            "slowest_case",
            "cases",
        }
        assert data["protected_ok"] is True
        assert data["config"]["seed"] == 42
        assert len(data["cases"]) == len(report.cases)
        assert data["silent_corruptions"] == len(report.silent_cases())
        # Durations are aggregated, never per-case: the case records
        # stay byte-deterministic across identical runs.
        assert data["total_seconds"] > 0
        assert data["slowest_case"]["duration_seconds"] > 0
        assert all("duration_seconds" not in case for case in data["cases"])
        for row in data["summary"]:
            assert row["total_seconds"] >= 0
            assert row["mean_seconds"] is None or row["mean_seconds"] >= 0

    def test_format_table_lists_every_model(self):
        report = run_campaign(_small_config(), targets=[_synthetic_target()])
        text = report.format_table()
        for name in MODELS_BY_NAME:
            assert name in text

    def test_duplicate_target_names_rejected(self):
        from repro.errors import CampaignError

        with pytest.raises(CampaignError, match="duplicate"):
            run_campaign(
                _small_config(),
                targets=[_synthetic_target(), _synthetic_target()],
            )


class TestWorkerDowngrade:
    def test_broken_pool_downgrades_to_serial(self, monkeypatch):
        from concurrent.futures import BrokenExecutor

        class _BrokenFuture:
            def result(self, timeout=None):
                raise BrokenExecutor("worker died")

        class _BrokenPool:
            def __init__(self, *args, **kwargs):
                pass

            def submit(self, fn, *args):
                return _BrokenFuture()

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _BrokenPool)
        config = _small_config(trials=1, workers=4)
        with pytest.warns(RuntimeWarning, match="finishing the remaining"):
            report = run_campaign(config, targets=[_synthetic_target()])
        # Every case still completed — serially.
        expected = len(DEFAULT_MODELS) * 1 * len(config.modes)
        assert len(report.cases) == expected
        assert all(case.outcome in OUTCOMES for case in report.cases)
        assert report.protected_ok()

    def test_timeouts_trip_breaker_then_downgrade(self, monkeypatch):
        from concurrent.futures import TimeoutError as FutureTimeoutError

        class _HungFuture:
            def result(self, timeout=None):
                raise FutureTimeoutError()

        class _HungPool:
            def __init__(self, *args, **kwargs):
                pass

            def submit(self, fn, *args):
                return _HungFuture()

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _HungPool)
        config = _small_config(trials=1, workers=2, case_timeout=30.0)
        with pytest.warns(RuntimeWarning, match="circuit breaker"):
            report = run_campaign(config, targets=[_synthetic_target()])
        # Timed-out futures are re-run serially under the same
        # deadline (the cases themselves are healthy, only the fake
        # pool hangs), so every case still completes — and none is
        # falsely marked crashed.
        expected = len(DEFAULT_MODELS) * 1 * len(config.modes)
        assert len(report.cases) == expected
        assert all(c.outcome != "crashed" for c in report.cases)
        assert report.protected_ok()

    def test_serial_fallback_enforces_case_deadline(self, monkeypatch):
        """The downgrade-to-serial path must honor the per-case
        deadline: a case that hangs serially is classified crashed
        instead of stalling the campaign forever."""
        import time as time_module

        from repro.faults.campaign import _run_case_serial
        from repro.faults.models import TTSelectorFlip

        target = _synthetic_target()
        monkeypatch.setattr(
            campaign_module,
            "run_case",
            lambda *args, **kwargs: time_module.sleep(5.0),
        )
        result = _run_case_serial(
            target, TTSelectorFlip(), "s:0", "strict", 0.05
        )
        assert result.outcome == "crashed"
        assert "deadline" in result.error

    def test_parallel_matches_serial(self):
        config = _small_config(trials=2)
        serial = run_campaign(config, targets=[_synthetic_target()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no downgrade expected
            parallel = run_campaign(
                _small_config(trials=2, workers=2),
                targets=[_synthetic_target()],
            )
        key = lambda c: (c.model, c.seed, c.mode)
        assert sorted(
            (c.outcome for c in serial.cases),
        ) == sorted(c.outcome for c in parallel.cases)
        serial_map = {key(c): c.outcome for c in serial.cases}
        for case in parallel.cases:
            assert serial_map[key(case)] == case.outcome


class TestReportGates:
    def test_protected_ok_fails_on_silent_protected_case(self):
        report = run_campaign(_small_config(), targets=[_synthetic_target()])
        assert report.protected_ok()
        # Forge one silent corruption on a protected model.
        victim = next(
            c for c in report.cases if c.model == "tt_selector_flip"
        )
        victim.outcome = "silently-corrupted"
        assert not report.protected_ok()

    def test_unprotected_silence_does_not_fail_the_gate(self):
        report = FaultCampaignReport(
            config={"protected_models": ["tt_selector_flip"]},
            cases=[],
        )
        assert report.protected_ok()
