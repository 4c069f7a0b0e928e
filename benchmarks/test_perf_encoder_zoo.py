"""Encoder-zoo throughput harness.

Runs :func:`repro.pipeline.benchmark.run_encoder_zoo_benchmarks` and
writes ``BENCH_encoders.json`` at the repo root so per-backend encode
rates are tracked across PRs.  Unlike the codec harness there is no
speedup column or floor: the encode-and-count side and the reference
counter are different jobs, so their ratio means nothing.  The
harness's value is the rate trajectory plus the built-in cross-check
of the two counts (a divergence raises before timing).
"""

from pathlib import Path

from repro.baselines.protocol import registered_schemes
from repro.pipeline.benchmark import run_encoder_zoo_benchmarks

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_encoder_zoo_throughput_report():
    report = run_encoder_zoo_benchmarks(repeats=3)
    print()
    print(report.format_table())

    path = report.write(REPO_ROOT / "BENCH_encoders.json")
    assert path.exists()

    expected = {
        f"encoder_{scheme.replace('-', '_')}"
        for scheme in registered_schemes()
    }
    assert {case.name for case in report.cases} == expected
    for row in report.to_dict()["cases"]:
        assert row["encode_count_per_second"] > 0
        assert row["reference_count_per_second"] > 0
        assert "speedup" not in row
    assert "geomean_speedup" not in report.to_dict()
