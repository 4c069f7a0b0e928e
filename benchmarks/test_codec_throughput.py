"""Throughput acceptance harness for the production codec path.

Runs :func:`repro.pipeline.benchmark.run_codec_benchmarks` on the same
workloads as ``test_perf_components.py`` (5000-bit stream, 64-word
block, seed 1234), writes ``BENCH_codec.json`` at the repo root, and
asserts the headline speedups over the reference oracles.  The harness
itself cross-checks production and oracle outputs for bit-identity
before timing, so a passing run certifies both correctness and
throughput.

The acceptance floor is 5x on both the encode and the decode paths;
measured speedups on the development machine are 20-50x encode and
11-36x decode (bitplane scan), so the margin absorbs noisy CI runners.
"""

from pathlib import Path

from repro.pipeline.benchmark import run_codec_benchmarks

REPO_ROOT = Path(__file__).resolve().parent.parent
SPEEDUP_FLOOR = 5.0

#: Every decode row must clear the same committed floor as encode —
#: the CI decode smoke (`repro bench --decode-floor`) enforces it too.
DECODE_CASES = (
    "block_decode",
    "stream_decode_serial",
    "trace_decode",
)


def test_codec_throughput_report():
    report = run_codec_benchmarks(repeats=3)
    print()
    print(report.format_table())

    path = report.write(REPO_ROOT / "BENCH_codec.json")
    assert path.exists()

    expected = {
        "stream_encode_greedy",
        "stream_encode_optimal",
        "stream_encode_disjoint",
        "block_encode_greedy",
        *DECODE_CASES,
    }
    assert {case.name for case in report.cases} == expected

    for name in (
        "stream_encode_greedy",
        "stream_encode_optimal",
        "block_encode_greedy",
        *DECODE_CASES,
    ):
        case = report.case(name)
        assert case.speedup >= SPEEDUP_FLOOR, (
            f"{name}: {case.speedup:.1f}x < required {SPEEDUP_FLOOR}x"
        )
    assert report.geomean_speedup >= SPEEDUP_FLOOR
