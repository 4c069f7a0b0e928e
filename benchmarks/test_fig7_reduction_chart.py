"""Figure 7: the percentage-reduction comparison chart.

Same data as Figure 6, at the same two scales, rendered as grouped
per-benchmark series (the paper's bar chart).  The bench regenerates
the series and an ASCII rendering, and asserts the chart-level
reading: shorter blocks give taller bars, and no bar is negative.
"""

from repro.pipeline.report import fig7_series, format_fig7_ascii
from repro.workloads.registry import BENCHMARK_ORDER


def test_fig7_reduction_chart(benchmark, figure6_results, record_result):
    scale, results = figure6_results

    series = benchmark.pedantic(
        fig7_series, args=(results, BENCHMARK_ORDER), rounds=1, iterations=1
    )

    assert set(series) == {4, 5, 6, 7}
    for k, row in series.items():
        assert len(row) == len(BENCHMARK_ORDER)
        assert all(0.0 <= value <= 100.0 for value in row)

    # Chart-level reading: averaged across benchmarks, the k=4 bars are
    # the tallest and the k=6/7 bars the shortest.
    means = {k: sum(row) / len(row) for k, row in series.items()}
    assert means[4] == max(means.values())
    assert min(means[6], means[7]) == min(means.values())

    chart = format_fig7_ascii(series, BENCHMARK_ORDER)
    for name in BENCHMARK_ORDER:
        assert name in chart
    record_result("fig7_reduction_chart", chart, scale)
