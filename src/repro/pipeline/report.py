"""Figure-6/7 style reporting.

Figure 6 is a table: one column per benchmark, a baseline #TR row
(millions of transitions) and, per block size 4..7, an absolute
encoded count plus a percentage reduction.  Figure 7 plots the same
reductions as grouped bars; :func:`format_fig7_ascii` renders an
equivalent terminal chart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    from repro.pipeline.flow import FlowResult

BLOCK_SIZES = (4, 5, 6, 7)


def fig6_table(
    results: Mapping[str, Mapping[int, FlowResult]],
    benchmarks: Sequence[str] | None = None,
) -> dict:
    """Structured Figure-6 data.

    ``results[benchmark][block_size]`` holds the flow result.  Returns
    ``{"benchmarks": [...], "tr": {...}, "encoded": {k: {...}},
    "reduction": {k: {...}}}`` with transition counts in millions.
    """
    names = list(benchmarks) if benchmarks else list(results)
    table = {
        "benchmarks": names,
        "tr": {},
        "encoded": {k: {} for k in BLOCK_SIZES},
        "reduction": {k: {} for k in BLOCK_SIZES},
    }
    for name in names:
        per_size = results[name]
        any_result = next(iter(per_size.values()))
        table["tr"][name] = any_result.baseline_transitions / 1e6
        for k in BLOCK_SIZES:
            if k not in per_size:
                continue
            result = per_size[k]
            table["encoded"][k][name] = result.encoded_transitions / 1e6
            table["reduction"][k][name] = result.reduction_percent
    return table


def format_fig6(table: dict) -> str:
    """Render the Figure 6 layout."""
    names = table["benchmarks"]
    width = max(8, max(len(n) for n in names) + 2)
    header = "              " + "".join(f"{n:>{width}}" for n in names)
    lines = [header, "-" * len(header)]
    lines.append(
        "#TR           "
        + "".join(f"{table['tr'][n]:>{width}.3f}" for n in names)
    )
    for k in BLOCK_SIZES:
        if not table["encoded"][k]:
            continue
        lines.append(
            f"#{k}-block      "
            + "".join(
                f"{table['encoded'][k].get(n, float('nan')):>{width}.3f}"
                for n in names
            )
        )
        lines.append(
            "Reduction(%)  "
            + "".join(
                f"{table['reduction'][k].get(n, float('nan')):>{width}.1f}"
                for n in names
            )
        )
    return "\n".join(lines)


def fig7_series(
    results: Mapping[str, Mapping[int, FlowResult]],
    benchmarks: Sequence[str] | None = None,
) -> dict[int, list[float]]:
    """Figure 7's chart series: reduction percentage per block size,
    one value per benchmark (same order as ``benchmarks``)."""
    names = list(benchmarks) if benchmarks else list(results)
    series: dict[int, list[float]] = {}
    for k in BLOCK_SIZES:
        row = []
        for name in names:
            if k in results[name]:
                row.append(results[name][k].reduction_percent)
        if row:
            series[k] = row
    return series


def format_fig7_ascii(
    series: Mapping[int, Sequence[float]],
    benchmarks: Sequence[str],
    bar_width: int = 40,
) -> str:
    """Grouped horizontal bar chart of percentage reductions."""
    lines = ["Percentage reduction by benchmark and block size", ""]
    for i, name in enumerate(benchmarks):
        lines.append(f"{name}:")
        for k, row in series.items():
            value = row[i]
            bar = "#" * max(0, round(bar_width * value / 60.0))
            lines.append(f"  k={k}  {bar:<{bar_width}} {value:5.1f}%")
        lines.append("")
    return "\n".join(lines)


def format_per_line_table(
    baseline: Sequence[int],
    encoded: Sequence[int],
    columns: int = 8,
) -> str:
    """Per-bus-line transition table (before/after/reduction).

    The paper's premise is per-line: each line's power is proportional
    to its own toggle count.  This view shows where the savings land —
    opcode-field lines (high bits) barely toggle, register/immediate
    lines carry most of the traffic.
    """
    if len(baseline) != len(encoded):
        raise ValueError("baseline/encoded length mismatch")
    lines = []
    for start in range(0, len(baseline), columns):
        group = range(start, min(start + columns, len(baseline)))
        lines.append(
            "line      " + "".join(f"{b:>9d}" for b in group)
        )
        lines.append(
            "  before  " + "".join(f"{baseline[b]:>9d}" for b in group)
        )
        lines.append(
            "  after   " + "".join(f"{encoded[b]:>9d}" for b in group)
        )
        reductions = []
        for b in group:
            if baseline[b] == 0:
                reductions.append("      -  ")
            else:
                percent = 100.0 * (baseline[b] - encoded[b]) / baseline[b]
                reductions.append(f"{percent:>8.1f}%")
        lines.append("  saved   " + "".join(reductions))
        lines.append("")
    return "\n".join(lines).rstrip()


def summarize_results(
    results: Mapping[str, Mapping[int, FlowResult]]
) -> dict[int, float]:
    """Average reduction per block size across benchmarks (the paper's
    '35%-40% for ... four and five' / '20%-25% ... six and seven')."""
    averages = {}
    for k in BLOCK_SIZES:
        values = [
            per_size[k].reduction_percent
            for per_size in results.values()
            if k in per_size
        ]
        if values:
            averages[k] = sum(values) / len(values)
    return averages
