"""Baseline comparison: the paper's encoding vs the related work.

Section 2 argues bus-invert coding's "extremely general nature limits
relatively the power savings" on regular streams, and Section 3 argues
dictionary techniques pay unacceptable table costs.  This bench runs
both on the very same instruction-fetch word streams as Figure 6 and
compares; the application-specific encoding must win clearly on the
data bus, while T0/Gray are reported for the (separate) address bus."""

from repro.baselines.bus_invert import bus_invert_transitions
from repro.baselines.frequency import FrequencyEncoder
from repro.baselines.gray import gray_transitions
from repro.baselines.t0 import t0_transitions
from repro.core.transitions import word_transitions
from repro.workloads.registry import BENCHMARK_ORDER


def _word_stream(program, trace):
    base = program.text_base
    words = program.words
    return [words[(a - base) >> 2] for a in trace]


def test_baseline_comparison(benchmark, figure6_results, record_result):
    results, traces = figure6_results

    def _compare():
        rows = {}
        for name in BENCHMARK_ORDER:
            program, trace = traces[name]
            words = _word_stream(program, trace)
            ours = results[name][5]
            dictionary = FrequencyEncoder(max_entries=64).fit(words)
            rows[name] = {
                "baseline": ours.baseline_transitions,
                "ours": ours.encoded_transitions,
                "bus_invert": bus_invert_transitions(words),
                "dictionary": dictionary.transitions(words),
                "dictionary_bits": dictionary.budget().table_bits,
            }
        return rows

    rows = benchmark.pedantic(_compare, rounds=1, iterations=1)

    for name, row in rows.items():
        # Our encoding beats bus-invert on every benchmark (the
        # paper's Section 2 positioning).
        assert row["ours"] < row["bus_invert"], name
        # Bus-invert can never be much worse than raw (worst case adds
        # the invert line), sanity-checking the comparison.
        assert row["bus_invert"] <= row["baseline"] * 1.1

    lines = [
        "Baseline comparison — instruction data bus, block size 5",
        "",
        f"{'bench':6s} {'raw':>10s} {'bus-invert':>11s} "
        f"{'dict-64':>10s} {'ours(k=5)':>10s} {'ours red%':>9s} "
        f"{'businv red%':>11s}",
    ]
    for name, row in rows.items():
        ours_red = 100.0 * (row["baseline"] - row["ours"]) / row["baseline"]
        businv_red = (
            100.0 * (row["baseline"] - row["bus_invert"]) / row["baseline"]
        )
        lines.append(
            f"{name:6s} {row['baseline']:10d} {row['bus_invert']:11d} "
            f"{row['dictionary']:10d} {row['ours']:10d} "
            f"{ours_red:8.1f}% {businv_red:10.1f}%"
        )
    # Address-bus context (T0 / Gray operate on a different bus).
    addresses = traces["mmul"][1].expand()
    dict_bits = max(row["dictionary_bits"] for row in rows.values())
    our_bits = 16 * 101 + 16 * 34  # TT + BBIT storage (hw.cost)
    lines += [
        "",
        "address-bus context (mmul trace): "
        f"raw={word_transitions(addresses)}, "
        f"t0={t0_transitions(addresses)}, gray={gray_transitions(addresses)}",
        "",
        "conclusion: the application-specific vertical encoding beats "
        "bus-invert on every benchmark.  The dictionary remapper "
        "reaches fewer bus transitions (hot loops have few distinct "
        f"words) but needs {dict_bits} bits of lookup tables plus an "
        "escape path on every miss — the Section 3 objection — versus "
        f"{our_bits} bits for TT+BBIT and a single gate per line",
    ]
    record_result("baseline_comparison", "\n".join(lines))
