"""Extension: input-distribution robustness.

The paper claims its technique "delivers power reduction results that
are essentially independent of the particular input values or of the
input value distributions" — unlike statistical (Huffman/dictionary)
methods that assume a stable nonuniform distribution (Sections 1, 3).

This bench sweeps the bit-value bias of random streams and compares:

* our encoding, trained on nothing (it is per-stream exact);
* the dictionary/frequency baseline *trained on a different
  distribution* than it is evaluated on (the mismatch scenario the
  paper warns about, at word granularity).
"""

from repro.baselines.frequency import FrequencyEncoder
from repro.core.analysis import random_streams, summarize_streams

BIASES = (0.1, 0.3, 0.5, 0.7, 0.9)


def _ours_by_bias():
    rows = {}
    for bias in BIASES:
        streams = random_streams(10, 1000, seed=17, bias=bias)
        rows[bias] = summarize_streams(streams, block_size=5)
    return rows


def _phase_stream(seed: int, hot_words: int = 6, count: int = 4000):
    """A loop-like word stream: a small hot set of random 32-bit words
    repeated in random order (what a dictionary method trains on)."""
    import random as _random

    rng = _random.Random(seed)
    hot = [rng.getrandbits(32) for _ in range(hot_words)]
    return [hot[rng.randrange(hot_words)] for _ in range(count)]


def test_ext_bias_robustness(benchmark, record_result):
    rows = benchmark.pedantic(_ours_by_bias, rounds=1, iterations=1)

    # Ours: reduction percentage stays high across the whole bias
    # sweep (and is symmetric around 0.5 by the inversion duality).
    for bias in BIASES:
        assert rows[bias].reduction_percent > 40.0, bias
    assert abs(
        rows[0.1].reduction_percent - rows[0.9].reduction_percent
    ) < 5.0

    # Dictionary baseline under distribution shift: train on one
    # program phase (one hot-word set), evaluate on another phase —
    # every lookup misses and the advantage evaporates.
    trained_on = _phase_stream(seed=1)
    dictionary = FrequencyEncoder(max_entries=32).fit(trained_on)

    def _gain(words):
        raw = sum((a ^ b).bit_count() for a, b in zip(words, words[1:]))
        return 100.0 * (raw - dictionary.transitions(words)) / raw

    matched_gain = _gain(trained_on)
    mismatched_gain = _gain(_phase_stream(seed=2))
    assert matched_gain > 50.0
    assert mismatched_gain < matched_gain - 30.0

    lines = [
        "Extension — input-distribution robustness (paper Sections 1/3)",
        "",
        "ours (per-stream exact encoding, k=5):",
    ]
    for bias in BIASES:
        lines.append(
            f"  bit bias {bias:.1f}: reduction "
            f"{rows[bias].reduction_percent:5.1f}%"
        )
    lines += [
        "",
        "dictionary baseline (32-entry) under phase shift:",
        f"  trained+evaluated on the same hot set:  {matched_gain:5.1f}% gain",
        f"  evaluated on a different program phase: {mismatched_gain:5.1f}% gain",
        "",
        "conclusion: the transformation encoding is insensitive to the "
        "value distribution, while the statistical baseline's benefit "
        "collapses under distribution shift — the paper's claim",
    ]
    record_result("ext_bias_robustness", "\n".join(lines))
