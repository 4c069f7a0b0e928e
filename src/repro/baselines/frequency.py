"""Static frequency-ranked opcode remapping, after the low-power ISA
re-encoding idea of Benini et al. (GLS-VLSI 1998) — reference [6].

The original collects instruction-adjacency statistics and re-assigns
opcodes so frequent pairs are Hamming-close.  We implement the core
mechanism at word granularity: rank the distinct instruction words of
a hot region by dynamic frequency and re-assign code points so that
the most frequent words get codes with small pairwise Hamming
distances (a greedy minimum-weight assignment over the code space).
The mapping is a dictionary — exactly the cost the paper's Section 3
argues against, which the comparison benches quantify.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.baselines.protocol import (
    EncodedStream,
    Encoder,
    HardwareBudget,
    TrafficCounts,
    register_encoder,
    register_reference_counter,
)


def _code_candidates(width: int, count: int) -> list[int]:
    """``count`` code points with small mutual Hamming distances:
    breadth-first by popcount (0, then weight-1 codes, ...), ascending
    within a weight, over the low ``min(width, 20)`` bits.  Each weight
    is walked with Gosper's next-same-popcount step, so only the codes
    handed out are generated.  The all-ones code is never handed out."""
    bits = min(width, 20)
    if count >= 1 << bits:
        raise ValueError("code space exhausted")
    codes = [0][:count]
    weight = 1
    while len(codes) < count:
        code = (1 << weight) - 1
        while code >> bits == 0 and len(codes) < count:
            codes.append(code)
            low = code & -code
            ripple = code + low
            code = ripple | (((code ^ ripple) >> 2) // low)
        weight += 1
    return codes


@register_encoder
class FrequencyEncoder(Encoder):
    """A dictionary-based re-encoder for a closed set of words.

    ``fit`` learns ``mapping`` (word -> code) from a training trace;
    ``encode`` drives a (possibly different) trace under it.  Words
    outside the learned dictionary fall back to their original
    encoding with one extra *escape* line asserted (modelling the miss
    signal a real implementation needs), packed into bit ``width`` of
    each driven value.  Because of that extra line the scheme is a bus
    codec, not an image-deployable recoder, even though its mapping is
    stateless.
    """

    scheme = "frequency"
    deployable = False

    def __init__(self, width: int = 32, max_entries: int = 256) -> None:
        self.width = width
        self.max_entries = max_entries
        self._mask = (1 << width) - 1
        self.mapping: dict[int, int] = {}
        self._inverse: dict[int, int] = {}

    def _set_mapping(self, mapping: dict[int, int]) -> None:
        self.mapping = mapping
        self._inverse = {code: word for word, code in mapping.items()}

    def fit(self, words: Sequence[int] | TrafficCounts) -> "FrequencyEncoder":
        # most_common breaks count ties by first transfer
        counts = Counter(TrafficCounts.of(words).words)
        ranked = [w for w, _ in counts.most_common(self.max_entries)]
        self._set_mapping(dict(zip(ranked, _code_candidates(self.width, len(ranked)))))
        return self

    def encode(self, words: Sequence[int]) -> EncodedStream:
        mask, mapping, escape = self._mask, self.mapping, 1 << self.width
        driven = []
        for word in words:
            word &= mask
            code = mapping.get(word)
            driven.append(escape | word if code is None else code)
        return EncodedStream(self.scheme, self.width + 1, driven)

    def decode(self, stream: EncodedStream) -> list[int]:
        width, mask, inverse = self.width, self._mask, self._inverse
        return [
            packed & mask if (packed >> width) & 1 else inverse[packed & mask]
            for packed in stream.driven
        ]

    def to_config(self) -> dict:
        return {
            "width": self.width,
            "max_entries": self.max_entries,
            "mapping": sorted(self.mapping.items()),
        }

    @classmethod
    def from_config(cls, config: dict) -> "FrequencyEncoder":
        enc = cls(
            width=int(config.get("width", 32)),
            max_entries=int(config.get("max_entries", 256)),
        )
        enc._set_mapping({int(w): int(c) for w, c in config.get("mapping", [])})
        return enc

    def budget(self) -> HardwareBudget:
        """The dictionary costs two full words per entry — the
        storage the paper's Section 3 argues against."""
        return HardwareBudget(
            table_bits=len(self.mapping) * 2 * self.width, extra_lines=1, stateful=False
        )


@register_reference_counter("frequency")
def _frequency_reference(encoder: Encoder, words: Sequence[int]) -> int:
    """Transfer-by-transfer count from the scheme's definition: a word
    in the dictionary puts its code on the data lines with the escape
    line low, any other word goes out raw with the escape line high."""
    mask = (1 << encoder.width) - 1
    total = 0
    previous = None
    for word in words:
        word &= mask
        if word in encoder.mapping:
            data, escape = encoder.mapping[word], 0
        else:
            data, escape = word, 1
        if previous is not None:
            total += (data ^ previous[0]).bit_count() + (escape ^ previous[1])
        previous = (data, escape)
    return total
