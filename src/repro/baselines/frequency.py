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
from dataclasses import dataclass, field
from typing import Sequence


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


@dataclass
class FrequencyRemapper:
    """A dictionary-based re-encoder for a closed set of words.

    ``fit`` learns the mapping from a training trace; ``transitions``
    evaluates a (possibly different) trace under it.  Words outside
    the learned dictionary fall back to their original encoding, with
    one extra *escape* line toggling (modelling the miss signal a real
    implementation needs).
    """

    width: int = 32
    max_entries: int = 256
    mapping: dict[int, int] = field(default_factory=dict)

    def fit(self, words: Sequence[int]) -> "FrequencyRemapper":
        counts = Counter(words)
        ranked = [w for w, _ in counts.most_common(self.max_entries)]
        codes = _code_candidates(self.width, len(ranked))
        self.mapping = dict(zip(ranked, codes))
        return self

    def encode(self, word: int) -> tuple[int, int]:
        """Returns (driven word, escape bit)."""
        code = self.mapping.get(word)
        if code is None:
            return word, 1
        return code, 0

    def transitions(self, words: Sequence[int]) -> int:
        """Bus transitions (word lines + escape line) over a trace."""
        total = 0
        prev_word = None
        prev_escape = 0
        for word in words:
            driven, escape = self.encode(word)
            if prev_word is not None:
                total += (driven ^ prev_word).bit_count()
                total += escape ^ prev_escape
            prev_word, prev_escape = driven, escape
        return total

    @property
    def dictionary_bits(self) -> int:
        """Storage the dictionary costs (the paper's Section 3
        objection): two full words per entry."""
        return len(self.mapping) * 2 * self.width


from repro.baselines.protocol import (  # noqa: E402  (adapter after legacy API)
    EncodedStream,
    Encoder,
    HardwareBudget,
    register_encoder,
    register_reference_counter,
)


@register_encoder
class FrequencyEncoder(Encoder):
    """:class:`FrequencyRemapper` behind the common Encoder protocol.

    The escape line (asserted for words outside the learned
    dictionary) is packed into bit ``width`` of each driven value.
    Because of that extra line the scheme is a bus codec, not an
    image-deployable recoder, even though its mapping is stateless.
    """

    scheme = "frequency"
    deployable = False

    def __init__(self, width: int = 32, max_entries: int = 256) -> None:
        self.width = width
        self.max_entries = max_entries
        self._mask = (1 << width) - 1
        self._remapper = FrequencyRemapper(width=width, max_entries=max_entries)
        self._inverse: dict[int, int] = {}

    def fit(self, words: Sequence[int]) -> "FrequencyEncoder":
        self._remapper.fit(list(words))
        self._inverse = {code: word for word, code in self._remapper.mapping.items()}
        return self

    def encode(self, words: Sequence[int]) -> EncodedStream:
        stream = EncodedStream(self.scheme, self.width + 1)
        for word in words:
            driven, escape = self._remapper.encode(word & self._mask)
            stream.driven.append((escape << self.width) | driven)
        return stream

    def decode(self, stream: EncodedStream) -> list[int]:
        out = []
        for packed in stream.driven:
            escape = (packed >> self.width) & 1
            driven = packed & self._mask
            out.append(driven if escape else self._inverse[driven])
        return out

    def to_config(self) -> dict:
        return {
            "width": self.width,
            "max_entries": self.max_entries,
            "mapping": sorted(self._remapper.mapping.items()),
        }

    @classmethod
    def from_config(cls, config: dict) -> "FrequencyEncoder":
        enc = cls(
            width=int(config.get("width", 32)),
            max_entries=int(config.get("max_entries", 256)),
        )
        enc._remapper.mapping = {int(w): int(c) for w, c in config.get("mapping", [])}
        enc._inverse = {code: word for word, code in enc._remapper.mapping.items()}
        return enc

    def budget(self) -> HardwareBudget:
        return HardwareBudget(
            table_bits=self._remapper.dictionary_bits, extra_lines=1, stateful=False
        )


@register_reference_counter("frequency")
def _frequency_reference(encoder: Encoder, words: Sequence[int]) -> int:
    return encoder._remapper.transitions(list(words))
