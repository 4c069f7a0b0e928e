"""Gray-code address encoding — the classic sequential-bus baseline.

Consecutive integers differ in exactly one bit under Gray coding, so a
perfectly sequential word-address stream toggles one line per fetch.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.protocol import (
    EncodedStream,
    Encoder,
    HardwareBudget,
    register_encoder,
    register_reference_counter,
)


def gray_encode(value: int) -> int:
    """Binary-reflected Gray code of ``value``."""
    return value ^ (value >> 1)


def gray_decode(code: int) -> int:
    """Inverse of :func:`gray_encode`."""
    value = 0
    while code:
        value ^= code
        code >>= 1
    return value


def gray_transitions(addresses: Sequence[int], stride: int = 4) -> int:
    """Address-bus transitions when word indices are Gray-coded.

    Addresses are divided by ``stride`` first (word addressing), as a
    real implementation would re-encode the word index.
    """
    codes = [gray_encode(a // stride) for a in addresses]
    return sum((a ^ b).bit_count() for a, b in zip(codes, codes[1:]))


@register_encoder
class GrayEncoder(Encoder):
    """Gray recoding as a stateless, deployable word recoder.

    Each stored word is replaced by its binary-reflected Gray code and
    decoded independently at fetch time — the pure-XOR network needs no
    tables, no extra lines, and no bus state.
    """

    scheme = "gray"
    deployable = True

    def __init__(self, width: int = 32) -> None:
        self.width = width
        self._mask = (1 << width) - 1

    def encode_word(self, word: int) -> int:
        return gray_encode(word & self._mask)

    def decode_word(self, word: int) -> int:
        return gray_decode(word) & self._mask

    def encode(self, words: Sequence[int]) -> EncodedStream:
        table = {w: self.encode_word(w) for w in set(words)}
        return EncodedStream(self.scheme, self.width, [table[w] for w in words])

    def decode(self, stream: EncodedStream) -> list[int]:
        table = {w: self.decode_word(w) for w in set(stream.driven)}
        return [table[w] for w in stream.driven]

    def budget(self) -> HardwareBudget:
        return HardwareBudget(table_bits=0, extra_lines=0, stateful=False)


@register_reference_counter("gray")
def _gray_reference(encoder: Encoder, words: Sequence[int]) -> int:
    """Bit-at-a-time Gray recode — an implementation independent of
    the ``v ^ (v >> 1)`` fast path, for differential verification."""
    width = encoder.width
    codes = []
    for word in words:
        code = 0
        for i in range(width):
            upper = (word >> (i + 1)) & 1 if i + 1 < width else 0
            code |= (((word >> i) & 1) ^ upper) << i
        codes.append(code)
    return sum((a ^ b).bit_count() for a, b in zip(codes, codes[1:]))
