"""Bit-sequence utilities shared by the encoder, the theory module and
the measurement harness.

Conventions
-----------
* A *stream* is a ``list[int]`` of 0/1 values in **time order**:
  ``stream[0]`` is the first bit fetched.
* The paper prints block words with time flowing right-to-left (the
  sequence notation ``X = {..., x_{n+1}, x_n, ...}`` places later bits
  on the left).  :func:`to_paper_string` / :func:`from_paper_string`
  convert between the two conventions so Figures 2 and 4 can be
  compared character-for-character.
* A *word column* is the vertical bit stream a single bus line carries
  while a sequence of 32-bit instruction words is fetched (Figure 1b).
"""

from __future__ import annotations

from typing import Iterable, Sequence


def count_transitions(stream: Sequence[int]) -> int:
    """Number of adjacent positions whose bits differ.

    This is the quantity the paper minimises: bus power is proportional
    to the number of 0->1 / 1->0 transitions on each line.
    """
    return sum(a != b for a, b in zip(stream, stream[1:]))


def validate_bits(stream: Iterable[int]) -> list[int]:
    """Return ``stream`` as a list, checking every element is 0 or 1."""
    bits = list(stream)
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"stream elements must be 0 or 1, got {bit!r}")
    return bits


def to_paper_string(stream: Sequence[int]) -> str:
    """Format a time-ordered stream in the paper's right-to-left style.

    ``[0, 1, 0]`` (first-fetched bit 0, then 1, then 0) prints as
    ``"010"`` — the string shown in Figure 2's ``X`` column.
    """
    return "".join(str(b) for b in reversed(stream))


def from_paper_string(text: str) -> list[int]:
    """Parse a Figure-2/4 style block word into a time-ordered stream."""
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"expected a non-empty 0/1 string, got {text!r}")
    return [int(ch) for ch in reversed(text)]


def int_to_stream(value: int, width: int) -> list[int]:
    """Expand an integer into a time-ordered stream of ``width`` bits.

    Bit 0 of ``value`` becomes ``stream[0]`` (first in time).
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return [(value >> i) & 1 for i in range(width)]


def pack_bits(stream: Sequence[int]) -> int:
    """Pack a time-ordered 0/1 stream into an int (bit ``i`` =
    ``stream[i]``).  The integer form is what the compiled fast path
    operates on: block extraction is shift/mask, transition counting a
    single popcount."""
    if not stream:
        return 0
    # str join + int(..., 2) runs the loop at C speed.
    return int("".join("1" if bit else "0" for bit in reversed(stream)), 2)


def unpack_bits(value: int, length: int) -> tuple[int, ...]:
    """Inverse of :func:`pack_bits`: the low ``length`` bits of
    ``value`` as a time-ordered tuple."""
    if length == 0:
        return ()
    text = format(value & ((1 << length) - 1), f"0{length}b")
    return tuple(map(int, reversed(text)))


def count_transitions_int(value: int, length: int) -> int:
    """Transitions of a ``length``-bit stream held in an int —
    bit-parallel equivalent of :func:`count_transitions`."""
    if length < 2:
        return 0
    return ((value ^ (value >> 1)) & ((1 << (length - 1)) - 1)).bit_count()


def word_column(words: Sequence[int], bit: int) -> list[int]:
    """Extract the vertical stream of bus line ``bit`` from a sequence
    of instruction words (Figure 1b).
    """
    if not 0 <= bit < 64:
        raise ValueError(f"bit index out of range: {bit}")
    return [(w >> bit) & 1 for w in words]


def columns_to_words(columns: Sequence[Sequence[int]]) -> list[int]:
    """Reassemble instruction words from per-bus-line vertical streams.

    ``columns[b][t]`` is the bit carried by line ``b`` at fetch ``t``.
    """
    if not columns:
        return []
    length = len(columns[0])
    for b, col in enumerate(columns):
        if len(col) != length:
            raise ValueError(
                f"column {b} has length {len(col)}, expected {length}"
            )
    words = []
    for t in range(length):
        word = 0
        for b, col in enumerate(columns):
            word |= (col[t] & 1) << b
        words.append(word)
    return words
