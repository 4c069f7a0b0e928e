"""SEC-DED codewords for the decode tables.

The ASIC follow-on work treats table integrity as a first-class
hardware concern: a flipped selector or a stale BBIT field silently
yields wrong instructions, because the decoder has no other way to
tell a corrupted table from a reprogrammed one.  The original defence
here was a per-row parity word (detection only); this module upgrades
it to the scheme real table SRAMs ship with — **SEC-DED**: an extended
Hamming code (single-error *correction*, double-error *detection*)
over every stored field of a row, plus one overall parity bit.

Layout
------

Each row serialises its fields into one data word (LSB-first, field
by field):

* TT row:   ``width`` 3-bit selectors, the E bit, a 32-bit CT field.
* BBIT row: 64-bit PC (the CAM tag), 32-bit TT index, 32-bit length.

For ``m`` data bits the codeword adds ``r`` Hamming check bits
(``2**r >= m + r + 1``) in the classic power-of-two positions of a
1-indexed codeword, plus the overall parity bit — 9 check bits for
both row formats.  The check bits are stored *beside* the row (the
extra SRAM column), exactly like the parity word they replace.

Decoding a row against its stored check word yields one of three
outcomes:

``clean``
    Codeword consistent; the row is served as stored.
``corrected``
    Exactly one bit (data *or* check) flipped; the corrected data is
    returned and the caller repairs the row in place.
``uncorrectable``
    A double-bit error (non-zero syndrome, even overall parity): the
    row cannot be trusted and must be quarantined.

Like every SEC-DED implementation, three or more flipped bits may
alias to a "correctable" single-bit pattern — the guarantee covers
one- and two-bit upsets, which is the standard soft-error budget the
scrubber's sweep cadence is provisioned against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

#: Serialised field widths (bits).
TT_SELECTOR_BITS = 3
TT_COUNT_BITS = 32
BBIT_PC_BITS = 64
BBIT_INDEX_BITS = 32
BBIT_LENGTH_BITS = 32

CLEAN = "clean"
CORRECTED = "corrected"
UNCORRECTABLE = "uncorrectable"


# ----------------------------------------------------------------------
# Extended Hamming (SEC-DED)
# ----------------------------------------------------------------------


@lru_cache(maxsize=8)
def _layout(m: int) -> tuple[int, tuple[int, ...]]:
    """For ``m`` data bits: the check-bit count ``r`` and the codeword
    position of every data bit (1-indexed; powers of two are check
    positions)."""
    r = 0
    while (1 << r) < m + r + 1:
        r += 1
    positions = []
    pos = 1
    while len(positions) < m:
        if pos & (pos - 1):  # not a power of two -> data position
            positions.append(pos)
        pos += 1
    return r, tuple(positions)


def secded_check_bits(m: int) -> int:
    """Stored check-word width for ``m`` data bits (Hamming bits plus
    the overall parity bit)."""
    return _layout(m)[0] + 1


@lru_cache(maxsize=8)
def _byte_syndromes(m: int) -> tuple[tuple[int, ...], ...]:
    """For each data byte, a 256-entry table: the XOR of the codeword
    positions of the data bits set in that byte value."""
    _, positions = _layout(m)
    tables = []
    for base in range(0, m, 8):
        table = [0] * 256
        for value in range(1, 256):
            low = value & -value
            i = base + low.bit_length() - 1
            table[value] = table[value ^ low] ^ (positions[i] if i < m else 0)
        tables.append(tuple(table))
    return tuple(tables)


def _syndrome(data: int, m: int) -> int:
    """XOR of the codeword positions of the set bits of ``data``
    (``0 <= data < 2**m``), one table lookup per data byte."""
    syndrome = 0
    for table, value in zip(
        _byte_syndromes(m), data.to_bytes((m + 7) // 8, "little")
    ):
        syndrome ^= table[value]
    return syndrome


def secded_encode(data: int, m: int) -> int:
    """Check word for ``m`` data bits: ``r`` Hamming bits in the low
    bits (bit ``j`` covers codeword positions with bit ``j`` set) and
    the overall parity bit at bit ``r`` (even parity over the whole
    codeword)."""
    r = _layout(m)[0]
    data &= (1 << m) - 1
    # Each Hamming bit makes its coverage class even, so the encoded
    # syndrome of the full codeword is zero.
    check = _syndrome(data, m)
    return check | (((data.bit_count() + check.bit_count()) & 1) << r)


def secded_decode(data: int, m: int, check: int) -> tuple[str, int, int]:
    """Validate ``data`` against its stored ``check`` word.

    Returns ``(status, corrected_data, corrected_check)`` where status
    is :data:`CLEAN`, :data:`CORRECTED` (single-bit error fixed — in
    the data or in the check word itself) or :data:`UNCORRECTABLE`
    (double-bit error)."""
    r, positions = _layout(m)
    stored_hamming = check & ((1 << r) - 1)
    stored_overall = (check >> r) & 1
    data_bits = data & ((1 << m) - 1)
    syndrome = _syndrome(data_bits, m) ^ stored_hamming
    ones = (
        stored_overall + data_bits.bit_count() + stored_hamming.bit_count()
    ) & 1
    if syndrome == 0 and ones == 0:
        return CLEAN, data, check
    if ones == 1:
        # Odd overall parity: a single-bit error at position
        # ``syndrome`` (0 means the overall parity bit itself).
        if syndrome == 0:
            return CORRECTED, data, check ^ (1 << r)
        if syndrome & (syndrome - 1) == 0:
            # A Hamming check bit flipped; the data is intact.
            bit = syndrome.bit_length() - 1
            return CORRECTED, data, check ^ (1 << bit)
        try:
            index = positions.index(syndrome)
        except ValueError:
            # Syndrome points past the codeword: >= 3 bits flipped.
            return UNCORRECTABLE, data, check
        return CORRECTED, data ^ (1 << index), check
    # Even overall parity with a non-zero syndrome: two bits flipped.
    return UNCORRECTABLE, data, check


# ----------------------------------------------------------------------
# Row serialisation
# ----------------------------------------------------------------------


def tt_row_bits(width: int) -> int:
    """Serialised TT-row width: ``width`` selectors, E, CT."""
    return TT_SELECTOR_BITS * width + 1 + TT_COUNT_BITS


#: Byte value -> ASCII octal digit of its low three bits.
_OCTAL_DIGITS = bytes(ord("0") + (value & 0b111) for value in range(256))


def tt_row_data(selectors: Sequence[int], end: bool, count: int) -> int:
    """Pack one TT row's stored fields into a data word, LSB-first.
    Each 3-bit selector (``0..7``) is one octal digit, line 0 lowest."""
    digits = bytes(reversed(selectors)).translate(_OCTAL_DIGITS)
    data = int(digits, 8) if digits else 0
    shift = TT_SELECTOR_BITS * len(selectors)
    data |= (1 if end else 0) << shift
    data |= (count & ((1 << TT_COUNT_BITS) - 1)) << (shift + 1)
    return data


def tt_row_fields(data: int, width: int) -> tuple[tuple[int, ...], bool, int]:
    """Unpack :func:`tt_row_data` back into ``(selectors, end, count)``."""
    selectors = []
    shift = 0
    for _ in range(width):
        selectors.append((data >> shift) & 0b111)
        shift += TT_SELECTOR_BITS
    end = bool((data >> shift) & 1)
    shift += 1
    count = (data >> shift) & ((1 << TT_COUNT_BITS) - 1)
    return tuple(selectors), end, count


def tt_row_ecc(selectors: Sequence[int], end: bool, count: int) -> int:
    """SEC-DED check word over every stored field of one TT row."""
    return secded_encode(
        tt_row_data(selectors, end, count), tt_row_bits(len(selectors))
    )


def bbit_row_bits() -> int:
    return BBIT_PC_BITS + BBIT_INDEX_BITS + BBIT_LENGTH_BITS


def bbit_row_data(pc: int, tt_index: int, num_instructions: int) -> int:
    """Pack one BBIT row (including the CAM tag) into a data word."""
    data = pc & ((1 << BBIT_PC_BITS) - 1)
    data |= (tt_index & ((1 << BBIT_INDEX_BITS) - 1)) << BBIT_PC_BITS
    data |= (num_instructions & ((1 << BBIT_LENGTH_BITS) - 1)) << (
        BBIT_PC_BITS + BBIT_INDEX_BITS
    )
    return data


def bbit_row_fields(data: int) -> tuple[int, int, int]:
    """Unpack :func:`bbit_row_data` into ``(pc, tt_index, length)``."""
    pc = data & ((1 << BBIT_PC_BITS) - 1)
    tt_index = (data >> BBIT_PC_BITS) & ((1 << BBIT_INDEX_BITS) - 1)
    num_instructions = (data >> (BBIT_PC_BITS + BBIT_INDEX_BITS)) & (
        (1 << BBIT_LENGTH_BITS) - 1
    )
    return pc, tt_index, num_instructions


def bbit_row_ecc(pc: int, tt_index: int, num_instructions: int) -> int:
    """SEC-DED check word over every stored field of one BBIT row,
    including the CAM tag (the PC)."""
    return secded_encode(
        bbit_row_data(pc, tt_index, num_instructions), bbit_row_bits()
    )
