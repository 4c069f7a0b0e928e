"""Packed-bitplane vectorized decode core (the 32-vertical-stream view).

The paper's decode recurrence is bit-serial on its face: position ``p``
of a bus line restores as ``d[p] = tau_p(e[p], d[p-1])`` where ``tau_p``
is the transformation of the segment covering ``p``.  But each tau is a
two-input boolean function, so for a *fixed* stored stream ``e`` the
recurrence collapses to an affine-over-GF(2) first-order form

    ``d[p] = B[p] XOR (A[p] AND d[p-1])``

with per-position masks derived from the tau truth tables:

* ``A[p] = tau_p(e[p], 0) XOR tau_p(e[p], 1)`` — does position ``p``
  depend on its history bit at all?
* ``B[p] = tau_p(e[p], 0)`` — the decoded bit when the history is 0.

Anchor positions (stream position 0, and every segment start under the
disjoint strategy) pass the stored bit through: they are modelled as
the identity tau, which gives ``A = 0`` there — the recurrence
re-anchors itself and nothing propagates across an anchor.

A first-order recurrence with AND/XOR coefficients is solvable with the
classic parallel-prefix doubling trick in ``O(log n)`` full-width
bitwise operations::

    m = 1
    while m < n:
        B ^= A & (B << m)   # substitute the recurrence into itself
        A &= A << m         # dependence distance doubles
        m <<= 1
    d = B

Because ``A`` is zero at every anchor, the same solve works unchanged
on *lane-packed* operands: the 32 vertical bit streams of a basic
block are concatenated into one ``32*n``-bit operand (lane ``L``
occupies bits ``[L*n, (L+1)*n)``) and decoded in a single scan — all
lines of all words of a block per operation, instead of one bit of one
line per Python loop iteration.

The scan runs on arbitrary-precision Python integers: CPython applies
each bitwise operator to the whole operand in C, and at the operand
sizes this codebase produces (a 5000-bit stream, a 32x64-bit
lane-packed block) one big-int operation beats a numpy pass, whose
per-call dispatch dominates on such short arrays.  numpy only
transposes instruction words into lanes (``packbits``/``unpackbits``).

``tests/core/test_bitplane.py`` and the differential campaign check
every decode entry point against the bit-serial oracle
(:mod:`repro.core.reference`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.core.boolfunc import TT_X
from repro.obs import OBS

__all__ = [
    "solve_first_order",
    "decode_plan_bitplane",
    "decode_block_bitplane",
    "transpose_words",
    "untranspose_words",
    "pack_validated",
    "bits_list",
]


def solve_first_order(coeff: int, const: int, nbits: int) -> int:
    """Solve ``d[p] = const[p] ^ (coeff[p] & d[p-1])`` over ``nbits``
    packed positions (``d[-1] = 0``) with the doubling scan."""
    if nbits <= 0:
        return 0
    mask = (1 << nbits) - 1
    a = coeff & mask
    b = const & mask
    m = 1
    while m < nbits:
        b ^= (a & (b << m)) & mask
        a &= (a << m) & mask
        m <<= 1
    return b & mask


# ----------------------------------------------------------------------
# Plan planes: per-position tau truth tables, packed
# ----------------------------------------------------------------------

#: For truth-table bit ``b``, maps a per-position tau byte to ASCII
#: ``'0'``/``'1'`` — so one ``bytes.translate`` builds a whole plane.
_TT_BIT_TABLES = tuple(
    bytes((49 if (value >> bit) & 1 else 48) for value in range(256))
    for bit in range(4)
)


def _planes_from_bytes(arr: bytearray) -> tuple[int, int, int, int]:
    """Fold a per-position truth-table bytearray into the four decode
    planes ``(x0, x1, t00, t10)``:

    * stored bit 0: ``A = x0 = t00^t01``, ``B = t00``;
    * stored bit 1: ``A = x1 = t10^t11``, ``B = t10``.
    """
    raw = bytes(arr)
    t00, t01, t10, t11 = (
        int(raw.translate(table)[::-1], 2) for table in _TT_BIT_TABLES
    )
    return (t00 ^ t01, t10 ^ t11, t00, t10)


@lru_cache(maxsize=4096)
def _plan_planes(
    length: int,
    bounds: tuple[tuple[int, int], ...],
    truth_tables: tuple[int, ...],
    overlapped: bool,
) -> tuple[int, int, int, int]:
    """Decode planes for one single-stream segment plan.

    Position 0 (and every disjoint segment start) carries the identity
    tau; each segment's *body* (positions ``start+1 .. start+len-1``)
    carries that segment's tau — exactly the per-position protocol of
    the bit-serial :func:`repro.core.reference.decode_stream_reference`.
    """
    arr = bytearray(length)
    arr[0] = TT_X
    for (start, seg_len), tt in zip(bounds, truth_tables):
        if not overlapped and start != 0:
            arr[start] = TT_X
        if seg_len > 1:
            arr[start + 1 : start + seg_len] = bytes((tt,)) * (seg_len - 1)
    return _planes_from_bytes(arr)


@lru_cache(maxsize=1024)
def _block_planes(
    length: int,
    width: int,
    bounds: tuple[tuple[int, int], ...],
    plans: tuple[tuple[int, ...], ...],
    overlapped: bool,
) -> tuple[int, int, int, int]:
    """Decode planes for a lane-packed basic block: ``width`` vertical
    streams of ``length`` bits, lane ``L`` at bits ``[L*length, ...)``,
    each lane with its own per-segment tau row (``plans[s][L]`` is the
    truth table of segment ``s`` on line ``L``)."""
    arr = bytearray(width * length)
    for line in range(width):
        base = line * length
        arr[base] = TT_X
        for (start, seg_len), plan in zip(bounds, plans):
            if not overlapped and start != 0:
                arr[base + start] = TT_X
            if seg_len > 1:
                arr[base + start + 1 : base + start + seg_len] = bytes(
                    (plan[line],)
                ) * (seg_len - 1)
    return _planes_from_bytes(arr)


def _masks_to_recurrence(
    planes: tuple[int, int, int, int], encoded: int, nbits: int
) -> tuple[int, int]:
    """Specialise the tau planes to one stored operand: the positions
    where the stored bit is 1 take the ``x1``/``t10`` planes, the rest
    the ``x0``/``t00`` planes."""
    x0, x1, t00, t10 = planes
    mask = (1 << nbits) - 1
    e = encoded & mask
    ne = e ^ mask
    return (x1 & e) | (x0 & ne), (t10 & e) | (t00 & ne)


# ----------------------------------------------------------------------
# Stream-level decode
# ----------------------------------------------------------------------


def decode_plan_bitplane(
    encoded_int: int,
    length: int,
    bounds: Sequence[tuple[int, int]],
    transformations: Sequence,
    overlapped: bool = True,
    truth_tables: tuple[int, ...] | None = None,
) -> int:
    """Decode an integer stream from its segment bounds and tau plan
    in one doubling scan.  Bit-identical to the bit-serial oracle by
    construction (the differential campaign and the k=2..7 sweeps
    machine-check this).

    A caller that already holds the per-segment truth tables (e.g. a
    :class:`~repro.core.stream_codec.StreamEncoding` from the compiled
    encoder) can pass them via ``truth_tables`` to skip re-extracting
    them from ``transformations``.
    """
    if length == 0:
        return 0
    if truth_tables is None:
        # Keyed on the raw truth-table ints, not the Transformation
        # objects: hashing an int tuple is C-speed, hashing a tuple of
        # frozen dataclasses re-hashes every field of every element.
        truth_tables = tuple(t.func.truth_table for t in transformations)
    planes = _plan_planes(length, tuple(bounds), truth_tables, overlapped)
    coeff, const = _masks_to_recurrence(planes, encoded_int, length)
    decoded = solve_first_order(coeff, const, length)
    if OBS.enabled:
        OBS.registry.counter(
            "codec.bitplane_streams_decoded",
            "vertical bit streams decoded through the bitplane scan",
        ).inc()
    return decoded


# ----------------------------------------------------------------------
# Lane-packed block decode
# ----------------------------------------------------------------------


def _check_width(width: int) -> None:
    if not 0 < width <= 32:
        raise ValueError(f"bitplane transpose needs a width in 1..32, got {width}")


def transpose_words(words: Sequence[int], width: int = 32) -> int:
    """Pack instruction words into the lane-major bitplane operand:
    bit ``L*len(words) + t`` of the result is bit ``L`` of
    ``words[t]`` (bus line ``L``'s vertical stream, time-ordered)."""
    _check_width(width)
    n = len(words)
    if n == 0:
        return 0
    arr = np.asarray(words, dtype="<u4")
    bits = np.unpackbits(arr.view(np.uint8), bitorder="little").reshape(n, 32)
    packed = np.packbits(
        np.ascontiguousarray(bits[:, :width].T).reshape(-1), bitorder="little"
    )
    return int.from_bytes(packed.tobytes(), "little")


def untranspose_words(packed: int, length: int, width: int = 32) -> list[int]:
    """Inverse of :func:`transpose_words`."""
    _check_width(width)
    if length == 0:
        return []
    total = width * length
    data = packed.to_bytes((total + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    rows = np.zeros((length, 32), dtype=np.uint8)
    rows[:, :width] = bits[:total].reshape(width, length).T
    repacked = np.packbits(rows.reshape(-1), bitorder="little")
    return np.frombuffer(repacked.tobytes(), dtype="<u4").tolist()


def decode_block_bitplane(
    encoded_words: Sequence[int],
    bounds: Sequence[tuple[int, int]],
    plans: Sequence[Sequence[int]],
    width: int = 32,
    overlapped: bool = True,
) -> list[int]:
    """Decode a whole basic block in one lane-packed scan.

    ``plans[s][line]`` is the truth table applied by bus line ``line``
    during segment ``s`` — the payload of the block's ``s``-th
    Transformation Table row.  All ``width`` vertical streams decode
    concurrently; the per-lane anchors (``A = 0``) stop the scan from
    propagating anything across lane boundaries.
    """
    n = len(encoded_words)
    if n == 0:
        return []
    planes = _block_planes(
        n,
        width,
        tuple(bounds),
        tuple(tuple(plan) for plan in plans),
        overlapped,
    )
    packed = transpose_words(encoded_words, width)
    coeff, const = _masks_to_recurrence(planes, packed, width * n)
    decoded = solve_first_order(coeff, const, width * n)
    words = untranspose_words(decoded, n, width)
    if OBS.enabled:
        registry = OBS.registry
        registry.counter(
            "codec.bitplane_blocks_decoded",
            "basic blocks decoded through the lane-packed bitplane scan",
        ).inc()
        registry.counter(
            "codec.bitplane_words_decoded",
            "instruction words decoded through the bitplane scan",
        ).inc(n)
    return words


# ----------------------------------------------------------------------
# Fast 0/1-list <-> int bridges (C-speed, validation-compatible)
# ----------------------------------------------------------------------

#: Byte value 0/1 -> ASCII '0'/'1' (everything else is pre-validated).
_BIT_TO_ASCII = bytes((49 if value == 1 else 48) for value in range(256))
#: ASCII '0'/'1' -> byte value 0/1.
_ASCII_TO_BIT = bytes(
    (value - 48 if value in (48, 49) else 0) for value in range(256)
)


def pack_validated(stream) -> tuple[int, int]:
    """Validate and pack a 0/1 sequence at C speed.

    Same contract as ``pack_bits(validate_bits(stream))`` — including
    raising :class:`ValueError` through
    :func:`repro.core.bitstream.validate_bits` for non-bit elements, so
    error text stays canonical — but the happy path is two ``bytes``
    conversions and one ``int`` parse.
    """
    from repro.core.bitstream import validate_bits

    bits = stream if isinstance(stream, (list, tuple)) else list(stream)
    try:
        raw = bytes(bits)
    except (TypeError, ValueError):
        # Non-int elements: let the canonical validator raise (or
        # normalise odd-but-valid values like 1.0, exactly as the
        # scalar paths would accept them).
        raw = bytes(int(bit) for bit in validate_bits(list(bits)))
    if raw.translate(None, b"\x00\x01"):
        validate_bits(list(bits))  # raises the canonical per-element error
        raise ValueError("stream elements must be 0 or 1")  # pragma: no cover
    if not raw:
        return 0, 0
    return int(raw.translate(_BIT_TO_ASCII)[::-1], 2), len(raw)


def bits_list(value: int, length: int) -> list[int]:
    """The low ``length`` bits of ``value`` as a time-ordered 0/1 list
    (C-speed inverse of :func:`pack_validated`)."""
    if length == 0:
        return []
    text = format(value & ((1 << length) - 1), f"0{length}b").encode()
    bits = list(text.translate(_ASCII_TO_BIT))
    bits.reverse()
    return bits
