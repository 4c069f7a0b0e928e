"""Chained encoding of arbitrary-length bit streams (Section 6).

A stream is split into blocks of ``block_size`` bits with a one-bit
overlap between neighbours: block ``j`` covers stream positions
``[j*(k-1), j*(k-1) + k)``.  The first block is anchored (its first
stored bit equals the original); every later block inherits its first
stored bit from the previous block's encoding, which couples the block
choices sequentially ("the transformation selected for a given block
depends on the transformation selected for the previous block").

Three strategies are provided:

``greedy``
    The paper's iterative approach: encode blocks left to right, each
    minimising its own transitions given the inherited overlap bit.
``optimal``
    A dynamic program over the one-bit block interface that finds the
    globally minimal-transition encoding; used to substantiate the
    paper's empirical claim that greedy is near-optimal.
``disjoint``
    Blocks without overlap, each independently anchored — the strawman
    the paper dismisses ("Were blocks to be disjoint, no improvement
    can be effected" across boundaries); kept for the overlap ablation.

Encoding runs through the **compiled codebook fast path**
(:mod:`repro.core.fastpath`): streams are packed into Python ints and
each block resolves to one table lookup.  Decoding runs through the
bitplane doubling scan (:mod:`repro.core.bitplane`).  The per-block
:class:`BlockSolver` encoders and the bit-serial decoder live in
:mod:`repro.core.reference` as the oracle both are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from repro.core import bitplane
from repro.core.bitstream import (
    count_transitions,
    count_transitions_int,
    pack_bits,
    unpack_bits,
    validate_bits,
)
from repro.core.fastpath import (
    encode_disjoint_int,
    encode_greedy_int,
    encode_optimal_int,
    get_codebook,
)
from repro.core.transformations import (
    IDENTITY,
    OPTIMAL_SET,
    Transformation,
)

STRATEGIES = ("greedy", "optimal", "disjoint")


@dataclass(frozen=True)
class SegmentEncoding:
    """One encoded block within a stream.

    ``start`` indexes the stream position of the block's first bit
    (the overlap bit for non-initial blocks); ``length`` counts the
    positions covered including the overlap bit.
    """

    start: int
    length: int
    transformation: Transformation

    @property
    def end(self) -> int:
        return self.start + self.length


@dataclass(frozen=True)
class StreamEncoding:
    """A fully encoded bit stream with its block/transformation plan.

    ``encoded_int`` and ``truth_tables`` are derived decode metadata
    the compiled encoder already holds (the packed stored bits and the
    per-segment tau truth tables); carrying them spares the bitplane
    decoder re-deriving both on every call.  They are excluded from
    equality/repr — an oracle encoding (which leaves them ``None``)
    still compares equal to its fast-path twin, and decode falls back
    to recomputing them.
    """

    original: tuple[int, ...]
    encoded: tuple[int, ...]
    block_size: int
    segments: tuple[SegmentEncoding, ...]
    overlapped: bool = True
    encoded_int: int | None = field(default=None, compare=False, repr=False)
    truth_tables: tuple[int, ...] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def original_transitions(self) -> int:
        return count_transitions(self.original)

    @property
    def encoded_transitions(self) -> int:
        return count_transitions(self.encoded)

    @property
    def reduction(self) -> int:
        return self.original_transitions - self.encoded_transitions

    @property
    def reduction_percent(self) -> float:
        total = self.original_transitions
        if total == 0:
            return 0.0
        return 100.0 * self.reduction / total

    def transformations(self) -> list[Transformation]:
        return [segment.transformation for segment in self.segments]


def segment_bounds(length: int, block_size: int, overlapped: bool = True) -> list[tuple[int, int]]:
    """Block (start, length) pairs covering a stream of ``length`` bits.

    With overlap, consecutive blocks share one position; the tail block
    may be shorter than ``block_size`` (the hardware handles it via the
    E/CT fields of the Transformation Table, Section 7.2).
    """
    if block_size < 2:
        raise ValueError(f"block size must be >= 2, got {block_size}")
    return list(_segment_bounds_cached(length, block_size, overlapped))


@lru_cache(maxsize=4096)
def _segment_bounds_cached(
    length: int, block_size: int, overlapped: bool
) -> tuple[tuple[int, int], ...]:
    if length <= 0:
        return ()
    if length == 1:
        return ((0, 1),)
    bounds = []
    if overlapped:
        start = 0
        while start < length - 1:
            bounds.append((start, min(block_size, length - start)))
            start += block_size - 1
    else:
        start = 0
        while start < length:
            bounds.append((start, min(block_size, length - start)))
            start += block_size
    return tuple(bounds)


def check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )


def trivial_encoding(
    stream: list[int], block_size: int, strategy: str
) -> StreamEncoding | None:
    """The encoding of an empty or one-bit stream (nothing to
    transform), or ``None`` for a stream that needs blocks."""
    if len(stream) > 1:
        return None
    segments = (SegmentEncoding(0, 1, IDENTITY),) if stream else ()
    return StreamEncoding(
        tuple(stream), tuple(stream), block_size, segments, strategy != "disjoint"
    )


class StreamEncoder:
    """Encoder for vertical bit streams.

    Parameters
    ----------
    block_size:
        Block length ``k`` (the paper studies 4..7).
    transformations:
        Candidate transformation set (defaults to the optimal 8-set).
    strategy:
        ``"greedy"`` (the paper's), ``"optimal"`` (interface DP) or
        ``"disjoint"`` (no overlap, ablation only).
    """

    def __init__(
        self,
        block_size: int,
        transformations: Sequence[Transformation] = OPTIMAL_SET,
        strategy: str = "greedy",
    ) -> None:
        if block_size < 2:
            raise ValueError(f"block size must be >= 2, got {block_size}")
        check_strategy(strategy)
        self.block_size = block_size
        self.transformations = tuple(transformations)
        self.strategy = strategy
        self._codebook = get_codebook(block_size, self.transformations)

    def encode(self, stream: Sequence[int]) -> StreamEncoding:
        """Encode a stream; decoding the result restores it exactly."""
        stream = validate_bits(stream)
        trivial = trivial_encoding(stream, self.block_size, self.strategy)
        if trivial is not None:
            return trivial
        overlapped = self.strategy != "disjoint"
        bounds = _segment_bounds_cached(len(stream), self.block_size, overlapped)
        packed = pack_bits(stream)
        if self.strategy == "greedy":
            encoded_int, taus = encode_greedy_int(self._codebook, packed, bounds)
        elif self.strategy == "disjoint":
            encoded_int, taus = encode_disjoint_int(self._codebook, packed, bounds)
        else:
            encoded_int, taus, best_cost = encode_optimal_int(
                self._codebook, packed, bounds
            )
            # Explicit check (not a bare assert: `python -O` must not
            # strip the verification from the production path).
            realised = count_transitions_int(encoded_int, len(stream))
            if realised != best_cost:
                raise RuntimeError(
                    f"optimal encoder self-check failed: DP cost {best_cost}"
                    f" != realised transitions {realised}"
                )
        return StreamEncoding(
            tuple(stream),
            unpack_bits(encoded_int, len(stream)),
            self.block_size,
            tuple(
                SegmentEncoding(start, seg_len, tau)
                for (start, seg_len), tau in zip(bounds, taus)
            ),
            overlapped,
            encoded_int=encoded_int,
            truth_tables=tuple(tau.func.truth_table for tau in taus),
        )


def encode_stream(
    stream: Sequence[int],
    block_size: int,
    transformations: Sequence[Transformation] = OPTIMAL_SET,
    strategy: str = "greedy",
) -> StreamEncoding:
    """Convenience wrapper around :class:`StreamEncoder`."""
    return StreamEncoder(block_size, transformations, strategy).encode(stream)


def decode_stream(encoding: StreamEncoding) -> list[int]:
    """Decode a :class:`StreamEncoding` through the bitplane scan.

    Mirrors the hardware: the stream's first bit passes through
    unchanged; every later bit is ``tau(stored, previous_decoded)``
    with ``tau`` selected by the segment covering that position.
    """
    if not encoding.encoded:
        return []
    # Segmentation is a pure function of (length, k, overlap), so the
    # cached uniform bounds are exactly this encoding's layout;
    # fast-path encodings carry their packed bits and truth tables
    # already, oracle ones re-derive both here.
    length = len(encoding.encoded)
    packed = encoding.encoded_int
    if packed is None:
        packed, length = bitplane.pack_validated(encoding.encoded)
    truth_tables = encoding.truth_tables
    if truth_tables is None:
        truth_tables = tuple(
            s.transformation.func.truth_table for s in encoding.segments
        )
    decoded_int = bitplane.decode_plan_bitplane(
        packed,
        length,
        _segment_bounds_cached(length, encoding.block_size, encoding.overlapped),
        (),
        encoding.overlapped,
        truth_tables=truth_tables,
    )
    return bitplane.bits_list(decoded_int, length)
