"""Vertical per-bus-line encoding of instruction words (Section 4).

A basic block of ``m`` instructions induces ``width`` vertical bit
streams (one per bus line, Figure 1b).  Every stream is chain-encoded
with the same block segmentation — a Transformation Table entry is one
segment: the 3-bit selectors for *all* bus lines plus the E/CT tail
bookkeeping (Figure 5a).  This module produces the encoded instruction
words (what is stored in program memory) and the per-segment selector
plans (what is loaded into the TT).

Encoding runs through the compiled codebook fast path: columns are
extracted from the word list with shift/mask loops into Python ints
and each block is one table lookup (:mod:`repro.core.fastpath`).
Decoding restores all bus lines at once through the word-major
bitplane scan (:mod:`repro.core.bitplane`).  The per-block solver and
bit-serial oracles these are checked against live in
:mod:`repro.core.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core import bitplane
from repro.core.fastpath import (
    encode_disjoint_int,
    encode_greedy_int,
    encode_optimal_int,
    get_codebook,
)
from repro.core.stream_codec import (
    _segment_bounds_cached,
    check_strategy,
    segment_bounds,
)
from repro.core.transitions import word_transitions
from repro.core.transformations import IDENTITY, OPTIMAL_SET, Transformation
from repro.obs import OBS


@dataclass(frozen=True)
class BlockEncoding:
    """The encoded form of one basic block.

    Attributes
    ----------
    original_words / encoded_words:
        Instruction words in fetch order, before and after encoding.
    block_size:
        The vertical block length ``k``.
    width:
        Bus width in bits (32 for our ISA).
    segment_plans:
        ``segment_plans[s][b]`` is the transformation applied by bus
        line ``b`` during segment ``s`` — exactly the payload of the
        ``s``-th Transformation Table entry for this basic block.
    overlapped:
        ``False`` for the disjoint strategy, whose segments do not
        share a boundary bit and re-anchor at every segment start.
    """

    original_words: tuple[int, ...]
    encoded_words: tuple[int, ...]
    block_size: int
    width: int
    segment_plans: tuple[tuple[Transformation, ...], ...]
    overlapped: bool = True

    def __len__(self) -> int:
        return len(self.original_words)

    @property
    def num_segments(self) -> int:
        """Transformation Table entries this basic block consumes."""
        return len(self.segment_plans)

    @property
    def bounds(self) -> list[tuple[int, int]]:
        """(start, length) of each segment in instruction indices."""
        return segment_bounds(
            len(self.original_words), self.block_size, self.overlapped
        )

    @property
    def original_transitions(self) -> int:
        """Bus transitions fetching the original block start-to-end."""
        return word_transitions(self.original_words)

    @property
    def encoded_transitions(self) -> int:
        """Bus transitions fetching the encoded block start-to-end."""
        return word_transitions(self.encoded_words)

    @property
    def reduction_percent(self) -> float:
        total = self.original_transitions
        if total == 0:
            return 0.0
        return 100.0 * (total - self.encoded_transitions) / total

    def selectors(self) -> list[list[int]]:
        """3-bit TT selector codes, ``selectors()[segment][line]``.

        Raises if any planned transformation lies outside the optimal
        8-set (cannot happen when encoding used the default set).
        """
        table = []
        for plan in self.segment_plans:
            row = []
            for transformation in plan:
                if transformation.selector is None:
                    raise ValueError(
                        f"transformation {transformation.name!r} has no "
                        "hardware selector (outside the optimal 8-set)"
                    )
                row.append(transformation.selector)
            table.append(row)
        return table


def tt_entries_required(num_instructions: int, block_size: int) -> int:
    """Transformation Table entries a basic block of the given length
    consumes (used by the hot-spot selector's capacity accounting)."""
    return max(1, len(segment_bounds(num_instructions, block_size)))


def _encode_columns(
    words: list[int],
    block_size: int,
    width: int,
    transformations: tuple[Transformation, ...],
    strategy: str,
) -> BlockEncoding:
    """Integer bit-parallel vertical encoding through the codebook."""
    book = get_codebook(block_size, transformations)
    length = len(words)
    overlapped = strategy != "disjoint"
    bounds = _segment_bounds_cached(length, block_size, overlapped)
    encoded_columns: list[int] = []
    per_line_taus: list[list[Transformation]] = []
    for line in range(width):
        column = 0
        for t, word in enumerate(words):
            column |= ((word >> line) & 1) << t
        if strategy == "greedy":
            encoded, taus = encode_greedy_int(book, column, bounds)
        elif strategy == "optimal":
            encoded, taus, _cost = encode_optimal_int(book, column, bounds)
        else:
            encoded, taus = encode_disjoint_int(book, column, bounds)
        encoded_columns.append(encoded)
        per_line_taus.append(taus)

    encoded_words = []
    for t in range(length):
        word = 0
        for line in range(width):
            word |= ((encoded_columns[line] >> t) & 1) << line
        encoded_words.append(word)

    segment_plans = tuple(
        tuple(per_line_taus[line][segment] for line in range(width))
        for segment in range(len(bounds))
    )
    return BlockEncoding(
        original_words=tuple(words),
        encoded_words=tuple(encoded_words),
        block_size=block_size,
        width=width,
        segment_plans=segment_plans,
        overlapped=overlapped,
    )


def check_block_words(
    words: Sequence[int], block_size: int, width: int, strategy: str
) -> list[int]:
    """Validate a basic block's words and encoding options; returns
    the words as plain ints."""
    words = [int(w) for w in words]
    for w in words:
        if w < 0 or w >= (1 << width):
            raise ValueError(f"word {w:#x} does not fit in {width} bits")
    if words:
        if block_size < 2:
            raise ValueError(f"block size must be >= 2, got {block_size}")
        check_strategy(strategy)
    return words


def encode_basic_block(
    words: Sequence[int],
    block_size: int,
    width: int = 32,
    transformations: Sequence[Transformation] = OPTIMAL_SET,
    strategy: str = "greedy",
) -> BlockEncoding:
    """Encode a basic block's instruction words vertically.

    Every bus line is encoded independently (Section 4: "Each bit, or
    column ..., undergoes a distinct encoding analysis"), but all lines
    share the same segmentation so a TT entry can carry one selector
    per line.
    """
    words = check_block_words(words, block_size, width, strategy)
    overlapped = strategy != "disjoint"
    if not words:
        return BlockEncoding((), (), block_size, width, (), overlapped)
    if OBS.enabled:
        OBS.registry.counter(
            "codec.blocks_encoded",
            "basic blocks vertically encoded",
            strategy=strategy,
        ).inc()
        OBS.registry.counter(
            "codec.words_encoded",
            "instruction words vertically encoded",
        ).inc(len(words))
    if len(words) == 1:
        # One-bit columns have nothing to transform: every line keeps
        # its stored bit under the identity.
        return BlockEncoding(
            original_words=tuple(words),
            encoded_words=tuple(words),
            block_size=block_size,
            width=width,
            segment_plans=((IDENTITY,) * width,),
            overlapped=overlapped,
        )
    return _encode_columns(
        words, block_size, width, tuple(transformations), strategy
    )


def encode_basic_blocks(
    word_lists: Sequence[Sequence[int]],
    block_size: int,
    width: int = 32,
    transformations: Sequence[Transformation] = OPTIMAL_SET,
    strategy: str = "greedy",
) -> list[BlockEncoding]:
    """Encode many independent basic blocks, preserving order."""
    transformations = tuple(transformations)
    return [
        encode_basic_block(
            words,
            block_size,
            width=width,
            transformations=transformations,
            strategy=strategy,
        )
        for words in word_lists
    ]


def decode_basic_block(encoding: BlockEncoding) -> list[int]:
    """Restore the original instruction words from a
    :class:`BlockEncoding` (software mirror of the fetch hardware):
    all ``width`` vertical streams decode concurrently through the
    word-major bitplane scan."""
    if not encoding.encoded_words:
        return []
    length = len(encoding.encoded_words)
    bounds = _segment_bounds_cached(
        length, encoding.block_size, encoding.overlapped
    )
    if len(bounds) != len(encoding.segment_plans):
        raise ValueError(
            f"plan length {len(encoding.segment_plans)} does not match "
            f"{len(bounds)} blocks for a stream of {length} bits"
        )
    plans = tuple(
        tuple(transformation.func.truth_table for transformation in plan)
        for plan in encoding.segment_plans
    )
    return bitplane.decode_block_bitplane(
        encoding.encoded_words,
        bounds,
        plans,
        width=encoding.width,
        overlapped=encoding.overlapped,
    )
