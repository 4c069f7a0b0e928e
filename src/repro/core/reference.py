"""Reference oracles for the vertical codec.

Production encodes through the compiled codebook
(:mod:`repro.core.fastpath`) and decodes through the bitplane doubling
scan (:mod:`repro.core.bitplane`).  This module keeps the
straightforward implementations of the same contracts, written as the
paper states them, so tests, ``repro verify`` and the codec throughput
bench have an independent answer to compare against:

* encoders that call :class:`BlockSolver` once per block, for the
  greedy, optimal and disjoint strategies, at stream and block level;
* the bit-serial decoder: every restored bit is
  ``tau(stored, previous_decoded)`` with ``tau`` taken from the
  segment covering it, as the TT/BBIT fetch hardware computes it.

Nothing in the production path imports this module.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.bitstream import (
    columns_to_words,
    count_transitions,
    validate_bits,
    word_column,
)
from repro.core.block_solver import BlockSolver
from repro.core.fastpath import optimal_dp_empty_error
from repro.core.program_codec import BlockEncoding, check_block_words
from repro.core.stream_codec import (
    SegmentEncoding,
    StreamEncoding,
    check_strategy,
    segment_bounds,
    trivial_encoding,
)
from repro.core.transformations import OPTIMAL_SET, Transformation

__all__ = [
    "encode_stream_reference",
    "decode_stream_reference",
    "encode_basic_block_reference",
    "decode_basic_block_reference",
]


def _place(encoded: list[int], start: int, code: Sequence[int]) -> None:
    for offset, bit in enumerate(code):
        encoded[start + offset] = bit


def _encode_greedy(
    solver: BlockSolver, stream: list[int], bounds: list[tuple[int, int]]
) -> tuple[list[int], list[Transformation]]:
    encoded = [0] * len(stream)
    taus = []
    for index, (start, seg_len) in enumerate(bounds):
        word = stream[start : start + seg_len]
        if index == 0:
            solution = solver.solve_anchored(word)
        else:
            solution = solver.solve_constrained(word, encoded[start])
        _place(encoded, start, solution.code)
        taus.append(solution.transformation)
    return encoded, taus


def _encode_disjoint(
    solver: BlockSolver, stream: list[int], bounds: list[tuple[int, int]]
) -> tuple[list[int], list[Transformation]]:
    encoded = [0] * len(stream)
    taus = []
    for start, seg_len in bounds:
        solution = solver.solve_anchored(stream[start : start + seg_len])
        _place(encoded, start, solution.code)
        taus.append(solution.transformation)
    return encoded, taus


def _encode_optimal(
    solver: BlockSolver,
    transformations: Sequence[Transformation],
    stream: list[int],
    bounds: list[tuple[int, int]],
) -> tuple[list[int], list[Transformation]]:
    """Global minimum via DP over the one-bit block interface.

    For each block and each (incoming stored bit, outgoing stored bit,
    transformation) the minimal internal transitions are computed; a
    forward pass then chains blocks through the shared overlap bit.
    """
    # profiles[j][(in_bit, out_bit)] = (cost, transformation, code)
    profiles = []
    for index, (start, seg_len) in enumerate(bounds):
        word = stream[start : start + seg_len]
        profile: dict[tuple[int, int], tuple] = {}
        in_bits = (word[0],) if index == 0 else (0, 1)
        for in_bit in in_bits:
            for transformation in transformations:
                fixed_first = None if index == 0 else in_bit
                by_final = solver.best_by_final_bit(
                    word, transformation, fixed_first
                )
                if by_final is None:
                    continue
                for out_bit, (cost, code) in by_final.items():
                    key = (in_bit, out_bit)
                    if key not in profile or cost < profile[key][0]:
                        profile[key] = (cost, transformation, code)
        profiles.append(profile)

    # Forward DP over the interface bit: state[out_bit] = (cost, plan).
    state: dict[int, tuple[int, list]] = {}
    for (_in_bit, out_bit), (cost, transformation, code) in profiles[0].items():
        if out_bit not in state or cost < state[out_bit][0]:
            state[out_bit] = (cost, [(transformation, code)])
    for block_index, profile in enumerate(profiles[1:], start=1):
        if not state:
            raise optimal_dp_empty_error(
                block_index - 1, bounds[block_index - 1][0]
            )
        new_state: dict[int, tuple[int, list]] = {}
        for (in_bit, out_bit), (cost, transformation, code) in profile.items():
            if in_bit not in state:
                continue
            prev_cost, prev_plan = state[in_bit]
            total = prev_cost + cost
            if out_bit not in new_state or total < new_state[out_bit][0]:
                new_state[out_bit] = (total, prev_plan + [(transformation, code)])
        state = new_state
    if not state:
        last = len(bounds) - 1
        raise optimal_dp_empty_error(last, bounds[last][0])

    best_cost, plan = min(state.values(), key=lambda item: item[0])
    encoded = [0] * len(stream)
    for (start, _seg_len), (_transformation, code) in zip(bounds, plan):
        _place(encoded, start, code)
    realised = count_transitions(encoded)
    if realised != best_cost:
        raise RuntimeError(
            f"optimal encoder self-check failed: DP cost {best_cost}"
            f" != realised transitions {realised}"
        )
    return encoded, [transformation for transformation, _code in plan]


def encode_stream_reference(
    stream: Sequence[int],
    block_size: int,
    transformations: Sequence[Transformation] = OPTIMAL_SET,
    strategy: str = "greedy",
) -> StreamEncoding:
    """Encode a stream with one :class:`BlockSolver` call per block.

    Equal (``==``) to :func:`repro.core.stream_codec.encode_stream` for
    every input; the compiled derived fields stay ``None``.
    """
    if block_size < 2:
        raise ValueError(f"block size must be >= 2, got {block_size}")
    check_strategy(strategy)
    stream = validate_bits(stream)
    trivial = trivial_encoding(stream, block_size, strategy)
    if trivial is not None:
        return trivial
    transformations = tuple(transformations)
    solver = BlockSolver(transformations)
    overlapped = strategy != "disjoint"
    bounds = segment_bounds(len(stream), block_size, overlapped)
    if strategy == "greedy":
        encoded, taus = _encode_greedy(solver, stream, bounds)
    elif strategy == "disjoint":
        encoded, taus = _encode_disjoint(solver, stream, bounds)
    else:
        encoded, taus = _encode_optimal(solver, transformations, stream, bounds)
    return StreamEncoding(
        tuple(stream),
        tuple(encoded),
        block_size,
        tuple(
            SegmentEncoding(start, seg_len, tau)
            for (start, seg_len), tau in zip(bounds, taus)
        ),
        overlapped,
    )


def _decode_serial(
    stored: Sequence[int],
    segments: Sequence[tuple[int, int, Transformation]],
    overlapped: bool,
) -> list[int]:
    """The bit-serial decode recurrence over ``(start, length, tau)``
    segments.  Position 0 passes through; a disjoint segment start
    re-anchors (passes its stored bit through) too."""
    if not stored:
        return []
    decoded = [stored[0]]
    for start, length, tau in segments:
        if not overlapped and start != 0:
            decoded.append(stored[start])
        for pos in range(start + 1, start + length):
            decoded.append(tau(stored[pos], decoded[pos - 1]))
    return decoded


def decode_stream_reference(encoding: StreamEncoding) -> list[int]:
    """Bit-serial decode of a :class:`StreamEncoding`."""
    return _decode_serial(
        encoding.encoded,
        [(s.start, s.length, s.transformation) for s in encoding.segments],
        encoding.overlapped,
    )


def encode_basic_block_reference(
    words: Sequence[int],
    block_size: int,
    width: int = 32,
    transformations: Sequence[Transformation] = OPTIMAL_SET,
    strategy: str = "greedy",
) -> BlockEncoding:
    """Encode a basic block one bus line at a time with
    :func:`encode_stream_reference`; equal to
    :func:`repro.core.program_codec.encode_basic_block`."""
    words = check_block_words(words, block_size, width, strategy)
    overlapped = strategy != "disjoint"
    if not words:
        return BlockEncoding((), (), block_size, width, (), overlapped)
    lines = [
        encode_stream_reference(
            word_column(words, line), block_size, transformations, strategy
        )
        for line in range(width)
    ]
    segment_plans = tuple(
        tuple(line.segments[segment].transformation for line in lines)
        for segment in range(len(lines[0].segments))
    )
    return BlockEncoding(
        original_words=tuple(words),
        encoded_words=tuple(columns_to_words([line.encoded for line in lines])),
        block_size=block_size,
        width=width,
        segment_plans=segment_plans,
        overlapped=overlapped,
    )


def decode_basic_block_reference(encoding: BlockEncoding) -> list[int]:
    """Bit-serial decode of every bus line of a :class:`BlockEncoding`."""
    if not encoding.encoded_words:
        return []
    bounds = encoding.bounds
    columns = [
        _decode_serial(
            word_column(encoding.encoded_words, line),
            [
                (start, length, plan[line])
                for (start, length), plan in zip(bounds, encoding.segment_plans)
            ],
            encoding.overlapped,
        )
        for line in range(encoding.width)
    ]
    return columns_to_words(columns)

