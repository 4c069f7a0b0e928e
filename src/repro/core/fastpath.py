"""Compiled codebook fast path: memoized block solutions over integers.

The per-block oracle (:mod:`repro.core.reference`) re-solves the
same tiny subproblem — optimal (code word, tau) for a <= 7-bit block
word — for every bus line of every segment of every basic block.  The
subproblem space is only ``2**k`` words per (block size, variant), so
this module *compiles* a :class:`CompiledCodebook` once per
``(block_size, transformation set)`` key and turns the hot path into
table lookups, in the memoryless-table spirit of the bus-encoding
literature (Chee & Colbourn; Valentini & Chiani).

Three table families are compiled:

``anchored[length][word_int]``
    ``(code_int, tau, cost)`` for a standalone/first block — exactly
    :meth:`BlockSolver.solve_anchored`, including its tie-breaking.
``constrained[length][fixed_bit][word_int]``
    The Section 6 overlap-constrained variant
    (:meth:`BlockSolver.solve_constrained`).
``profiles``
    The per-block ``(in_bit, out_bit) -> (cost, tau, code_int)``
    interface profiles the stream-level optimal DP chains together,
    compiled lazily on first use of the ``optimal`` strategy.

Streams are represented as Python ints (bit ``i`` = stream position
``i``): block words are extracted with shift/mask and transitions are
counted with a single popcount (``count_transitions_int``).  Decoding
is the bitplane scan's job (:mod:`repro.core.bitplane`).

Every table entry is produced by the :class:`BlockSolver` at compile
time, so the fast path is bit-identical to the per-block oracle
(:mod:`repro.core.reference`) by construction;
``tests/core/test_fastpath.py`` cross-validates this property over
random streams and every strategy.

Codebooks are cached process-wide in a small LRU keyed on the
transformation set's (truth table, selector) pairs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

from repro.core.block_solver import BlockSolver, infeasible_block_error
from repro.core.transformations import OPTIMAL_SET, Transformation
from repro.obs import OBS

#: Compiled codebooks retained process-wide (newest-used last).
_CODEBOOK_LRU_SIZE = 32
_CODEBOOKS: OrderedDict[tuple, "CompiledCodebook"] = OrderedDict()


def _int_to_word(word_int: int, length: int) -> list[int]:
    """Expand a block-word integer into a time-ordered bit list."""
    return [(word_int >> i) & 1 for i in range(length)]


def _pack_code(code: Sequence[int]) -> int:
    value = 0
    for i, bit in enumerate(code):
        value |= (bit & 1) << i
    return value


class CompiledCodebook:
    """All block solutions for one ``(block_size, transformations)``.

    Entries are ``(code_int, transformation, cost)`` tuples; ``None``
    marks a block word the candidate set cannot express (possible only
    for degenerate sets without identity/inversion) — lookups then
    raise the same :class:`RuntimeError` the reference solver raises.
    """

    __slots__ = (
        "block_size",
        "transformations",
        "anchored",
        "constrained",
        "_profiles_first",
        "_profiles_chain",
        "_solver",
    )

    def __init__(
        self,
        block_size: int,
        transformations: Sequence[Transformation] = OPTIMAL_SET,
    ) -> None:
        if block_size < 2:
            raise ValueError(f"block size must be >= 2, got {block_size}")
        self.block_size = block_size
        self.transformations = tuple(transformations)
        self._solver = BlockSolver(self.transformations)
        self.anchored: list[list | None] = [None] * (block_size + 1)
        self.constrained: list[tuple[list, list] | None] = [None] * (
            block_size + 1
        )
        for length in range(1, block_size + 1):
            anchored_row = []
            for word_int in range(1 << length):
                word = _int_to_word(word_int, length)
                try:
                    sol = self._solver.solve_anchored(word)
                except RuntimeError:
                    anchored_row.append(None)
                else:
                    anchored_row.append(
                        (
                            _pack_code(sol.code),
                            sol.transformation,
                            sol.encoded_transitions,
                        )
                    )
            self.anchored[length] = anchored_row
            if length < 2:
                continue
            fixed_rows = ([], [])
            for fixed in (0, 1):
                for word_int in range(1 << length):
                    word = _int_to_word(word_int, length)
                    try:
                        sol = self._solver.solve_constrained(word, fixed)
                    except RuntimeError:
                        fixed_rows[fixed].append(None)
                    else:
                        fixed_rows[fixed].append(
                            (
                                _pack_code(sol.code),
                                sol.transformation,
                                sol.encoded_transitions,
                            )
                        )
            self.constrained[length] = fixed_rows
        self._profiles_first: list | None = None
        self._profiles_chain: list | None = None

    # ------------------------------------------------------------------
    # Interface profiles for the stream-level optimal DP
    # ------------------------------------------------------------------

    def _compile_profile(self, word: list[int], first_block: bool) -> tuple:
        """One block's DP interface profile, replicating the optimal
        loop of :func:`repro.core.reference.encode_stream_reference`
        (including its insertion order, which fixes the DP's
        tie-breaking)."""
        profile: dict[tuple[int, int], tuple[int, Transformation, tuple]] = {}
        in_bits = (word[0],) if first_block else (0, 1)
        for in_bit in in_bits:
            for transformation in self.transformations:
                fixed_first = None if first_block else in_bit
                by_final = self._solver.best_by_final_bit(
                    word, transformation, fixed_first
                )
                if by_final is None:
                    continue
                for out_bit, (cost, code) in by_final.items():
                    key = (in_bit, out_bit)
                    if key not in profile or cost < profile[key][0]:
                        profile[key] = (cost, transformation, code)
        return tuple(
            (in_bit, out_bit, cost, tau, _pack_code(code))
            for (in_bit, out_bit), (cost, tau, code) in profile.items()
        )

    def ensure_profiles(self) -> None:
        """Compile the optimal-DP profile tables (lazy: only streams
        encoded with the ``optimal`` strategy need them)."""
        if self._profiles_first is not None:
            return
        first: list = [None] * (self.block_size + 1)
        chain: list = [None] * (self.block_size + 1)
        for length in range(2, self.block_size + 1):
            first_row, chain_row = [], []
            for word_int in range(1 << length):
                word = _int_to_word(word_int, length)
                first_row.append(self._compile_profile(word, True))
                chain_row.append(self._compile_profile(word, False))
            first[length] = first_row
            chain[length] = chain_row
        self._profiles_first = first
        self._profiles_chain = chain


def get_codebook(
    block_size: int,
    transformations: Sequence[Transformation] = OPTIMAL_SET,
) -> CompiledCodebook:
    """Fetch (or compile) the codebook for a ``(k, tau set)`` key.

    Keyed on the set's (truth table, selector) pairs so sets that are
    ``==``-equal but carry different hardware selectors do not share a
    compiled book.
    """
    key = (
        block_size,
        tuple((t.func.truth_table, t.selector) for t in transformations),
    )
    book = _CODEBOOKS.get(key)
    if book is None:
        if OBS.enabled:
            OBS.registry.counter(
                "codec.codebook_misses",
                "codebook compilations (LRU misses)",
                k=str(block_size),
            ).inc()
        with OBS.tracer.span("codec.codebook_compile", k=block_size):
            book = CompiledCodebook(block_size, tuple(transformations))
        _CODEBOOKS[key] = book
        while len(_CODEBOOKS) > _CODEBOOK_LRU_SIZE:
            _CODEBOOKS.popitem(last=False)
    else:
        if OBS.enabled:
            OBS.registry.counter(
                "codec.codebook_hits",
                "compiled codebook LRU hits",
                k=str(block_size),
            ).inc()
        _CODEBOOKS.move_to_end(key)
    return book


def clear_codebook_cache() -> None:
    """Drop all compiled codebooks (testing hook)."""
    _CODEBOOKS.clear()


# ----------------------------------------------------------------------
# Integer bit-parallel encode cores
# ----------------------------------------------------------------------


def encode_greedy_int(
    book: CompiledCodebook,
    stream_int: int,
    bounds: Sequence[tuple[int, int]],
) -> tuple[int, list[Transformation]]:
    """Greedy chained encoding over an integer stream.

    ``bounds`` must be the overlapped segment bounds for the stream's
    length; returns the encoded stream integer and the per-segment
    transformation plan.
    """
    anchored = book.anchored
    constrained = book.constrained
    encoded = 0
    taus: list[Transformation] = []
    for index, (start, seg_len) in enumerate(bounds):
        word_int = (stream_int >> start) & ((1 << seg_len) - 1)
        if index == 0:
            entry = anchored[seg_len][word_int]
        else:
            entry = constrained[seg_len][(encoded >> start) & 1][word_int]
        if entry is None:
            raise infeasible_block_error(_int_to_word(word_int, seg_len))
        code_int, tau, _cost = entry
        # The code's first bit equals the already-written overlap bit,
        # so OR-ing never clobbers earlier segments.
        encoded |= code_int << start
        taus.append(tau)
    return encoded, taus


def encode_disjoint_int(
    book: CompiledCodebook,
    stream_int: int,
    bounds: Sequence[tuple[int, int]],
) -> tuple[int, list[Transformation]]:
    """Disjoint (non-overlapped) encoding: every block anchored."""
    anchored = book.anchored
    encoded = 0
    taus: list[Transformation] = []
    for start, seg_len in bounds:
        word_int = (stream_int >> start) & ((1 << seg_len) - 1)
        entry = anchored[seg_len][word_int]
        if entry is None:
            raise infeasible_block_error(_int_to_word(word_int, seg_len))
        code_int, tau, _cost = entry
        encoded |= code_int << start
        taus.append(tau)
    return encoded, taus


def optimal_dp_empty_error(block_index: int, start: int) -> RuntimeError:
    """The error both optimal-DP implementations raise when no
    transformation in the candidate set can express some block word
    (the DP state would otherwise feed an opaque ``min()`` failure)."""
    return RuntimeError(
        f"optimal DP state is empty at block {block_index} (stream "
        f"position {start}): no transformation in the candidate set can "
        "express the block word — include identity (x) and inversion (~x)"
    )


def encode_optimal_int(
    book: CompiledCodebook,
    stream_int: int,
    bounds: Sequence[tuple[int, int]],
) -> tuple[int, list[Transformation], int]:
    """Globally optimal chained encoding via the interface-bit DP.

    Identical tie-breaking to the oracle's optimal DP: the
    compiled profiles preserve its iteration order, and the forward DP
    keeps backpointer chains instead of copying plans (O(blocks) rather
    than O(blocks^2)).
    """
    book.ensure_profiles()
    profiles_first = book._profiles_first
    profiles_chain = book._profiles_chain

    # state[out_bit] = (cost, node); node = (prev_node, tau, code_int)
    state: dict[int, tuple[int, tuple]] = {}
    start0, len0 = bounds[0]
    word_int = (stream_int >> start0) & ((1 << len0) - 1)
    for _in_bit, out_bit, cost, tau, code_int in profiles_first[len0][word_int]:
        if out_bit not in state or cost < state[out_bit][0]:
            state[out_bit] = (cost, (None, tau, code_int))
    for block_index, (start, seg_len) in enumerate(bounds[1:], start=1):
        if not state:
            raise optimal_dp_empty_error(block_index - 1, bounds[block_index - 1][0])
        word_int = (stream_int >> start) & ((1 << seg_len) - 1)
        new_state: dict[int, tuple[int, tuple]] = {}
        for in_bit, out_bit, cost, tau, code_int in profiles_chain[seg_len][
            word_int
        ]:
            prev = state.get(in_bit)
            if prev is None:
                continue
            total = prev[0] + cost
            current = new_state.get(out_bit)
            if current is None or total < current[0]:
                new_state[out_bit] = (total, (prev[1], tau, code_int))
        state = new_state
    if not state:
        last = len(bounds) - 1
        raise optimal_dp_empty_error(last, bounds[last][0])

    best_cost, node = min(state.values(), key=lambda item: item[0])
    plan: list[tuple[Transformation, int]] = []
    while node is not None:
        node, tau, code_int = node
        plan.append((tau, code_int))
    plan.reverse()
    encoded = 0
    taus: list[Transformation] = []
    for (start, _seg_len), (tau, code_int) in zip(bounds, plan):
        encoded |= code_int << start
        taus.append(tau)
    return encoded, taus, best_cost
