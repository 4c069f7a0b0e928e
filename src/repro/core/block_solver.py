"""Optimal code-word and transformation search for a single block.

This implements the Section 5.1 construction: given a block word
``X`` (a short bit stream), find a code word ``X~`` with as few
transitions as possible together with a transformation ``tau`` such
that the decoder can restore ``X`` bit-serially via
``x_n = tau(x~_n, x_{n-1})``.

Two problem variants exist:

* **Anchored** (standalone block, the Figure 2/3/4 setting): the first
  stored bit equals the first original bit, ``x~_0 = x_0`` — the
  decoder passes the block's first bit through unchanged.
* **Overlap-constrained** (Section 6): the block's first position is
  the one-bit overlap with the previous block, whose *stored* value was
  already fixed by the previous block's encoding; the anchor equation
  is dropped and the code-word search is restricted to code words whose
  first bit equals that fixed value.  The decoder knows the original
  overlap bit (it decoded it an instant earlier), so the history chain
  is unbroken.

For each candidate transformation the feasible stored bits per
position follow from :meth:`BoolFunc.solve_x`; a tiny dynamic program
then picks free bits to minimise transitions.  The module also carries
:func:`solve_anchored_by_enumeration`, a direct implementation of the
paper's own search order (try code words by increasing transition
count, test mappability) used to cross-validate the DP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.core.bitstream import count_transitions, validate_bits
from repro.core.transformations import (
    ALL_TRANSFORMATIONS,
    OPTIMAL_SET,
    Transformation,
)
from repro.obs import OBS

_INF = 1 << 30


def infeasible_block_error(word: Sequence[int]) -> RuntimeError:
    """The error raised when no candidate transformation can express a
    block word.  Shared with the compiled fast path so both report
    infeasible words identically."""
    return RuntimeError(
        f"no transformation in the candidate set can express block "
        f"{list(word)} (set too small — include identity and ~x)"
    )


@dataclass(frozen=True)
class BlockSolution:
    """Result of encoding one block word.

    Attributes
    ----------
    word:
        Original bits, time order (``word[0]`` fetched first).
    code:
        Stored bits, time order, same length as ``word``.
    transformation:
        The decode transformation assigned to this block.
    original_transitions:
        Transitions within ``word`` (the paper's ``T_x`` column).
    encoded_transitions:
        Transitions within ``code`` (the paper's ``T_x~`` column).
    """

    word: tuple[int, ...]
    code: tuple[int, ...]
    transformation: Transformation
    original_transitions: int
    encoded_transitions: int

    @property
    def reduction(self) -> int:
        return self.original_transitions - self.encoded_transitions


def _decode_with(
    transformation: Transformation,
    code: Sequence[int],
    first_is_anchor: bool,
    history_before: int | None,
) -> list[int] | None:
    """Decode ``code`` under the solver's protocol; ``None`` if the
    protocol cannot start (no history for a non-anchored block)."""
    decoded: list[int] = []
    if first_is_anchor:
        decoded.append(code[0])
    else:
        if history_before is None:
            return None
        decoded.append(history_before)
    for i in range(1, len(code)):
        decoded.append(transformation(code[i], decoded[i - 1]))
    return decoded


class BlockSolver:
    """Search engine for optimal per-block encodings.

    Parameters
    ----------
    transformations:
        The candidate transformation set.  Defaults to the paper's
        optimal 8-set; pass :data:`ALL_TRANSFORMATIONS` to search the
        full 16-function space (used to verify Section 5.2).
    """

    def __init__(
        self, transformations: Sequence[Transformation] = OPTIMAL_SET
    ) -> None:
        if not transformations:
            raise ValueError("transformation set must not be empty")
        self.transformations = tuple(transformations)

    # ------------------------------------------------------------------
    # Per-transformation feasibility and cost
    # ------------------------------------------------------------------

    def _allowed_bits(
        self,
        word: Sequence[int],
        transformation: Transformation,
        fixed_first: int | None,
    ) -> list[tuple[int, ...]] | None:
        """Feasible stored bits per position, or ``None`` if infeasible.

        ``fixed_first is None`` selects the anchored variant (first
        stored bit forced to ``word[0]``); otherwise the first stored
        bit is forced to ``fixed_first`` and the anchor equation is
        dropped.
        """
        first = word[0] if fixed_first is None else fixed_first
        allowed: list[tuple[int, ...]] = [(first,)]
        for i in range(1, len(word)):
            options = transformation.func.solve_x(word[i], word[i - 1])
            if not options:
                return None
            allowed.append(options)
        return allowed

    @staticmethod
    def _min_transition_fill(
        allowed: list[tuple[int, ...]],
    ) -> tuple[int, list[int]]:
        """Choose one bit per position minimising transitions (DP)."""
        cost = {bit: 0 if bit in allowed[0] else _INF for bit in (0, 1)}
        choice: list[dict[int, int]] = []
        for options in allowed[1:]:
            new_cost = {0: _INF, 1: _INF}
            back: dict[int, int] = {}
            for bit in options:
                best_prev, best = 0, _INF
                for prev in (0, 1):
                    candidate = cost[prev] + (prev != bit)
                    if candidate < best:
                        best, best_prev = candidate, prev
                new_cost[bit] = best
                back[bit] = best_prev
            cost = new_cost
            choice.append(back)
        # Prefer the lower final bit on ties for determinism.
        final_bit = 0 if cost[0] <= cost[1] else 1
        total = cost[final_bit]
        bits = [final_bit]
        for back in reversed(choice):
            bits.append(back[bits[-1]])
        bits.reverse()
        return total, bits

    def best_for_transformation(
        self,
        word: Sequence[int],
        transformation: Transformation,
        fixed_first: int | None = None,
    ) -> tuple[int, list[int]] | None:
        """Minimal encoded transitions and a witnessing code word for
        one transformation, or ``None`` if the block word cannot be
        expressed under it."""
        allowed = self._allowed_bits(word, transformation, fixed_first)
        if allowed is None:
            return None
        return self._min_transition_fill(allowed)

    def best_by_final_bit(
        self,
        word: Sequence[int],
        transformation: Transformation,
        fixed_first: int | None = None,
    ) -> dict[int, tuple[int, tuple[int, ...]]] | None:
        """Like :meth:`best_for_transformation`, but resolved per final
        stored bit: ``{final_bit: (cost, code)}``.

        The chained-stream dynamic program needs this because a block's
        last stored bit is the next block's inherited overlap bit.
        Entries exist only for reachable final bits; ``None`` means the
        transformation cannot express the block word at all.
        """
        allowed = self._allowed_bits(word, transformation, fixed_first)
        if allowed is None:
            return None
        cost = {bit: 0 if bit in allowed[0] else _INF for bit in (0, 1)}
        paths: dict[int, list[int]] = {
            bit: [bit] for bit in (0, 1) if cost[bit] < _INF
        }
        for options in allowed[1:]:
            new_cost = {0: _INF, 1: _INF}
            new_paths: dict[int, list[int]] = {}
            for bit in options:
                best_prev, best = None, _INF
                for prev in (0, 1):
                    if prev not in paths:
                        continue
                    candidate = cost[prev] + (prev != bit)
                    if candidate < best:
                        best, best_prev = candidate, prev
                if best_prev is None:
                    continue
                new_cost[bit] = best
                new_paths[bit] = paths[best_prev] + [bit]
            cost, paths = new_cost, new_paths
        return {
            bit: (cost[bit], tuple(path)) for bit, path in paths.items()
        }

    # ------------------------------------------------------------------
    # Public solve entry points
    # ------------------------------------------------------------------

    def solve_anchored(self, word: Sequence[int]) -> BlockSolution:
        """Optimal encoding of a standalone block (Section 5.1).

        Always succeeds: the identity transformation maps any word to
        itself, so the result is never worse than the original.
        """
        word = validate_bits(word)
        if not word:
            raise ValueError("block word must not be empty")
        return self._solve(word, fixed_first=None)

    def solve_constrained(
        self, word: Sequence[int], fixed_first_code_bit: int
    ) -> BlockSolution:
        """Optimal encoding of an overlapped block (Section 6).

        ``word[0]`` is the original value of the overlap bit (already
        decoded by the previous block); ``fixed_first_code_bit`` is its
        stored value chosen by the previous block.  Always succeeds:
        with the anchor equation dropped, the history transformations
        ``y`` / ``~y`` reproduce ``word[i]`` whenever it is a pure
        function of its predecessor, and in the worst case either
        identity (if the stored and original overlap bits agree) or a
        free-``x`` transformation covers the block.
        """
        word = validate_bits(word)
        if not word:
            raise ValueError("block word must not be empty")
        if fixed_first_code_bit not in (0, 1):
            raise ValueError("fixed_first_code_bit must be 0 or 1")
        solution = self._solve(word, fixed_first=fixed_first_code_bit)
        return solution

    def _solve(self, word: list[int], fixed_first: int | None) -> BlockSolution:
        if OBS.enabled:
            OBS.registry.counter(
                "codec.reference_blocks_solved",
                "block words solved by the reference BlockSolver "
                "(codebook compilation or the reference oracle)",
                variant="anchored" if fixed_first is None else "constrained",
            ).inc()
        best: BlockSolution | None = None
        for transformation in self.transformations:
            result = self.best_for_transformation(word, transformation, fixed_first)
            if result is None:
                continue
            transitions, code = result
            if best is None or transitions < best.encoded_transitions:
                best = BlockSolution(
                    word=tuple(word),
                    code=tuple(code),
                    transformation=transformation,
                    original_transitions=count_transitions(word),
                    encoded_transitions=transitions,
                )
        if best is None:
            raise infeasible_block_error(word)
        return best

    def optimal_achievers(self, word: Sequence[int]) -> list[Transformation]:
        """Every transformation attaining the anchored optimum for
        ``word`` (used by the Section 5.2 minimal-set search)."""
        word = validate_bits(word)
        results = {}
        for transformation in self.transformations:
            result = self.best_for_transformation(word, transformation, None)
            if result is not None:
                results[transformation] = result[0]
        optimum = min(results.values())
        return [t for t, cost in results.items() if cost == optimum]

    def verify(self, solution: BlockSolution, fixed_first: bool = False) -> bool:
        """Check that decoding ``solution.code`` restores the word."""
        decoded = _decode_with(
            solution.transformation,
            solution.code,
            first_is_anchor=not fixed_first,
            history_before=solution.word[0] if fixed_first else None,
        )
        return decoded == list(solution.word)


def solve_anchored_by_enumeration(
    word: Sequence[int],
    transformations: Sequence[Transformation] = ALL_TRANSFORMATIONS,
) -> BlockSolution:
    """The paper's own search procedure (Section 5.1): enumerate code
    words in order of increasing transition count; for each, test
    whether some transformation maps it back to ``word``.

    Exponential in the block size — used only to cross-validate
    :class:`BlockSolver` in the test suite.
    """
    word = validate_bits(word)
    size = len(word)
    candidates = sorted(
        itertools.product((0, 1), repeat=size),
        key=lambda code: (count_transitions(code), code),
    )
    for code in candidates:
        if code[0] != word[0]:  # anchor equation x~_0 = x_0
            continue
        for transformation in transformations:
            decoded = _decode_with(transformation, code, True, None)
            if decoded == word:
                return BlockSolution(
                    word=tuple(word),
                    code=code,
                    transformation=transformation,
                    original_transitions=count_transitions(word),
                    encoded_transitions=count_transitions(code),
                )
    raise AssertionError("unreachable: identity always maps a word to itself")
