"""Shared transition-counting primitives for the encoder zoo.

Every bus-encoding backend (the paper's TT/BBIT scheme and the
baselines/competitors in :mod:`repro.baselines`) is judged by the same
physical quantity: bit toggles between consecutive transfers.  This
module owns the one convention everything else builds on — the first
transfer of a sequence is free (there is no previous bus state to
toggle against), matching :func:`repro.sim.bus.count_trace_transitions`
and the historical baseline counters — so relative comparisons between
schemes are apples to apples by construction.
"""

from __future__ import annotations

from itertools import islice
from operator import xor
from typing import Sequence


def word_transitions(words: Sequence[int]) -> int:
    """Total bit toggles across consecutive words (first word free)."""
    return sum(map(int.bit_count, map(xor, words, islice(words, 1, None))))


def per_transfer_transitions(words: Sequence[int]) -> list[int]:
    """Toggle count of each transfer after the first (length n-1)."""
    return [(a ^ b).bit_count() for a, b in zip(words, words[1:])]
