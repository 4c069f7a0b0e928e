"""Reduction summaries and stream statistics.

Backs the Section 6 random-stream experiment ("sizable experiments ...
on randomly generated bit sequences of length 1000 show ... within 1%
of the expected value of 50% for codes with block size of five") and
the per-benchmark reporting of Figure 6.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from statistics import fmean, pstdev
from typing import Sequence

from repro.core.stream_codec import StreamEncoder
from repro.core.transformations import OPTIMAL_SET, Transformation


@dataclass(frozen=True)
class ReductionSummary:
    """Aggregate transition statistics over a set of streams."""

    streams: int
    original_transitions: int
    encoded_transitions: int
    per_stream_percent: tuple[float, ...]

    @property
    def reduction_percent(self) -> float:
        """Pooled reduction (total transitions removed / total)."""
        if self.original_transitions == 0:
            return 0.0
        return (
            100.0
            * (self.original_transitions - self.encoded_transitions)
            / self.original_transitions
        )

    @property
    def mean_percent(self) -> float:
        """Mean of per-stream reduction percentages."""
        return fmean(self.per_stream_percent) if self.per_stream_percent else 0.0

    @property
    def stdev_percent(self) -> float:
        return pstdev(self.per_stream_percent) if self.per_stream_percent else 0.0


def summarize_streams(
    streams: Sequence[Sequence[int]],
    block_size: int,
    transformations: Sequence[Transformation] = OPTIMAL_SET,
    strategy: str = "greedy",
) -> ReductionSummary:
    """Encode each stream and aggregate the transition reductions."""
    encoder = StreamEncoder(block_size, transformations, strategy)
    original = 0
    encoded = 0
    percents: list[float] = []
    for stream in streams:
        encoding = encoder.encode(stream)
        original += encoding.original_transitions
        encoded += encoding.encoded_transitions
        percents.append(encoding.reduction_percent)
    return ReductionSummary(
        streams=len(streams),
        original_transitions=original,
        encoded_transitions=encoded,
        per_stream_percent=tuple(percents),
    )


def random_streams(
    count: int,
    length: int,
    seed: int = 2003,
    bias: float = 0.5,
) -> list[list[int]]:
    """Uniform (or biased) random bit streams for the Section 6 study.

    ``bias`` is the probability of a 1; the paper's experiment uses the
    uniform case ``bias == 0.5``.
    """
    if not 0.0 <= bias <= 1.0:
        raise ValueError(f"bias must be in [0, 1], got {bias}")
    rng = random.Random(seed)
    return [
        [1 if rng.random() < bias else 0 for _ in range(length)]
        for _ in range(count)
    ]
