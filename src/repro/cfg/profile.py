"""Trace-driven execution profiling.

Turns a fetch trace into per-block execution and fetch-volume counts —
the information the paper's flow uses to pinpoint "the major
application loops, which contribute most of the program execution
time and constitute a significantly small fraction from the total
program code" (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.cfg.graph import ControlFlowGraph
from repro.sim.tracer import FetchTrace


@dataclass
class BlockProfile:
    """Per-basic-block dynamic statistics."""

    cfg: ControlFlowGraph
    entry_counts: dict[int, int]  # times each block was entered
    fetch_counts: dict[int, int]  # instruction fetches inside each block
    total_fetches: int

    def weight(self, block_start: int) -> int:
        """Fetch volume of a block (its share of bus traffic)."""
        return self.fetch_counts.get(block_start, 0)

    def hottest(self, limit: int | None = None) -> list[int]:
        """Block addresses by descending fetch volume."""
        ranked = sorted(
            self.fetch_counts, key=self.fetch_counts.get, reverse=True
        )
        return ranked[:limit] if limit is not None else ranked

    def coverage_of(self, block_starts: Sequence[int]) -> float:
        """Fraction of all fetches that fall inside the given blocks."""
        if self.total_fetches == 0:
            return 0.0
        covered = sum(self.fetch_counts.get(b, 0) for b in block_starts)
        return covered / self.total_fetches

    def loop_weight(self, loop) -> int:
        """Total fetch volume of a loop body."""
        return sum(self.fetch_counts.get(b, 0) for b in loop.body)


def profile_trace(
    cfg: ControlFlowGraph, addresses: Iterable[int]
) -> BlockProfile:
    """Build a :class:`BlockProfile` from a fetch trace (its per-address
    counts come from the trace's distinct runs, not from its fetches)."""
    trace = FetchTrace.of(addresses)
    per_address = trace.fetch_counts()
    entry_counts: dict[int, int] = {}
    fetch_counts: dict[int, int] = {}
    for start, block in cfg.blocks.items():
        entry_counts[start] = per_address.get(start, 0)
        fetch_counts[start] = sum(
            per_address.get(a, 0) for a in block.addresses
        )
    return BlockProfile(
        cfg=cfg,
        entry_counts=entry_counts,
        fetch_counts=fetch_counts,
        total_fetches=len(trace),
    )
