"""Instruction-cache model.

Section 8: instructions are fetched "from an instruction storage,
possibly an instruction cache or memory; the type of storage bears no
impact on the bit transition reductions we attain."  This model lets
us *check* that claim instead of assuming it, and additionally study
the cache-refill bus (cache -> memory side), where the encoded image
also travels when the program memory holds encoded words.

A set-associative, true-LRU cache over the text image.  Feeding it a
fetch trace yields:

* the CPU-side word sequence — identical to the raw trace order, so
  CPU-side transitions are storage-independent (the paper's claim);
* the memory-side refill word sequence (line fills, in address order),
  whose transitions depend on the image (baseline vs encoded) and on
  the cache geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.transitions import word_transitions


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0
    refills: int = 0  # lines fetched from memory

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return 1.0 - self.misses / self.accesses


@dataclass
class InstructionCache:
    """Set-associative I-cache with true-LRU replacement.

    ``line_bytes`` must be a power of two and a multiple of 4.
    """

    size_bytes: int = 1024
    line_bytes: int = 16
    associativity: int = 2
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.line_bytes < 4 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two >= 4")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError(
                "cache size must be a multiple of line size * associativity"
            )
        self.num_sets = self.size_bytes // (
            self.line_bytes * self.associativity
        )
        if self.num_sets == 0:
            raise ValueError("cache too small for this geometry")
        # sets[i] is an LRU-ordered list of line tags (most recent last).
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]

    def reset(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        """Fetch one instruction; returns True on hit."""
        line = address // self.line_bytes
        index = line % self.num_sets
        ways = self._sets[index]
        self.stats.accesses += 1
        if line in ways:
            ways.remove(line)
            ways.append(line)
            return True
        self.stats.misses += 1
        self.stats.refills += 1
        ways.append(line)
        if len(ways) > self.associativity:
            ways.pop(0)
        return False

    def refill_addresses(self, address: int) -> list[int]:
        """Word addresses transferred on the refill bus for a miss at
        ``address`` (the whole line, in address order)."""
        start = (address // self.line_bytes) * self.line_bytes
        return list(range(start, start + self.line_bytes, 4))


@dataclass(frozen=True)
class CacheBusReport:
    """Transition accounting for a trace run through an I-cache."""

    cpu_side_transitions: int
    refill_transitions: int
    stats: CacheStats


def simulate_cache_buses(
    cache: InstructionCache,
    trace: Sequence[int],
    image: Sequence[int],
    text_base: int,
) -> CacheBusReport:
    """Run a fetch trace through ``cache`` over a given memory image.

    The CPU-side bus carries one word per fetch in trace order (hit or
    miss — the word reaches the core either way).  The refill bus
    carries full lines on misses.
    """
    cache.reset()
    refill_words: list[int] = []
    cpu_words: list[int] = []
    limit = len(image)
    for address in trace:
        index = (address - text_base) >> 2
        if index < 0 or index >= limit:
            raise ValueError(f"trace address {address:#x} outside image")
        cpu_words.append(image[index])
        if not cache.access(address):
            for word_address in cache.refill_addresses(address):
                word_index = (word_address - text_base) >> 2
                if 0 <= word_index < limit:
                    refill_words.append(image[word_index])
    return CacheBusReport(
        cpu_side_transitions=word_transitions(cpu_words),
        refill_transitions=word_transitions(refill_words),
        stats=cache.stats,
    )
