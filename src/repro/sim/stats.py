"""Instruction-mix and trace statistics.

Supports the analysis side of the reproduction: what the fetch traffic
is made of, how deeply the hot loops dominate, and per-format word
entropy — useful context when comparing encoded-transition numbers
across benchmarks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.isa.assembler import Program
from repro.isa.opcodes import CONDITIONAL_BRANCHES, CONTROL_TRANSFER
from repro.sim.tracer import FetchTrace


@dataclass(frozen=True)
class InstructionMix:
    """Dynamic instruction-category counts for a fetch trace."""

    total: int
    by_mnemonic: dict[str, int]
    by_category: dict[str, int]

    def fraction(self, category: str) -> float:
        if self.total == 0:
            return 0.0
        return self.by_category.get(category, 0) / self.total


_CATEGORIES = {
    "load": {"lw", "lb", "lbu", "lh", "lhu", "lwc1", "ldc1"},
    "store": {"sw", "sb", "sh", "swc1", "sdc1"},
    "fp": {
        "add.d",
        "sub.d",
        "mul.d",
        "div.d",
        "sqrt.d",
        "abs.d",
        "mov.d",
        "neg.d",
        "cvt.w.d",
        "cvt.d.w",
        "c.eq.d",
        "c.lt.d",
        "c.le.d",
    },
}


def _category(name: str) -> str:
    for category, names in _CATEGORIES.items():
        if name in names:
            return category
    if name in CONDITIONAL_BRANCHES:
        return "branch"
    if name in CONTROL_TRANSFER:
        return "jump"
    return "alu"


def instruction_mix(program: Program, addresses: Iterable[int]) -> InstructionMix:
    """Categorise every dynamic instruction in a fetch trace."""
    trace = FetchTrace.of(addresses)
    by_mnemonic: Counter = Counter()
    by_category: Counter = Counter()
    base = program.text_base
    for address, count in trace.fetch_counts().items():
        name = program.instructions[(address - base) >> 2].name
        by_mnemonic[name] += count
        by_category[_category(name)] += count
    return InstructionMix(
        total=len(trace),
        by_mnemonic=dict(by_mnemonic),
        by_category=dict(by_category),
    )


def branch_statistics(
    program: Program, addresses: Iterable[int]
) -> dict[str, float]:
    """Dynamic branch counts and taken rate (a fall-through successor
    at address+4 counts as not-taken)."""
    base = program.text_base
    branches = 0
    taken = 0
    for (current, nxt), count in FetchTrace.of(addresses).edge_counts().items():
        name = program.instructions[(current - base) >> 2].name
        if name in CONDITIONAL_BRANCHES:
            branches += count
            if nxt != current + 4:
                taken += count
    return {
        "branches": branches,
        "taken": taken,
        "taken_rate": taken / branches if branches else 0.0,
    }


def word_entropy_bits(words: Sequence[int]) -> float:
    """Shannon entropy of the fetched word distribution (bits/word).

    Low entropy is why dictionary methods do well on loops — and what
    the paper's technique does *not* depend on."""
    counts = Counter(words)
    total = len(words)
    if total == 0:
        return 0.0
    return -sum(
        (c / total) * math.log2(c / total) for c in counts.values()
    )


def static_dynamic_ratio(program: Program, addresses: Iterable[int]) -> float:
    """Dynamic fetches per static instruction — loop dominance in one
    number ("a relatively short sequence of instructions is
    repetitively executed", Section 4)."""
    if not program.words:
        return 0.0
    return len(addresses) / len(program.words)
