"""Seeded input generators for the differential verification campaign.

Every generator is a pure function of a :class:`random.Random` handed
in by the caller, so a case is replayable from its seed string alone:
``random.Random(f"{seed}:{kind}:{case_id}")`` regenerates the exact
input that diverged.  The same functions back ``tests/strategies.py``
(the shared test-data module), so the test suite and the ``repro
verify`` campaign draw from one input distribution.

Three input families (the tentpole's generator axes):

* **bit streams** with tunable bias — the Section-6 stream codec's
  input space, where bias sweeps exercise different codebook regions
  (an all-zeros stream never leaves the identity entry; a 50% stream
  touches most of them);
* **synthetic basic blocks / programs over the ISA bus width** —
  lists of 32-bit instruction words, the program codec's input space;
* **deployments** — encoded blocks installed into real TT/BBIT
  tables (with SEC-DED armed), the fetch decoder's input space,
  including seeded table-corruption states.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.program_codec import (
    BlockEncoding,
    encode_basic_block,
    tt_entries_required,
)
from repro.hw.bbit import BasicBlockIdentificationTable, BBITEntry
from repro.hw.tt import TransformationTable


def biased_stream(rng: random.Random, length: int, bias: float = 0.5) -> list[int]:
    """A bit stream where each position is 1 with probability ``bias``."""
    if not 0.0 <= bias <= 1.0:
        raise ValueError(f"bias must be in [0, 1], got {bias}")
    return [1 if rng.random() < bias else 0 for _ in range(length)]


def burst_stream(rng: random.Random, length: int, flip: float = 0.1) -> list[int]:
    """A run-structured stream: each bit repeats the previous one
    except with probability ``flip`` — long runs stress the chained
    overlap coupling rather than per-bit noise."""
    bits: list[int] = []
    current = rng.randint(0, 1)
    for _ in range(length):
        if rng.random() < flip:
            current ^= 1
        bits.append(current)
    return bits


def block_words(
    rng: random.Random, count: int, width: int = 32, sparse: float | None = None
) -> list[int]:
    """``count`` instruction-bus words.  With ``sparse`` set, each bit
    is 1 with that probability (real instruction streams are far from
    uniform); otherwise words are uniform over ``width`` bits."""
    if sparse is None:
        return [rng.getrandbits(width) for _ in range(count)]
    words = []
    for _ in range(count):
        word = 0
        for bit in range(width):
            if rng.random() < sparse:
                word |= 1 << bit
        words.append(word)
    return words


def hot_word_stream(
    rng: random.Random,
    length: int,
    alphabet: int = 6,
    noise: float = 0.15,
    width: int = 32,
) -> list[int]:
    """An instruction-fetch-like word stream: draws mostly from a
    small hot alphabet (loop bodies revisit the same words) with
    ``noise``-probability uniform excursions.  This is the encoder
    zoo's input space — frequency/memoryless backends key off the
    alphabet skew, bus-invert/low-weight off the toggle structure."""
    hot = [rng.getrandbits(width) for _ in range(max(1, alphabet))]
    words: list[int] = []
    for _ in range(length):
        if rng.random() < noise:
            words.append(rng.getrandbits(width))
        else:
            words.append(rng.choice(hot))
    return words


def word_blocks(
    rng: random.Random,
    num_blocks: int,
    min_words: int = 2,
    max_words: int = 24,
    width: int = 32,
) -> list[list[int]]:
    """Independent basic blocks of seeded instruction words."""
    return [
        block_words(rng, rng.randint(min_words, max_words), width)
        for _ in range(num_blocks)
    ]


@dataclass
class Deployment:
    """Encoded basic blocks installed into live hardware tables.

    The ground truth (`blocks`: pc-ordered original word lists) rides
    along so every decode path can be differentially checked against
    it; ``golden_lookup`` is that truth for one PC.
    """

    block_size: int
    tt: TransformationTable
    bbit: BasicBlockIdentificationTable
    image: dict[int, int]
    bases: list[int]
    blocks: list[list[int]] = field(default_factory=list)
    encodings: list[BlockEncoding] = field(default_factory=list)

    @property
    def encoded_region(self) -> set[int]:
        region: set[int] = set()
        for base, words in zip(self.bases, self.blocks):
            region.update(base + 4 * i for i in range(len(words)))
        return region

    def golden_lookup(self, pc: int) -> int:
        for base, words in zip(self.bases, self.blocks):
            index = (pc - base) >> 2
            if 0 <= index < len(words):
                return words[index]
        raise KeyError(f"pc {pc:#010x} outside every deployed block")

    def golden_words(self, which: int) -> list[int]:
        return list(self.blocks[which])

    def stored_words(self, which: int) -> list[int]:
        return list(self.encodings[which].encoded_words)

    def trace_for(self, which: int) -> list[int]:
        base = self.bases[which]
        return [base + 4 * i for i in range(len(self.blocks[which]))]


def make_deployment(
    blocks: list[list[int]],
    block_size: int,
    parity: bool = True,
    base: int = 0x400000,
    stride: int = 0x1000,
) -> Deployment:
    """Encode ``blocks`` and install them into fresh TT/BBIT tables.

    Capacity is computed from the blocks themselves (the exact
    ``tt_entries_required`` sum), so no configuration can silently
    run the table out of entries mid-install — the failure mode
    behind the PR 3 TT-capacity flake.
    """
    tt_needed = sum(
        tt_entries_required(len(words), block_size) for words in blocks
    )
    tt = TransformationTable(capacity=max(1, tt_needed), parity=parity)
    bbit = BasicBlockIdentificationTable(
        capacity=max(1, len(blocks)), parity=parity
    )
    image: dict[int, int] = {}
    bases: list[int] = []
    encodings: list[BlockEncoding] = []
    for i, words in enumerate(blocks):
        block_base = base + stride * i
        encoding = encode_basic_block(words, block_size)
        index = tt.allocate(encoding)
        bbit.install(
            BBITEntry(
                pc=block_base, tt_index=index, num_instructions=len(words)
            )
        )
        for offset, word in enumerate(encoding.encoded_words):
            image[block_base + 4 * offset] = word
        bases.append(block_base)
        encodings.append(encoding)
    return Deployment(
        block_size=block_size,
        tt=tt,
        bbit=bbit,
        image=image,
        bases=bases,
        blocks=[list(words) for words in blocks],
        encodings=encodings,
    )


def random_deployment(
    rng: random.Random,
    block_size: int,
    num_blocks: int = 3,
    min_words: int = 2,
    max_words: int = 18,
    parity: bool = True,
) -> Deployment:
    """A seeded multi-block deployment (tables armed with SEC-DED)."""
    return make_deployment(
        word_blocks(rng, num_blocks, min_words, max_words),
        block_size,
        parity=parity,
    )
