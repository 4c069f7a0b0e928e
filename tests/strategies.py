"""Shared seeded test-data strategies for the whole suite.

One module owns input generation so every test draws from the same
distributions the ``repro verify`` differential campaign uses
(:mod:`repro.verify.generators`), and every random choice is pinned to
an explicit seed: re-running a failing test regenerates the identical
input, and no test's verdict depends on interpreter hash order or
ambient entropy.

Two layers:

* **hypothesis strategies** (``bit_streams``, ``hw_block_sizes``,
  ``encode_strategies``, ``instruction_words``) for property tests —
  hypothesis manages its own seeds and database;
* **seeded constructors** (``rng_for``, ``seeded_stream``,
  ``seeded_words``, ``seeded_blocks``, ``generate_program``) for
  plain tests — each takes a seed (or structured seed parts) and is a
  pure function of it.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.verify.generators import (
    biased_stream,
    block_words,
    burst_stream,
    hot_word_stream,
    make_deployment,
    word_blocks,
)

__all__ = [
    "bit_streams",
    "hw_block_sizes",
    "encode_strategies",
    "instruction_words",
    "fetch_word_streams",
    "fetch_pc_lists",
    "looping_pc_lists",
    "rng_for",
    "seeded_stream",
    "seeded_words",
    "seeded_blocks",
    "seeded_deployment",
    "seeded_hot_words",
    "generate_program",
    "generate_phased_program",
]

# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------

#: Raw 0/1 streams across the sizes the stream codec handles,
#: including the empty stream.
bit_streams = st.lists(
    st.integers(min_value=0, max_value=1), min_size=0, max_size=80
)

#: The block sizes the paper studies (k=2..7).
hw_block_sizes = st.integers(min_value=2, max_value=7)

#: Every segmentation strategy the stream codec implements.
encode_strategies = st.sampled_from(("greedy", "optimal", "disjoint"))

#: Lists of 32-bit instruction-bus words.
instruction_words = st.lists(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    min_size=1,
    max_size=40,
)


@st.composite
def fetch_word_streams(draw, max_length: int = 100):
    """Instruction-fetch-like word streams: mostly a small hot
    alphabet (loop bodies repeat) with occasional uniform excursions —
    the encoder zoo's input distribution, same generator the verify
    campaign's ``encoders`` cases use."""
    seed = draw(st.integers(min_value=0, max_value=(1 << 32) - 1))
    length = draw(st.integers(min_value=0, max_value=max_length))
    alphabet = draw(st.integers(min_value=1, max_value=8))
    noise = draw(st.sampled_from((0.0, 0.1, 0.3)))
    return hot_word_stream(random.Random(seed), length, alphabet, noise)


@st.composite
def fetch_pc_lists(
    draw, text_words: int = 48, base: int = 0x400000, max_runs: int = 24
):
    """Fetch-trace-like PC lists over a ``text_words``-word text
    segment at ``base``: sequential runs (straight-line code) joined
    by jumps, where a run often repeats an earlier one (a loop)."""
    runs: list[tuple[int, int]] = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_runs))):
        if runs and draw(st.booleans()):
            runs.append(draw(st.sampled_from(runs)))
            continue
        first = draw(st.integers(min_value=0, max_value=text_words - 1))
        length = draw(st.integers(min_value=1, max_value=text_words - first))
        runs.append((first, length))
    return [
        base + 4 * (first + i) for first, length in runs for i in range(length)
    ]


@st.composite
def looping_pc_lists(
    draw,
    text_words: int = 48,
    base: int = 0x400000,
    max_runs: int = 12,
    max_laps: int = 6,
):
    """Fetch-trace-like PC lists of self-loops: each drawn stretch of
    up to 8 sequential fetches repeats back to back up to ``max_laps``
    times.  Over a small ``text_words`` consecutive stretches often
    repeat each other or continue one another (a loop entered by
    falling into it)."""
    pcs: list[int] = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_runs))):
        first = draw(st.integers(min_value=0, max_value=text_words - 1))
        length = draw(
            st.integers(min_value=1, max_value=min(8, text_words - first))
        )
        laps = draw(st.integers(min_value=1, max_value=max_laps))
        pcs += [base + 4 * (first + i) for i in range(length)] * laps
    return pcs


# ----------------------------------------------------------------------
# Seeded constructors
# ----------------------------------------------------------------------


def rng_for(*parts) -> random.Random:
    """A :class:`random.Random` keyed on structured seed parts —
    the same ``"a:b:c"`` convention the verify campaign replays from."""
    return random.Random(":".join(str(part) for part in parts))


def seeded_stream(seed, length: int, bias: float = 0.5) -> list[int]:
    """A biased bit stream fully determined by ``seed``."""
    return biased_stream(rng_for("stream", seed), length, bias)


def seeded_burst(seed, length: int, flip: float = 0.1) -> list[int]:
    """A run-structured stream fully determined by ``seed``."""
    return burst_stream(rng_for("burst", seed), length, flip)


def seeded_words(
    seed, count: int, width: int = 32, sparse: float | None = None
) -> list[int]:
    """``count`` instruction words fully determined by ``seed``."""
    return block_words(rng_for("words", seed), count, width, sparse)


def seeded_blocks(
    seed, num_blocks: int, min_words: int = 2, max_words: int = 24
) -> list[list[int]]:
    """Independent basic blocks fully determined by ``seed``."""
    return word_blocks(
        rng_for("blocks", seed), num_blocks, min_words, max_words
    )


def seeded_deployment(seed, block_size: int, num_blocks: int = 3, **kwargs):
    """Encoded blocks installed into live TT/BBIT tables, seeded."""
    return make_deployment(
        seeded_blocks(seed, num_blocks), block_size, **kwargs
    )


def seeded_hot_words(
    seed, length: int, alphabet: int = 6, noise: float = 0.15
) -> list[int]:
    """A fetch-like hot-alphabet word stream fully determined by
    ``seed`` (the encoder zoo's input space)."""
    return hot_word_stream(rng_for("hot", seed), length, alphabet, noise)


# ----------------------------------------------------------------------
# Synthetic programs over the ISA
# ----------------------------------------------------------------------

ALU_OPS = ("addu", "subu", "and", "or", "xor", "nor", "slt")
REGS = [f"$t{i}" for i in range(8)]


def generate_program(seed: int, num_blocks: int = 8, fuel: int = 400) -> str:
    """A random terminating assembly program with branchy control
    flow: every path decrements a fuel counter and exits through a
    syscall, so simulation is bounded regardless of the drawn CFG."""
    rng = random.Random(seed)
    lines = [
        "        .text",
        f"main:   li $s7, {fuel}",
        "        li $t0, 3",
        "        li $t1, 5",
        "        b b0",
    ]
    for block in range(num_blocks):
        lines.append(f"b{block}:")
        for _ in range(rng.randint(1, 8)):
            op = rng.choice(ALU_OPS)
            rd, rs, rt = (rng.choice(REGS) for _ in range(3))
            lines.append(f"        {op} {rd}, {rs}, {rt}")
        # Fuel check keeps every path terminating.
        lines.append("        addiu $s7, $s7, -1")
        lines.append("        blez $s7, quit")
        # Random conditional branch to some block, then fall through
        # (or jump) to another.
        target = rng.randrange(num_blocks)
        cond = rng.choice(("beq", "bne"))
        lines.append(
            f"        {cond} {rng.choice(REGS)}, {rng.choice(REGS)}, b{target}"
        )
        if rng.random() < 0.5:
            lines.append(f"        j b{rng.randrange(num_blocks)}")
        elif block == num_blocks - 1:
            lines.append("        j b0")
    lines += [
        "quit:   li $v0, 10",
        "        syscall",
    ]
    return "\n".join(lines)


def generate_phased_program(
    seed: int, num_loops: int = 3, calls: int = 8
) -> str:
    """A random terminating program whose hot loops are entered again
    and again: a straight-line ``main`` calls loop subroutines in a
    seeded order with glue code between the calls, and each loop body
    branches on its counter's low bit, so every loop region is left
    and re-entered and its traffic splits into many stretches."""
    rng = random.Random(seed)

    def alu(count: int) -> list[str]:
        return [
            f"        {rng.choice(ALU_OPS)} {rng.choice(REGS)}, "
            f"{rng.choice(REGS)}, {rng.choice(REGS)}"
            for _ in range(count)
        ]

    lines = ["        .text", "main:   li $t0, 3", "        li $t1, 5"]
    for _ in range(calls):
        lines += alu(rng.randint(0, 3))
        lines.append(f"        jal loop{rng.randrange(num_loops)}")
    lines += ["        li $v0, 10", "        syscall"]
    for loop in range(num_loops):
        lines.append(f"loop{loop}: li $s0, {rng.randint(2, 12)}")
        lines.append(f"top{loop}:")
        lines += alu(rng.randint(1, 6))
        lines.append("        andi $s1, $s0, 1")
        lines.append(f"        beq $s1, $zero, skip{loop}")
        lines += alu(rng.randint(1, 4))
        lines.append(f"skip{loop}:")
        lines += alu(rng.randint(0, 3))
        lines.append("        addiu $s0, $s0, -1")
        lines.append(f"        bgtz $s0, top{loop}")
        lines.append("        jr $ra")
    return "\n".join(lines)
