"""Figure 5 walkthrough: the decode hardware, cycle by cycle.

Builds a four-basic-block loop (the CFG shape drawn in Figure 5c),
encodes it, programs the Transformation Table and the Basic Block
Identification Table, and then walks the fetch stream printing what
the hardware sees and does: BBIT hits, TT entry advances, E/CT tail
handling, and the per-line transformations applied.

Run:  python examples/hardware_walkthrough.py
"""

from repro.cfg.graph import ControlFlowGraph
from repro.core.program_codec import encode_basic_block
from repro.hw.bbit import BasicBlockIdentificationTable, BBITEntry
from repro.hw.cost import estimate_cost
from repro.hw.fetch_decoder import FetchDecoder
from repro.hw.tt import TransformationTable
from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble_word
from repro.sim.cpu import run_program

BLOCK_SIZE = 5

# A loop whose CFG has four basic blocks (header, two conditional
# arms, latch) — the shape of Figure 5c.
SOURCE = """
        .text
main:   li    $s0, 6           # trip count
        li    $s1, 0           # accumulator
header: andi  $t0, $s0, 1
        beqz  $t0, even
odd:    sll   $t1, $s0, 1
        addu  $s1, $s1, $t1
        addu  $s1, $s1, $t1
        b     latch
even:   srl   $t1, $s0, 1
        subu  $s1, $s1, $t1
        xor   $s1, $s1, $t1
latch:  addiu $s0, $s0, -1
        bnez  $s0, header
        li    $v0, 10
        syscall
"""


def main() -> None:
    program = assemble(SOURCE)
    cpu, trace = run_program(program)
    cfg = ControlFlowGraph.build(program)
    print(f"program: {len(program.words)} instructions, "
          f"{len(cfg)} basic blocks, trace of {len(trace)} fetches")

    # Encode every loop basic block and program the two tables.
    tt = TransformationTable(capacity=16)
    bbit = BasicBlockIdentificationTable(capacity=16)
    image = list(program.words)
    loop_labels = ("header", "odd", "even", "latch")
    print("\n--- programming the tables ---")
    for label in loop_labels:
        start = program.address_of(label)
        block = cfg.blocks[start]
        encoding = encode_basic_block(block.words, BLOCK_SIZE)
        base = tt.allocate(encoding)
        bbit.install(
            BBITEntry(pc=start, tt_index=base, num_instructions=len(block))
        )
        first = program.index_of(start)
        for offset, word in enumerate(encoding.encoded_words):
            image[first + offset] = word
        print(
            f"{label:7s} @ {start:#x}: {len(block)} instructions -> "
            f"TT[{base}..{base + encoding.num_segments - 1}]"
        )

    print("\n--- Transformation Table contents ---")
    for index, entry in enumerate(tt.entries):
        names = {}
        for line, selector in enumerate(entry.selectors):
            names.setdefault(selector, []).append(line)
        summary = ", ".join(
            f"{_selector_name(sel)}x{len(lines)}"
            for sel, lines in sorted(names.items())
        )
        print(
            f"TT[{index:2d}] E={int(entry.end)} CT={entry.count}  "
            f"selectors: {summary}"
        )
    cost = estimate_cost(BLOCK_SIZE)
    print(
        f"storage: TT {cost.tt_bits} bits + BBIT {cost.bbit_bits} bits; "
        f"decode logic ~{cost.decode_gates} gate equivalents"
    )

    # Walk the first loop iterations through the fetch decoder.
    print("\n--- fetch walk (first 16 fetches) ---")
    decoder = FetchDecoder(tt, bbit, BLOCK_SIZE)
    base_addr = program.text_base
    print(f"{'pc':>10s} {'stored':>9s} {'decoded':>9s}  instruction")
    for pc in trace.expand()[:16]:
        stored = image[(pc - base_addr) >> 2]
        decoded = decoder.fetch(pc, stored)
        marker = " " if stored == decoded else "*"
        print(
            f"{pc:#10x} {stored:08x}{marker} {decoded:08x}  "
            f"{disassemble_word(decoded, pc)}"
        )
    print("(* = word stored encoded, restored by the TT gates)")

    # Verify the whole trace and count the savings.
    decoder.reset()
    decoded_all = decoder.decode_trace(
        list(trace), lambda pc: image[(pc - base_addr) >> 2]
    ).expand()
    original_all = [program.words[(pc - base_addr) >> 2] for pc in trace]
    assert decoded_all == original_all
    from repro.sim.bus import count_trace_transitions

    before = count_trace_transitions(program, trace)
    after = count_trace_transitions(program, trace, image)
    print(
        f"\nwhole trace restored exactly; bus transitions "
        f"{before} -> {after} ({100 * (before - after) / before:.1f}% saved)"
    )
    print(
        f"BBIT probes: {bbit.lookups}, hits: {bbit.hits} "
        "(one probe per non-sequential fetch, as in Section 7.2)"
    )


def _selector_name(selector: int) -> str:
    from repro.core.transformations import by_selector

    return by_selector(selector).name


if __name__ == "__main__":
    main()
