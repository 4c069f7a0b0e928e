"""Section 7.1's second alternative: the application programs its own
decode tables by software, "just prior to entering the loop under
consideration".

The demo program carries a loader prologue that streams (register,
value) pairs from a data table into the table-programming peripheral
(an MMIO window), then enters a hot loop.  The host side plays the
compiler: it encodes the hot basic blocks of the *final* program image
and bakes the resulting programming sequence into the data table.

After simulation the script checks that

* the software-programmed Transformation Table / BBIT decode the
  encoded memory image bit-exactly over the real fetch trace, and
* the bus-transition savings match what the build-time flow computes.

Run:  python examples/software_reload.py
"""

from repro.cfg.graph import ControlFlowGraph
from repro.core.program_codec import encode_basic_block
from repro.hw.fetch_decoder import FetchDecoder
from repro.hw.peripheral import (
    DEFAULT_BASE,
    EncodingLoaderPeripheral,
    programming_words,
)
from repro.isa.assembler import assemble
from repro.sim.bus import count_trace_transitions
from repro.sim.cpu import Cpu
from repro.sim.tracer import FetchTrace

BLOCK_SIZE = 5
MAX_PAIRS = 128

SOURCE = f"""
# software reload demo: loader prologue + dot-product hot loop
        .data
LOADTAB:
        .space {4 + 8 * MAX_PAIRS}   # count, then (offset, value) pairs
A:      .space 800
B:      .space 800
        .text
main:
        la    $t0, LOADTAB
        lw    $t1, 0($t0)       # pair count (host-filled)
        addiu $t0, $t0, 4
        li    $t2, {DEFAULT_BASE:#x}
ldloop:
        beqz  $t1, ldone
        lw    $t3, 0($t0)       # register offset
        lw    $t4, 4($t0)       # value
        addu  $t5, $t2, $t3
        sw    $t4, 0($t5)       # program the peripheral
        addiu $t0, $t0, 8
        addiu $t1, $t1, -1
        b     ldloop
ldone:
# initialise the arrays
        la    $t0, A
        la    $t1, B
        li    $t2, 0
initloop:
        sll   $t3, $t2, 2
        addu  $t4, $t0, $t3
        sw    $t2, 0($t4)
        addu  $t4, $t1, $t3
        sll   $t5, $t2, 1
        sw    $t5, 0($t4)
        addiu $t2, $t2, 1
        li    $t6, 200
        bne   $t2, $t6, initloop
# the hot loop: s0 = dot(A, B)
        li    $s0, 0
        li    $t2, 0
hot:
        sll   $t3, $t2, 2
        addu  $t4, $t0, $t3
        lw    $t5, 0($t4)
        addu  $t4, $t1, $t3
        lw    $t6, 0($t4)
        mul   $t7, $t5, $t6
        addu  $s0, $s0, $t7
        addiu $t2, $t2, 1
        li    $t8, 200
        bne   $t2, $t8, hot
        move  $a0, $s0
        li    $v0, 1
        syscall
        li    $v0, 10
        syscall
"""


def main() -> None:
    program = assemble(SOURCE)
    cfg = ControlFlowGraph.build(program)

    # Host side ("compiler"): encode the hot loop's basic block and
    # bake the peripheral programming sequence into LOADTAB.
    hot_start = program.address_of("hot")
    hot_block = cfg.blocks[hot_start]
    encoding = encode_basic_block(hot_block.words, BLOCK_SIZE)
    stores = programming_words([(hot_start, encoding)])
    assert len(stores) <= MAX_PAIRS
    table_offset = program.address_of("LOADTAB") - program.data_base
    image = program.data_image
    image[table_offset : table_offset + 4] = len(stores).to_bytes(4, "little")
    for i, (offset, value) in enumerate(stores):
        at = table_offset + 4 + 8 * i
        image[at : at + 4] = offset.to_bytes(4, "little")
        image[at + 4 : at + 8] = (value & 0xFFFFFFFF).to_bytes(4, "little")
    print(
        f"host: hot block @ {hot_start:#x}, {len(hot_block)} instructions, "
        f"{encoding.num_segments} TT entries, {len(stores)} programming stores"
    )

    # Target side: the program loads its own tables through the MMIO
    # window while running.
    peripheral = EncodingLoaderPeripheral()
    cpu = Cpu(program)
    cpu.memory.add_mmio(peripheral.region())
    trace = FetchTrace()
    cpu.run(trace=trace)
    print(
        f"target: ran {cpu.steps} instructions, dot product = "
        f"{cpu.output[0]}, peripheral commits = {peripheral.commits}"
    )
    assert cpu.output[0] == str(sum(i * 2 * i for i in range(200)))
    assert len(peripheral.tt) == encoding.num_segments
    assert len(peripheral.bbit) == 1

    # Build the encoded memory image and decode the trace through the
    # *software-programmed* tables.
    encoded_image = list(program.words)
    first = program.index_of(hot_start)
    for offset, word in enumerate(encoding.encoded_words):
        encoded_image[first + offset] = word
    decoder = FetchDecoder(peripheral.tt, peripheral.bbit, BLOCK_SIZE)
    base = program.text_base
    decoded = decoder.decode_trace(
        trace, lambda pc: encoded_image[(pc - base) >> 2]
    ).expand()
    original = [program.words[(pc - base) >> 2] for pc in trace]
    assert decoded == original
    before = count_trace_transitions(program, trace)
    after = count_trace_transitions(program, trace, encoded_image)
    print(
        "decode through software-loaded tables: bit-exact; "
        f"bus transitions {before} -> {after} "
        f"({100 * (before - after) / before:.1f}% saved)"
    )


if __name__ == "__main__":
    main()
