"""Component performance benchmarks (throughput, not paper figures).

These keep the library honest as an engineering artefact: encoder
throughput on long streams, vertical block encoding, the behavioural
fetch decoder, and the CPU interpreter.  pytest-benchmark measures
them with real repetition (unlike the figure benches, which run their
workload once and assert shapes).
"""

import random

from repro.core.program_codec import encode_basic_block
from repro.core.reference import (
    encode_basic_block_reference,
    encode_stream_reference,
)
from repro.core.stream_codec import StreamEncoder
from repro.hw.bbit import BasicBlockIdentificationTable, BBITEntry
from repro.hw.fetch_decoder import FetchDecoder
from repro.hw.tt import TransformationTable
from repro.isa.assembler import assemble
from repro.sim.cpu import Cpu

_rng = random.Random(1234)
STREAM = [_rng.randint(0, 1) for _ in range(5000)]
WORDS = [_rng.getrandbits(32) for _ in range(64)]

COUNT_LOOP = assemble(
    """
    .text
    main: li $t0, 20000
    loop: addiu $t0, $t0, -1
    bnez $t0, loop
    li $v0, 10
    syscall
    """
)


def test_perf_stream_encoder_greedy(benchmark):
    encoder = StreamEncoder(5, strategy="greedy")
    result = benchmark(encoder.encode, STREAM)
    assert result.encoded_transitions < result.original_transitions


def test_perf_stream_encoder_greedy_reference(benchmark):
    result = benchmark(encode_stream_reference, STREAM, 5, strategy="greedy")
    assert result.encoded_transitions < result.original_transitions


def test_perf_stream_encoder_optimal(benchmark):
    encoder = StreamEncoder(5, strategy="optimal")
    result = benchmark(encoder.encode, STREAM)
    assert result.encoded_transitions < result.original_transitions


def test_perf_stream_encoder_optimal_reference(benchmark):
    result = benchmark(encode_stream_reference, STREAM, 5, strategy="optimal")
    assert result.encoded_transitions < result.original_transitions


def test_perf_encode_basic_block(benchmark):
    encoding = benchmark(encode_basic_block, WORDS, 5)
    assert encoding.num_segments == len(encoding.bounds)


def test_perf_encode_basic_block_reference(benchmark):
    encoding = benchmark(encode_basic_block_reference, WORDS, 5)
    assert encoding.num_segments == len(encoding.bounds)


def test_perf_fetch_decoder(benchmark):
    encoding = encode_basic_block(WORDS, 5)
    tt = TransformationTable(32)
    bbit = BasicBlockIdentificationTable(4)
    base = tt.allocate(encoding)
    bbit.install(BBITEntry(pc=0x400000, tt_index=base, num_instructions=len(WORDS)))
    addresses = [0x400000 + 4 * i for i in range(len(WORDS))] * 16
    stored = {0x400000 + 4 * i: w for i, w in enumerate(encoding.encoded_words)}

    def _decode():
        decoder = FetchDecoder(tt, bbit, 5)
        return decoder.decode_trace(addresses, stored.__getitem__)

    decoded = benchmark(_decode)
    walk = FetchDecoder(tt, bbit, 5)
    assert decoded.expand() == [walk.fetch(pc, stored[pc]) for pc in addresses]
    assert decoded.expand()[: len(WORDS)] == list(WORDS)


def test_perf_cpu_interpreter(benchmark):
    def _run():
        cpu = Cpu(COUNT_LOOP)
        cpu.run()
        return cpu.steps

    steps = benchmark(_run)
    # li + 20000 x (addiu + bnez) + li $v0 + syscall
    assert steps == 1 + 2 * 20000 + 2
