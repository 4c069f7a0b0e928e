"""Throughput floor for the production codec path.

Each row runs one job two ways: the production path and its oracle in
:mod:`repro.core.reference` (for ``trace_decode``, the same decoder
walked one ``fetch`` at a time).  It first asserts that both give the
same result, then times each side as the minimum of three ``timeit``
runs and asserts the production path is at least 5x faster.  A row
that falls back to its oracle (or to a per-fetch walk) reads about 1x
and fails.

Inputs: seed 1234, a 5000-bit random stream, a 64-word random block,
k=5, and conv2d's simulator trace decoded through the tables of the
bundle the flow itself emits.
"""

from __future__ import annotations

import random
import timeit

import pytest

from repro.core.program_codec import decode_basic_block, encode_basic_block
from repro.core.reference import (
    decode_basic_block_reference,
    decode_stream_reference,
    encode_basic_block_reference,
    encode_stream_reference,
)
from repro.core.stream_codec import StreamEncoder, decode_stream
from repro.hw.fetch_decoder import FetchDecoder
from repro.pipeline.bundle import EncodingBundle
from repro.pipeline.flow import EncodingFlow
from repro.sim.cpu import run_program
from repro.workloads.registry import build_workload

SPEEDUP_FLOOR = 5.0
BLOCK_SIZE = 5

_rng = random.Random(1234)
STREAM = [_rng.randint(0, 1) for _ in range(5000)]
WORDS = [_rng.getrandbits(32) for _ in range(64)]


def _stream_encode(strategy: str):
    encoder = StreamEncoder(BLOCK_SIZE, strategy=strategy)
    return (
        lambda: encoder.encode(STREAM),
        lambda: encode_stream_reference(STREAM, BLOCK_SIZE, strategy=strategy),
    )


def _block_encode():
    return (
        lambda: encode_basic_block(WORDS, BLOCK_SIZE),
        lambda: encode_basic_block_reference(WORDS, BLOCK_SIZE),
    )


def _block_decode():
    encoding = encode_basic_block(WORDS, BLOCK_SIZE)
    return (
        lambda: decode_basic_block(encoding),
        lambda: decode_basic_block_reference(encoding),
    )


def _stream_decode():
    encoding = StreamEncoder(BLOCK_SIZE).encode(STREAM)
    return (
        lambda: decode_stream(encoding),
        lambda: decode_stream_reference(encoding),
    )


def _trace_decode():
    """Bulk ``decode_trace``, expanded to its per-fetch words, and the
    per-fetch walk over conv2d's trace, both on a decoder loaded from
    the flow's own bundle."""
    program = build_workload("conv2d").assemble()
    _cpu, trace = run_program(program)
    result = EncodingFlow(block_size=BLOCK_SIZE).run(program, trace, "conv2d")
    bundle = EncodingBundle.from_flow_result(program, result)
    base = bundle.text_base

    def lookup(pc: int) -> int:
        return bundle.encoded_words[(pc - base) >> 2]

    def decoder() -> FetchDecoder:
        tt, bbit = bundle.build_tables()
        return FetchDecoder(
            tt, bbit, bundle.block_size, encoded_region=bundle.encoded_pc_region()
        )

    fetches = trace.expand()
    assert decoder().decode_trace(trace, lookup).expand() == [
        program.words[(pc - base) >> 2] for pc in fetches
    ]

    def per_fetch() -> list[int]:
        walk = decoder()
        return [walk.fetch(pc, lookup(pc)) for pc in fetches]

    return lambda: decoder().decode_trace(trace, lookup).expand(), per_fetch


#: Row name -> factory of its (production, oracle) pair.
ROWS = {
    "stream_encode_greedy": lambda: _stream_encode("greedy"),
    "stream_encode_optimal": lambda: _stream_encode("optimal"),
    "block_encode_greedy": _block_encode,
    "block_decode": _block_decode,
    "stream_decode_serial": _stream_decode,
    "trace_decode": _trace_decode,
}


@pytest.mark.parametrize("row", ROWS)
def test_production_beats_oracle(row):
    production, oracle = ROWS[row]()
    assert production() == oracle(), f"{row}: production diverged from its oracle"
    fast = min(timeit.repeat(production, number=1, repeat=3))
    slow = min(timeit.repeat(oracle, number=1, repeat=3))
    speedup = slow / fast
    print(f"{row}: oracle {slow:.5f} s, production {fast:.5f} s, {speedup:.1f}x")
    assert speedup >= SPEEDUP_FLOOR, (
        f"{row}: {speedup:.1f}x < required {SPEEDUP_FLOOR}x"
    )
