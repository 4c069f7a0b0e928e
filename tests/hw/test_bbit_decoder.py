"""Tests for the BBIT and the behavioural fetch decoder."""

import random

import pytest

from repro.core.program_codec import encode_basic_block
from repro.hw.bbit import BasicBlockIdentificationTable, BBITEntry
from repro.hw.fetch_decoder import DecodeFault, FetchDecoder
from repro.hw.tt import TransformationTable


class TestBbit:
    def test_install_and_lookup(self):
        bbit = BasicBlockIdentificationTable(capacity=4)
        bbit.install(BBITEntry(pc=0x400000, tt_index=0, num_instructions=8))
        hit = bbit.lookup(0x400000)
        assert hit is not None and hit.tt_index == 0
        assert bbit.lookup(0x400004) is None
        assert bbit.lookups == 2 and bbit.hits == 1

    def test_capacity(self):
        bbit = BasicBlockIdentificationTable(capacity=1)
        bbit.install(BBITEntry(pc=0, tt_index=0, num_instructions=1))
        with pytest.raises(ValueError, match="full"):
            bbit.install(BBITEntry(pc=4, tt_index=1, num_instructions=1))

    def test_duplicate_rejected(self):
        bbit = BasicBlockIdentificationTable(capacity=4)
        bbit.install(BBITEntry(pc=0, tt_index=0, num_instructions=1))
        with pytest.raises(ValueError, match="duplicate"):
            bbit.install(BBITEntry(pc=0, tt_index=1, num_instructions=1))

    def test_storage_bits(self):
        bbit = BasicBlockIdentificationTable(capacity=16)
        assert bbit.storage_bits(pc_bits=30, tt_index_bits=4) == 16 * 34

    def test_clear_resets_stats(self):
        bbit = BasicBlockIdentificationTable(capacity=4)
        bbit.install(BBITEntry(pc=0, tt_index=0, num_instructions=1))
        bbit.lookup(0)
        bbit.clear()
        assert len(bbit) == 0 and bbit.lookups == 0


def _materialise(words, block_size, base=0x400000, capacity=16):
    """Encode one basic block and wire up TT + BBIT + image."""
    encoding = encode_basic_block(words, block_size)
    tt = TransformationTable(capacity)
    bbit = BasicBlockIdentificationTable(capacity)
    index = tt.allocate(encoding)
    bbit.install(
        BBITEntry(pc=base, tt_index=index, num_instructions=len(words))
    )
    image = {base + 4 * i: w for i, w in enumerate(encoding.encoded_words)}
    return encoding, tt, bbit, image


class TestFetchDecoder:
    def test_sequential_decode_restores_block(self):
        rng = random.Random(9)
        words = [rng.getrandbits(32) for _ in range(13)]
        encoding, tt, bbit, image = _materialise(words, 5)
        decoder = FetchDecoder(tt, bbit, 5)
        decoded = [
            decoder.fetch(0x400000 + 4 * i, image[0x400000 + 4 * i])
            for i in range(len(words))
        ]
        assert decoded == words

    def test_repeated_block_execution(self):
        # A loop body fetched many times, like the paper's hot loops.
        words = [0x8C880000 | i for i in range(7)]
        encoding, tt, bbit, image = _materialise(words, 4)
        decoder = FetchDecoder(tt, bbit, 4)
        for _ in range(5):
            decoded = [
                decoder.fetch(0x400000 + 4 * i, image[0x400000 + 4 * i])
                for i in range(len(words))
            ]
            assert decoded == words

    def test_unencoded_fetch_passthrough(self):
        words = [1, 2, 3, 4, 5]
        encoding, tt, bbit, image = _materialise(words, 5)
        decoder = FetchDecoder(tt, bbit, 5)
        assert decoder.fetch(0x500000, 0xABCD) == 0xABCD
        assert decoder.passthrough_instructions == 1

    def test_early_exit_and_reentry(self):
        # Decode half the block, branch away, re-enter from the top.
        words = [0x10000 + 7 * i for i in range(9)]
        encoding, tt, bbit, image = _materialise(words, 5)
        decoder = FetchDecoder(tt, bbit, 5)
        for i in range(4):
            assert decoder.fetch(0x400000 + 4 * i, image[0x400000 + 4 * i]) == words[i]
        # "Taken branch": fetch elsewhere, then the block start again.
        assert decoder.fetch(0x600000, 0x999) == 0x999
        decoded = [
            decoder.fetch(0x400000 + 4 * i, image[0x400000 + 4 * i])
            for i in range(len(words))
        ]
        assert decoded == words

    def test_mid_block_entry_detected(self):
        words = [3, 1, 4, 1, 5, 9, 2, 6]
        encoding, tt, bbit, image = _materialise(words, 5)
        region = set(image)
        decoder = FetchDecoder(tt, bbit, 5, encoded_region=region)
        with pytest.raises(DecodeFault, match="mid-block"):
            decoder.fetch(0x400008, image[0x400008])

    def test_two_blocks_share_table(self):
        rng = random.Random(4)
        words_a = [rng.getrandbits(32) for _ in range(6)]
        words_b = [rng.getrandbits(32) for _ in range(11)]
        enc_a = encode_basic_block(words_a, 5)
        enc_b = encode_basic_block(words_b, 5)
        tt = TransformationTable(16)
        bbit = BasicBlockIdentificationTable(16)
        base_a = tt.allocate(enc_a)
        base_b = tt.allocate(enc_b)
        bbit.install(BBITEntry(pc=0x400000, tt_index=base_a, num_instructions=6))
        bbit.install(BBITEntry(pc=0x400100, tt_index=base_b, num_instructions=11))
        image = {0x400000 + 4 * i: w for i, w in enumerate(enc_a.encoded_words)}
        image.update(
            {0x400100 + 4 * i: w for i, w in enumerate(enc_b.encoded_words)}
        )
        decoder = FetchDecoder(tt, bbit, 5)
        # Alternate between the two blocks (branching back and forth).
        for _ in range(3):
            got_a = [
                decoder.fetch(0x400000 + 4 * i, image[0x400000 + 4 * i])
                for i in range(6)
            ]
            got_b = [
                decoder.fetch(0x400100 + 4 * i, image[0x400100 + 4 * i])
                for i in range(11)
            ]
            assert got_a == words_a
            assert got_b == words_b

    def test_decode_trace_helper(self):
        words = [17 * i + 3 for i in range(10)]
        encoding, tt, bbit, image = _materialise(words, 6)
        decoder = FetchDecoder(tt, bbit, 6)
        addresses = [0x400000 + 4 * i for i in range(10)] * 2
        decoded = decoder.decode_trace(addresses, lambda pc: image[pc])
        assert decoded.expand() == words * 2

    def test_block_size_validation(self):
        tt = TransformationTable(4)
        bbit = BasicBlockIdentificationTable(4)
        with pytest.raises(ValueError):
            FetchDecoder(tt, bbit, 1)

    def test_single_instruction_block(self):
        words = [0xCAFEBABE]
        encoding, tt, bbit, image = _materialise(words, 5)
        decoder = FetchDecoder(tt, bbit, 5)
        assert decoder.fetch(0x400000, image[0x400000]) == 0xCAFEBABE
        # Decoder must have deactivated; an unrelated fetch passes through.
        assert decoder.fetch(0x700000, 42) == 42


class TestActivityAccounting:
    """Section 7.2's overhead argument, quantitatively: TT reads are
    one per decoded instruction (beyond the anchor), BBIT probes only
    where the engine is inactive."""

    def test_tt_reads_and_bbit_probes(self):
        words = [0x11111111 * (i % 3) for i in range(9)]
        encoding, tt, bbit, image = _materialise(words, 5)
        decoder = FetchDecoder(tt, bbit, 5)
        iterations = 4
        for _ in range(iterations):
            for i in range(len(words)):
                decoder.fetch(0x400000 + 4 * i, image[0x400000 + 4 * i])
        # Per iteration: 8 decoded via TT (anchor passes through).
        assert decoder.tt_reads == iterations * (len(words) - 1)
        # One BBIT probe per block entry (engine inactive only there).
        assert bbit.lookups == iterations
        assert bbit.hits == iterations

    def test_probe_rate_small_on_loops(self):
        # On a loop-dominated stream the BBIT probe rate is one per
        # block execution — tiny relative to fetches, which is the
        # paper's "overhead is insignificant" argument.
        words = [0x8C880000 | i for i in range(12)]
        encoding, tt, bbit, image = _materialise(words, 5)
        decoder = FetchDecoder(tt, bbit, 5)
        for _ in range(50):
            for i in range(len(words)):
                decoder.fetch(0x400000 + 4 * i, image[0x400000 + 4 * i])
        total_fetches = 50 * len(words)
        assert bbit.lookups / total_fetches <= 1 / len(words) + 1e-9
