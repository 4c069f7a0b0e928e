"""Tests for the Transformation Table model."""

import random

import pytest

from repro.core.program_codec import encode_basic_block
from repro.core.transformations import OPTIMAL_SET
from repro.hw.tt import TableCapacityError, TTEntry, TransformationTable


class TestTTEntry:
    def test_identity_entry_passthrough(self):
        entry = TTEntry.identity()
        assert entry.decode(0xDEADBEEF, 0x12345678) == 0xDEADBEEF

    def test_selector_semantics_per_line(self):
        # Line 0: identity, line 1: inversion, line 2: history, line 3:
        # inverted history, 4: xor, 5: xnor, 6: nor, 7: nand.
        entry = TTEntry(selectors=(0, 1, 2, 3, 4, 5, 6, 7))
        stored = 0b10101010
        prev = 0b11001100
        decoded = entry.decode(stored, prev)
        for line, transformation in enumerate(OPTIMAL_SET):
            x = (stored >> line) & 1
            y = (prev >> line) & 1
            assert (decoded >> line) & 1 == transformation(x, y), line

    def test_decode_matches_gate_by_gate_random(self):
        rng = random.Random(3)
        for _ in range(50):
            selectors = tuple(rng.randrange(8) for _ in range(32))
            entry = TTEntry(selectors=selectors)
            stored = rng.getrandbits(32)
            prev = rng.getrandbits(32)
            decoded = entry.decode(stored, prev)
            for line in range(32):
                x = (stored >> line) & 1
                y = (prev >> line) & 1
                expected = OPTIMAL_SET[selectors[line]](x, y)
                assert (decoded >> line) & 1 == expected

    def test_width_respected(self):
        entry = TTEntry(selectors=(1,) * 8)  # 8-bit bus, all inverted
        assert entry.decode(0x00, 0x00) == 0xFF
        assert entry.width == 8

    def test_bad_selector_rejected(self):
        with pytest.raises(ValueError):
            TTEntry(selectors=(8,))

    @pytest.mark.parametrize("selectors", [(0, -1), (0, 3, 9)])
    def test_first_bad_selector_named(self, selectors):
        with pytest.raises(ValueError) as err:
            TTEntry(selectors=selectors)
        assert str(err.value) == f"selector out of range: {selectors[-1]}"

    def test_float_selector_rejected(self):
        with pytest.raises(TypeError):
            TTEntry(selectors=(0, 1.0))

    def test_bool_selector_decodes_as_its_int(self):
        # bool is an int subclass: it takes the per-selector check and
        # decodes like the int it equals.
        entry = TTEntry(selectors=(True, False, 2))
        assert entry.decode(0b101, 0b110) == TTEntry(
            selectors=(1, 0, 2)
        ).decode(0b101, 0b110)


class TestTransformationTable:
    def _encoding(self, words=None, block_size=5):
        words = words or [0x8C880000 | i for i in range(12)]
        return encode_basic_block(words, block_size)

    def test_allocate_returns_base_index(self):
        tt = TransformationTable(capacity=16)
        encoding = self._encoding()
        base1 = tt.allocate(encoding)
        base2 = tt.allocate(encoding)
        assert base1 == 0
        assert base2 == encoding.num_segments

    def test_end_bit_on_tail_only(self):
        tt = TransformationTable(capacity=16)
        encoding = self._encoding()
        tt.allocate(encoding)
        flags = [entry.end for entry in tt.entries]
        assert flags[-1] is True
        assert all(flag is False for flag in flags[:-1])

    def test_ct_counts_tail_instructions(self):
        tt = TransformationTable(capacity=16)
        # 12 instructions, k=5: segments (0,5), (4,5), (8,4); the tail
        # decodes instructions 9..11 -> CT = 3.
        encoding = self._encoding()
        tt.allocate(encoding)
        assert tt.entries[-1].count == 3

    def test_single_segment_block_ct(self):
        tt = TransformationTable(capacity=4)
        encoding = self._encoding(words=[1, 2, 3], block_size=5)
        tt.allocate(encoding)
        (entry,) = tt.entries
        assert entry.end and entry.count == 3

    def test_capacity_enforced(self):
        tt = TransformationTable(capacity=2)
        encoding = self._encoding()  # needs 3 entries
        with pytest.raises(TableCapacityError):
            tt.allocate(encoding)

    def test_clear(self):
        tt = TransformationTable(capacity=16)
        tt.allocate(self._encoding())
        tt.clear()
        assert len(tt) == 0
        assert tt.free_entries == 16

    def test_storage_bits(self):
        tt = TransformationTable(capacity=16, width=32)
        # 16 * (96 selector bits + E + 4-bit CT)
        assert tt.storage_bits(ct_bits=4) == 16 * 101

    def test_width_mismatch_rejected(self):
        tt = TransformationTable(capacity=16, width=16)
        with pytest.raises(ValueError):
            tt.allocate(self._encoding())

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            TransformationTable(capacity=0)
