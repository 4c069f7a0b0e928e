"""SEC-DED codec tests: clean roundtrip, exhaustive single-bit
correction (data and check bits), double-bit detection, and the row
serialisation formats it protects."""

import itertools
import random

import pytest

from repro.hw.integrity import (
    CLEAN,
    CORRECTED,
    UNCORRECTABLE,
    bbit_row_bits,
    bbit_row_data,
    bbit_row_ecc,
    bbit_row_fields,
    secded_check_bits,
    secded_decode,
    secded_encode,
    tt_row_bits,
    tt_row_data,
    tt_row_ecc,
    tt_row_fields,
)

TT_M = tt_row_bits(32)
BBIT_M = bbit_row_bits()


class TestCodec:
    @pytest.mark.parametrize("m", [8, 21, TT_M, BBIT_M])
    def test_clean_roundtrip(self, m):
        rng = random.Random(m)
        for _ in range(20):
            data = rng.getrandbits(m)
            check = secded_encode(data, m)
            status, fixed_data, fixed_check = secded_decode(data, m, check)
            assert status == CLEAN
            assert fixed_data == data and fixed_check == check

    @pytest.mark.parametrize("m", [8, TT_M, BBIT_M])
    def test_every_single_data_bit_corrects(self, m):
        rng = random.Random(m + 1)
        data = rng.getrandbits(m)
        check = secded_encode(data, m)
        for bit in range(m):
            status, fixed_data, fixed_check = secded_decode(
                data ^ (1 << bit), m, check
            )
            assert status == CORRECTED
            assert fixed_data == data
            assert fixed_check == check

    @pytest.mark.parametrize("m", [8, TT_M, BBIT_M])
    def test_every_single_check_bit_corrects(self, m):
        rng = random.Random(m + 2)
        data = rng.getrandbits(m)
        check = secded_encode(data, m)
        for bit in range(secded_check_bits(m)):
            status, fixed_data, fixed_check = secded_decode(
                data, m, check ^ (1 << bit)
            )
            assert status == CORRECTED
            assert fixed_data == data
            assert fixed_check == check

    def test_every_double_data_bit_detects_small_width(self):
        m = 11
        rng = random.Random(5)
        data = rng.getrandbits(m)
        check = secded_encode(data, m)
        for a, b in itertools.combinations(range(m), 2):
            status, _, _ = secded_decode(
                data ^ (1 << a) ^ (1 << b), m, check
            )
            assert status == UNCORRECTABLE

    @pytest.mark.parametrize("m", [TT_M, BBIT_M])
    def test_sampled_double_bit_flips_detect(self, m):
        rng = random.Random(m + 3)
        data = rng.getrandbits(m)
        check = secded_encode(data, m)
        for _ in range(200):
            a, b = rng.sample(range(m), 2)
            status, _, _ = secded_decode(
                data ^ (1 << a) ^ (1 << b), m, check
            )
            assert status == UNCORRECTABLE

    def test_data_plus_check_bit_detects(self):
        m = 16
        data = 0xBEEF
        check = secded_encode(data, m)
        status, _, _ = secded_decode(data ^ 1, m, check ^ 1)
        assert status == UNCORRECTABLE

    @pytest.mark.parametrize("m", [TT_M, BBIT_M])
    def test_nine_check_bits_per_row(self, m):
        # Both row formats land in the 2**7 <= m+r+1 <= 2**8 band:
        # eight Hamming bits plus the overall parity bit.
        assert secded_check_bits(m) == 9


class TestRowSerialisation:
    def test_tt_row_roundtrip(self):
        rng = random.Random(7)
        for _ in range(25):
            selectors = tuple(rng.randrange(8) for _ in range(32))
            end = rng.random() < 0.5
            count = rng.randrange(1 << 8)
            data = tt_row_data(selectors, end, count)
            assert data.bit_length() <= tt_row_bits(32)
            assert tt_row_fields(data, 32) == (selectors, end, count)

    def test_bbit_row_roundtrip(self):
        rng = random.Random(8)
        for _ in range(25):
            pc = rng.getrandbits(32)
            tt_index = rng.getrandbits(16)
            length = rng.getrandbits(16)
            data = bbit_row_data(pc, tt_index, length)
            assert data.bit_length() <= bbit_row_bits()
            assert bbit_row_fields(data) == (pc, tt_index, length)

    def test_row_ecc_matches_generic_encode(self):
        selectors = tuple(i % 8 for i in range(32))
        assert tt_row_ecc(selectors, True, 5) == secded_encode(
            tt_row_data(selectors, True, 5), tt_row_bits(32)
        )
        assert bbit_row_ecc(0x400010, 3, 12) == secded_encode(
            bbit_row_data(0x400010, 3, 12), bbit_row_bits()
        )

    def test_field_corruption_changes_serialisation(self):
        # The check word covers *every* stored field, tag included.
        base = bbit_row_data(0x400000, 2, 9)
        assert base != bbit_row_data(0x400004, 2, 9)
        assert base != bbit_row_data(0x400000, 3, 9)
        assert base != bbit_row_data(0x400000, 2, 10)
