"""Tests for the related-work baseline encoders.

Input generation lives in :mod:`tests.strategies` (the same
distributions the ``repro verify`` campaign draws from): hypothesis
property tests use ``fetch_word_streams``/``instruction_words``, plain
tests take the seeded factory fixtures from ``conftest``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bus_invert import (
    BusInvertCoder,
    BusInvertEncoder,
    bus_invert_transitions,
)
from repro.baselines.frequency import (
    FrequencyEncoder,
    FrequencyRemapper,
    _code_candidates,
)
from repro.baselines.gray import gray_decode, gray_encode, gray_transitions
from repro.baselines.t0 import (
    T0Coder,
    T0Encoder,
    raw_address_transitions,
    t0_transitions,
)

from tests.strategies import fetch_word_streams, instruction_words

MASK32 = (1 << 32) - 1


class TestBusInvert:
    def test_inversion_triggers_above_half(self):
        coder = BusInvertCoder(width=8)
        coder.reset(initial_word=0x00)
        driven, invert = coder.send(0xFF)  # distance 8 > 4 -> invert
        assert invert == 1
        assert driven == 0x00
        # 0 bus transitions + 1 invert-line transition
        assert coder.transitions == 1

    def test_no_inversion_below_half(self):
        coder = BusInvertCoder(width=8)
        coder.reset(initial_word=0x00)
        driven, invert = coder.send(0x03)
        assert invert == 0 and driven == 0x03
        assert coder.transitions == 2

    def test_decode_restores(self, seeded_words):
        coder = BusInvertCoder(width=8)
        for word in [w & 0xFF for w in seeded_words("bi-decode", 100)]:
            driven, invert = coder.send(word)
            assert BusInvertCoder.decode(driven, invert, width=8) == word

    @given(instruction_words)
    @settings(max_examples=100)
    def test_worst_case_bound(self, words):
        # Per transfer: at most width/2 line transitions + 1 invert.
        coder = BusInvertCoder(width=32)
        coder.reset(initial_word=words[0])
        before = 0
        for word in words[1:]:
            coder.send(word)
            assert coder.transitions - before <= 17
            before = coder.transitions

    @given(fetch_word_streams())
    @settings(max_examples=100)
    def test_never_worse_than_raw_plus_signal(self, words):
        raw = sum(
            (a ^ b).bit_count() for a, b in zip(words, words[1:])
        )
        encoded = bus_invert_transitions(words)
        # The invert line can add at most one transition per transfer.
        assert encoded <= raw + max(0, len(words) - 1)

    @given(fetch_word_streams())
    @settings(max_examples=100)
    def test_invert_bit_consistency(self, words):
        """The driven word is the original or its complement exactly
        as the packed invert bit (line 32) says, and the decision is
        the Stan/Burleson rule: invert iff more than half the lines
        would toggle against the previously *driven* word."""
        encoder = BusInvertEncoder().fit(words)
        stream = encoder.encode(words)
        prev_driven = None
        for word, packed in zip(words, stream.driven):
            word &= MASK32
            invert = (packed >> 32) & 1
            driven = packed & MASK32
            if invert:
                assert driven == word ^ MASK32
            else:
                assert driven == word
            if prev_driven is not None:
                distance = (word ^ prev_driven).bit_count()
                assert invert == (1 if distance > 16 else 0)
            assert BusInvertCoder.decode(driven, invert, width=32) == word
            prev_driven = driven
        assert encoder.decode(stream) == [w & MASK32 for w in words]


class TestT0:
    def test_sequential_stream_freezes_bus(self):
        addresses = [0x400000 + 4 * i for i in range(100)]
        # Only the initial rise of the increment line toggles; the
        # address lines never move.
        assert t0_transitions(addresses) <= 1

    def test_branch_costs_transitions(self):
        addresses = [0x400000, 0x400004, 0x400100]
        assert t0_transitions(addresses) > 0

    def test_t0_beats_raw_on_sequential(self):
        addresses = [0x400000 + 4 * i for i in range(64)]
        assert t0_transitions(addresses) < raw_address_transitions(addresses)

    def test_frozen_counter(self):
        coder = T0Coder()
        coder.reset(0x100)
        coder.send(0x104)
        coder.send(0x108)
        coder.send(0x200)
        assert coder.frozen_transfers == 2

    def test_empty(self):
        assert t0_transitions([]) == 0
        assert bus_invert_transitions([]) == 0

    @given(
        st.integers(min_value=0, max_value=MASK32 - 4 * 40),
        st.integers(min_value=2, max_value=40),
    )
    @settings(max_examples=60)
    def test_sequential_run_compression(self, base, length):
        """Inside a sequential run the T0 bus is frozen: every packed
        transfer after the first re-drives the same address lines with
        the inc bit high, so the whole run costs at most one toggle
        (the inc line's initial rise)."""
        base &= ~0x3
        addresses = [base + 4 * i for i in range(length)]
        encoder = T0Encoder().fit(addresses)
        stream = encoder.encode(addresses)
        assert stream.transitions() <= 1
        # Every non-first transfer rides the increment line.
        for packed in stream.driven[1:]:
            assert (packed >> 32) & 1 == 1
        assert encoder.decode(stream) == addresses

    @given(fetch_word_streams())
    @settings(max_examples=60)
    def test_t0_roundtrip_on_arbitrary_streams(self, words):
        encoder = T0Encoder().fit(words)
        assert encoder.decode(encoder.encode(words)) == [
            w & MASK32 for w in words
        ]


class TestGray:
    @given(st.integers(min_value=0, max_value=(1 << 30) - 1))
    def test_roundtrip(self, value):
        assert gray_decode(gray_encode(value)) == value

    @given(st.integers(min_value=0, max_value=(1 << 30) - 2))
    def test_adjacent_differ_in_one_bit(self, value):
        a, b = gray_encode(value), gray_encode(value + 1)
        assert (a ^ b).bit_count() == 1

    def test_sequential_stream_one_transition_per_fetch(self):
        addresses = [4 * i for i in range(100)]
        assert gray_transitions(addresses) == 99


class TestFrequencyRemapper:
    def test_fit_assigns_small_codes_to_frequent_words(self):
        words = [0xAAAAAAAA] * 100 + [0x55555555] * 50 + [0x12345678] * 10
        remapper = FrequencyRemapper().fit(words)
        code_a, escape_a = remapper.encode(0xAAAAAAAA)
        assert escape_a == 0
        assert code_a == 0  # most frequent gets the all-zero code

    def test_unknown_word_escapes(self):
        remapper = FrequencyRemapper().fit([1, 2, 3])
        word, escape = remapper.encode(0xDEAD)
        assert word == 0xDEAD and escape == 1

    def test_transitions_reduced_on_skewed_stream(self, seeded_hot_words):
        words = seeded_hot_words("freq-skew", 2000, alphabet=4, noise=0.0)
        remapper = FrequencyRemapper().fit(words)
        raw = sum((a ^ b).bit_count() for a, b in zip(words, words[1:]))
        assert remapper.transitions(words) < raw

    def test_dictionary_cost_reported(self):
        remapper = FrequencyRemapper(max_entries=8).fit(list(range(20)))
        assert remapper.dictionary_bits == 8 * 64

    def test_capacity_respected(self):
        remapper = FrequencyRemapper(max_entries=4).fit(list(range(100)))
        assert len(remapper.mapping) == 4

    def test_code_candidates_match_brute_force(self):
        """The Gosper walk hands out exactly the codes the brute-force
        popcount scan does, in the same order, and runs out at the
        same count."""

        def brute_force(width, count):
            codes, weight = [], 0
            while len(codes) < count:
                codes.extend(
                    c for c in range(1 << min(width, 20)) if c.bit_count() == weight
                )
                weight += 1
                if weight > min(width, 20):
                    raise ValueError("code space exhausted")
            return codes[:count]

        for width in range(0, 9):
            for count in range((1 << width) + 2):
                try:
                    expected = brute_force(width, count)
                except ValueError:
                    with pytest.raises(ValueError, match="code space exhausted"):
                        _code_candidates(width, count)
                else:
                    assert _code_candidates(width, count) == expected
        assert _code_candidates(32, 300) == _code_candidates(20, 300)

    @given(fetch_word_streams())
    @settings(max_examples=100)
    def test_remap_bijectivity(self, words):
        """The fitted dictionary is injective in both directions —
        distinct hot words get distinct codes, no code collides with
        another, so the escape-tagged channel decodes uniquely."""
        encoder = FrequencyEncoder().fit(words)
        mapping = encoder._remapper.mapping
        codes = list(mapping.values())
        assert len(set(mapping)) == len(mapping)
        assert len(set(codes)) == len(codes)
        stream = encoder.encode(words)
        assert encoder.decode(stream) == [w & MASK32 for w in words]
        # Escape bit discriminates: unescaped transfers carry a code
        # in the dictionary's image, escaped transfers the raw word.
        code_image = set(codes)
        for word, packed in zip(words, stream.driven):
            escape = (packed >> 32) & 1
            driven = packed & MASK32
            if escape:
                assert driven == word & MASK32
            else:
                assert driven in code_image
