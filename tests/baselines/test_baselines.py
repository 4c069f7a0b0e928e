"""Tests for the related-work baseline encoders.

Input generation lives in :mod:`tests.strategies` (the same
distributions the ``repro verify`` campaign draws from): hypothesis
property tests use ``fetch_word_streams``/``instruction_words``, plain
tests take the seeded factory fixtures from ``conftest``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bus_invert import BusInvertEncoder, bus_invert_transitions
from repro.baselines.frequency import FrequencyEncoder, _code_candidates
from repro.baselines.gray import gray_decode, gray_encode, gray_transitions
from repro.baselines.t0 import T0Encoder, t0_transitions
from repro.core.transitions import per_transfer_transitions, word_transitions

from tests.strategies import fetch_word_streams, instruction_words

MASK32 = (1 << 32) - 1


class TestBusInvert:
    def test_inversion_triggers_above_half(self):
        stream = BusInvertEncoder(width=8).encode([0x00, 0xFF])
        # distance 8 > 4 -> drive 0x00 with the invert line (bit 8) high
        assert stream.driven == [0x00, 0x100]
        # 0 bus transitions + 1 invert-line transition
        assert stream.transitions() == 1
        assert bus_invert_transitions([0x00, 0xFF], width=8) == 1

    def test_no_inversion_below_half(self):
        stream = BusInvertEncoder(width=8).encode([0x00, 0x03])
        assert stream.driven == [0x00, 0x03]
        assert stream.transitions() == 2
        assert bus_invert_transitions([0x00, 0x03], width=8) == 2

    def test_decode_restores(self, seeded_words):
        encoder = BusInvertEncoder(width=8)
        words = [w & 0xFF for w in seeded_words("bi-decode", 100)]
        assert encoder.decode(encoder.encode(words)) == words

    @given(instruction_words)
    @settings(max_examples=100)
    def test_worst_case_bound(self, words):
        # Per transfer: at most width/2 line transitions + 1 invert.
        stream = BusInvertEncoder(width=32).encode(words)
        assert all(t <= 17 for t in per_transfer_transitions(stream.driven))

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
        assert t0_transitions(addresses) < word_transitions(addresses)

    def test_frozen_counter(self):
        stream = T0Encoder().encode([0x100, 0x104, 0x108, 0x200])
        # Frozen transfers drive the increment line (bit 32) high.
        assert [(packed >> 32) & 1 for packed in stream.driven] == [0, 1, 1, 0]

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


class TestFrequency:
    def test_fit_assigns_small_codes_to_frequent_words(self):
        words = [0xAAAAAAAA] * 100 + [0x55555555] * 50 + [0x12345678] * 10
        encoder = FrequencyEncoder().fit(words)
        # The most frequent word gets the all-zero code, escape low.
        assert encoder.mapping[0xAAAAAAAA] == 0
        assert encoder.encode([0xAAAAAAAA]).driven == [0]

    def test_unknown_word_escapes(self):
        encoder = FrequencyEncoder().fit([1, 2, 3])
        assert encoder.encode([0xDEAD]).driven == [(1 << 32) | 0xDEAD]

    def test_transitions_reduced_on_skewed_stream(self, seeded_hot_words):
        words = seeded_hot_words("freq-skew", 2000, alphabet=4, noise=0.0)
        encoder = FrequencyEncoder().fit(words)
        raw = sum((a ^ b).bit_count() for a, b in zip(words, words[1:]))
        assert encoder.transitions(words) < raw

    def test_dictionary_cost_reported(self):
        encoder = FrequencyEncoder(max_entries=8).fit(list(range(20)))
        assert encoder.budget().table_bits == 8 * 64

    def test_capacity_respected(self):
        encoder = FrequencyEncoder(max_entries=4).fit(list(range(100)))
        assert len(encoder.mapping) == 4

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
        mapping = encoder.mapping
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
