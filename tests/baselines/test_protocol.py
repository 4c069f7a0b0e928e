"""The common Encoder protocol, across every registered backend."""

import pytest
from hypothesis import given, settings

from repro.baselines import protocol
from repro.baselines.protocol import (
    ENCODER_REGISTRY,
    EncodedStream,
    HardwareBudget,
    encoder_from_config,
    make_encoder,
    reference_transitions,
    registered_schemes,
)
from repro.errors import EncodingError

from tests.strategies import fetch_word_streams

MASK32 = (1 << 32) - 1


class TestRegistry:
    def test_all_six_backends_registered(self):
        assert registered_schemes() == (
            "bus-invert",
            "frequency",
            "gray",
            "low-weight",
            "memoryless",
            "t0",
        )

    def test_make_encoder_rejects_unknown_scheme(self):
        with pytest.raises(EncodingError):
            make_encoder("nope")

    def test_registry_maps_scheme_to_class(self):
        for scheme, cls in ENCODER_REGISTRY.items():
            assert cls.scheme == scheme

    def test_every_scheme_has_its_own_reference_counter(self):
        assert tuple(sorted(protocol._REFERENCE_COUNTERS)) == registered_schemes()

    def test_reference_without_counter_raises(self):
        class Unregistered(protocol.Encoder):
            scheme = "unregistered"

            def encode(self, words):
                return protocol.EncodedStream(self.scheme, 32, list(words))

            def decode(self, stream):
                return list(stream.driven)

            def budget(self):
                return HardwareBudget()

        with pytest.raises(EncodingError, match="no reference transition counter"):
            reference_transitions(Unregistered(), [1, 2, 3])


@pytest.mark.parametrize("scheme", registered_schemes())
class TestProtocolContract:
    def test_roundtrip_on_seeded_stream(self, scheme, seeded_hot_words):
        words = seeded_hot_words(f"proto:{scheme}", 120)
        encoder = make_encoder(scheme).fit(words)
        assert encoder.decode(encoder.encode(words)) == [
            w & MASK32 for w in words
        ]

    def test_fast_count_matches_reference(self, scheme, seeded_hot_words):
        words = seeded_hot_words(f"ref:{scheme}", 90)
        encoder = make_encoder(scheme).fit(words)
        assert encoder.encode(words).transitions() == reference_transitions(
            encoder, words
        )

    def test_config_digest_is_deterministic_and_rebuildable(
        self, scheme, seeded_hot_words
    ):
        words = seeded_hot_words(f"digest:{scheme}", 70)
        a = make_encoder(scheme).fit(words)
        b = make_encoder(scheme).fit(words)
        assert a.config_digest() == b.config_digest()
        assert len(a.config_digest()) == 64
        rebuilt = encoder_from_config(scheme, a.to_config())
        assert rebuilt.config_digest() == a.config_digest()
        assert rebuilt.encode(words).driven == a.encode(words).driven

    def test_budget_metadata_shape(self, scheme):
        budget = make_encoder(scheme).budget()
        assert isinstance(budget, HardwareBudget)
        assert budget.table_bits >= 0
        assert budget.extra_lines >= 0

    def test_empty_and_single_word_streams(self, scheme):
        encoder = make_encoder(scheme).fit([])
        assert encoder.decode(encoder.encode([])) == []
        # The first transfer of any stream is free under the shared
        # convention, so a single word costs zero transitions.
        single = make_encoder(scheme).fit([0xCAFEF00D])
        stream = single.encode([0xCAFEF00D])
        assert stream.transitions() == 0
        assert single.decode(stream) == [0xCAFEF00D]

    def test_deployable_split(self, scheme, seeded_hot_words):
        """Deployable recoders decode per word with no history; bus
        codecs refuse the per-word API (their state lives on the bus)."""
        words = seeded_hot_words(f"deploy:{scheme}", 50)
        encoder = make_encoder(scheme).fit(words)
        if encoder.deployable:
            stream = encoder.encode(words)
            assert [
                encoder.decode_word(w) for w in stream.driven
            ] == [w & MASK32 for w in words]
        else:
            with pytest.raises(EncodingError):
                encoder.encode_word(0)


class TestBudgetFits:
    def test_fits_enforces_both_axes(self):
        budget = HardwareBudget(table_bits=1024, extra_lines=2, stateful=True)
        assert budget.fits(max_table_bits=1024, max_extra_lines=2)
        assert not budget.fits(max_table_bits=1023, max_extra_lines=2)
        assert not budget.fits(max_table_bits=1024, max_extra_lines=1)


@given(fetch_word_streams(max_length=60))
@settings(max_examples=40, deadline=None)
def test_every_backend_roundtrips_any_fetch_stream(words):
    expected = [w & MASK32 for w in words]
    for scheme in registered_schemes():
        encoder = make_encoder(scheme).fit(words)
        assert encoder.decode(encoder.encode(words)) == expected, scheme


STATELESS = tuple(
    scheme
    for scheme in registered_schemes()
    if not make_encoder(scheme).budget().stateful
)


def test_stateless_backends_are_the_word_recoders():
    assert STATELESS == ("frequency", "gray", "memoryless")


@given(fetch_word_streams(max_length=60))
@settings(max_examples=40, deadline=None)
def test_stateless_backends_encode_and_decode_elementwise(words):
    """A backend whose budget says ``stateful=False`` maps each word on
    its own: the stream's driven values are the per-word encodings and
    its decode is the per-word decode.  The selector relies on this to
    cost such a backend from one driven value per distinct word and to
    decode-check only the distinct words."""
    for scheme in STATELESS:
        encoder = make_encoder(scheme).fit(words)
        assert not encoder.budget().stateful
        stream = encoder.encode(words)
        assert stream.driven == [
            encoder.encode([word]).driven[0] for word in words
        ], scheme
        decoded = encoder.decode(stream)
        assert decoded == [
            encoder.decode(EncodedStream(stream.scheme, stream.width, [value]))[0]
            for value in stream.driven
        ], scheme
