"""Bundle loader validation: every malformed bundle must be rejected
with a precise :class:`BundleFormatError` *before* anything reaches
the hardware tables — a loader that installs half a bundle is worse
than one that refuses it."""

import json
import random

import pytest

from repro.core.program_codec import encode_basic_block
from repro.errors import BundleFormatError, ReproError
from repro.pipeline.bundle import EncodingBundle


def _good_bundle(num_words=14, block_size=5, base=0x400000, seed=5):
    """A self-consistent bundle: one encoded block filling the image."""
    rng = random.Random(seed)
    words = [rng.getrandbits(32) for _ in range(num_words)]
    enc = encode_basic_block(words, block_size)
    bundle = EncodingBundle(
        name="synthetic",
        block_size=block_size,
        text_base=base,
        encoded_words=list(enc.encoded_words),
        original_digest="0" * 64,
    )
    for row, (start, seg_len) in zip(enc.selectors(), enc.bounds):
        is_tail = start + seg_len >= num_words
        bundle.tt_entries.append(
            {
                "selectors": list(row),
                "end": is_tail,
                "count": (
                    (seg_len if start == 0 else seg_len - 1) if is_tail else 0
                ),
            }
        )
    bundle.bbit_entries.append(
        {"pc": base, "tt_index": 0, "num_instructions": num_words}
    )
    return bundle


def _roundtrip_data():
    return json.loads(_good_bundle().to_json())


class TestJsonParsing:
    def test_roundtrip_succeeds(self):
        bundle = _good_bundle()
        restored = EncodingBundle.from_json(bundle.to_json())
        assert restored.encoded_words == bundle.encoded_words
        assert restored.tt_entries == bundle.tt_entries
        assert restored.bbit_entries == bundle.bbit_entries

    def test_truncated_json_rejected(self):
        text = _good_bundle().to_json()
        with pytest.raises(BundleFormatError, match="not valid JSON"):
            EncodingBundle.from_json(text[: len(text) // 2])

    def test_garbled_json_rejected(self):
        with pytest.raises(BundleFormatError, match="not valid JSON"):
            EncodingBundle.from_json("{]{garbage!!")

    def test_non_object_root_rejected(self):
        with pytest.raises(BundleFormatError, match="root must be an object"):
            EncodingBundle.from_json("[1, 2, 3]")

    def test_wrong_format_version_rejected(self):
        data = _roundtrip_data()
        data["format_version"] = 99
        with pytest.raises(BundleFormatError, match="unsupported bundle format"):
            EncodingBundle.from_json(json.dumps(data))

    def test_missing_required_field_rejected(self):
        for key in ("name", "encoded_words", "tt", "bbit", "encoded_digest"):
            data = _roundtrip_data()
            del data[key]
            with pytest.raises(BundleFormatError, match=key):
                EncodingBundle.from_json(json.dumps(data))

    def test_bad_hex_word_rejected(self):
        data = _roundtrip_data()
        data["encoded_words"][3] = "zzüq"
        with pytest.raises(BundleFormatError, match=r"encoded_words\[3\]"):
            EncodingBundle.from_json(json.dumps(data))

    def test_oversized_word_rejected(self):
        data = _roundtrip_data()
        data["encoded_words"][0] = "1ffffffff"
        with pytest.raises(BundleFormatError, match="32 bits"):
            EncodingBundle.from_json(json.dumps(data))

    def test_digest_mismatch_rejected(self):
        data = _roundtrip_data()
        # One flipped stored bit: exactly what the digest is for.
        word = int(data["encoded_words"][2], 16) ^ (1 << 9)
        data["encoded_words"][2] = f"{word:08x}"
        with pytest.raises(BundleFormatError, match="digest mismatch"):
            EncodingBundle.from_json(json.dumps(data))

    def test_errors_are_repro_and_value_errors(self):
        # Both catchable as the hierarchy root and, for backward
        # compatibility, as ValueError.
        with pytest.raises(ReproError):
            EncodingBundle.from_json("nope")
        with pytest.raises(ValueError):
            EncodingBundle.from_json("nope")


class TestStructuralValidation:
    def test_good_bundle_validates(self):
        _good_bundle().validate()

    def test_selector_out_of_range(self):
        bundle = _good_bundle()
        bundle.tt_entries[0]["selectors"][4] = 9
        with pytest.raises(BundleFormatError, match="selector for line 4"):
            bundle.validate()

    def test_non_bool_end_rejected(self):
        bundle = _good_bundle()
        bundle.tt_entries[0]["end"] = 1
        with pytest.raises(BundleFormatError, match="'end' must be a boolean"):
            bundle.validate()

    def test_negative_count_rejected(self):
        bundle = _good_bundle()
        bundle.tt_entries[-1]["count"] = -2
        with pytest.raises(BundleFormatError, match="'count' must be >= 0"):
            bundle.validate()

    def test_inconsistent_width_rejected(self):
        bundle = _good_bundle()
        bundle.tt_entries[1]["selectors"] = bundle.tt_entries[1]["selectors"][:16]
        with pytest.raises(BundleFormatError, match="width 16"):
            bundle.validate()

    def test_zero_length_block_rejected(self):
        bundle = _good_bundle()
        bundle.bbit_entries[0]["num_instructions"] = 0
        with pytest.raises(BundleFormatError, match="num_instructions"):
            bundle.validate()

    def test_misaligned_pc_rejected(self):
        bundle = _good_bundle()
        bundle.bbit_entries[0]["pc"] += 2
        with pytest.raises(BundleFormatError, match="not word-aligned"):
            bundle.validate()

    def test_duplicate_pc_rejected(self):
        bundle = _good_bundle()
        bundle.bbit_entries.append(dict(bundle.bbit_entries[0]))
        with pytest.raises(BundleFormatError, match="duplicate entry"):
            bundle.validate()

    def test_block_outside_image_rejected(self):
        bundle = _good_bundle()
        bundle.bbit_entries[0]["num_instructions"] += 40
        with pytest.raises(BundleFormatError, match="outside the image"):
            bundle.validate()

    def test_dangling_tt_reference_rejected(self):
        bundle = _good_bundle(num_words=40)  # block stays inside the image
        bundle.bbit_entries[0]["tt_index"] = len(bundle.tt_entries) - 1
        with pytest.raises(BundleFormatError, match="dangling BBIT->TT"):
            bundle.validate()

    def test_walk_must_end_on_e_bit(self):
        bundle = _good_bundle()
        tail = bundle.tt_entries[-1]
        tail["end"] = False
        with pytest.raises(BundleFormatError, match="E-bit"):
            bundle.validate()

    def test_non_integer_field_rejected(self):
        bundle = _good_bundle()
        bundle.bbit_entries[0]["tt_index"] = "0"
        with pytest.raises(BundleFormatError, match="must be an integer"):
            bundle.validate()

    def test_bool_block_size_rejected(self):
        bundle = _good_bundle()
        bundle.block_size = True
        with pytest.raises(BundleFormatError, match="block_size"):
            bundle.validate()


class TestExactRejectionMessages:
    """The loader checks selectors in bulk and formats a message only
    for the check that fails; the failing check still names the first
    offending value, with the same text as a check-by-check walk."""

    @pytest.mark.parametrize(
        "selector, shown",
        [(True, "True"), (1.0, "1.0"), ("3", "'3'"), (8, "8"), (-1, "-1")],
    )
    def test_bad_selector(self, selector, shown):
        bundle = _good_bundle()
        bundle.tt_entries[0]["selectors"][4] = selector
        message = f"tt[0]: selector for line 4 out of range 0..7: {shown}"
        for load in (
            bundle.validate,
            bundle.build_tables,
            lambda: EncodingBundle.from_json(bundle.to_json()),
        ):
            with pytest.raises(BundleFormatError) as err:
                load()
            assert str(err.value) == message

    def test_first_bad_selector_is_named(self):
        bundle = _good_bundle()
        bundle.tt_entries[1]["selectors"][7] = 9
        bundle.tt_entries[1]["selectors"][2] = True
        with pytest.raises(BundleFormatError) as err:
            bundle.validate()
        assert str(err.value) == (
            "tt[1]: selector for line 2 out of range 0..7: True"
        )

    def test_unhashable_selector(self):
        bundle = _good_bundle()
        bundle.tt_entries[0]["selectors"][0] = [1]
        with pytest.raises(BundleFormatError) as err:
            bundle.validate()
        assert str(err.value) == (
            "tt[0]: selector for line 0 out of range 0..7: [1]"
        )

    @pytest.mark.parametrize(
        "count, kind", [(True, "bool"), (1.5, "float"), (2.0, "float")]
    )
    def test_non_integer_count(self, count, kind):
        bundle = _good_bundle()
        bundle.tt_entries[-1]["count"] = count
        last = len(bundle.tt_entries) - 1
        message = f"tt[{last}]: field 'count' must be an integer, got {kind}"
        for load in (
            bundle.validate,
            bundle.build_tables,
            lambda: EncodingBundle.from_json(bundle.to_json()),
        ):
            with pytest.raises(BundleFormatError) as err:
                load()
            assert str(err.value) == message

    def test_missing_count(self):
        bundle = _good_bundle()
        del bundle.tt_entries[0]["count"]
        with pytest.raises(BundleFormatError) as err:
            bundle.validate()
        assert str(err.value) == "tt[0]: missing field 'count'"

    @pytest.mark.parametrize("entry", [[1, 2], "x", None, 7])
    def test_non_dict_tt_entry(self, entry):
        bundle = _good_bundle()
        bundle.tt_entries[1] = entry
        for load in (
            bundle.validate,
            bundle.build_tables,
            lambda: EncodingBundle.from_json(bundle.to_json()),
        ):
            with pytest.raises(BundleFormatError) as err:
                load()
            assert str(err.value) == "tt[1]: entry must be an object"

    @pytest.mark.parametrize(
        "words, message",
        [
            (["0000000g"], "encoded_words[0]: '0000000g' is not a hex word"),
            ([7], "encoded_words[0]: 7 is not a hex word"),
            (
                ["1", "100000000", "zz"],
                "encoded_words[1]: '100000000' does not fit in 32 bits",
            ),
            (["1", "zz", "100000000"], "encoded_words[1]: 'zz' is not a hex word"),
            (["-1"], "encoded_words[0]: '-1' does not fit in 32 bits"),
        ],
    )
    def test_first_bad_word_is_named(self, words, message):
        data = _roundtrip_data()
        data["encoded_words"] = words
        with pytest.raises(BundleFormatError) as err:
            EncodingBundle.from_json(json.dumps(data))
        assert str(err.value) == message


def _region(header, blocks, scheme="raw", **extra):
    return {
        "header": header,
        "scheme": scheme,
        "blocks": [{"pc": pc, "num_instructions": n} for pc, n in blocks],
        **extra,
    }


class TestRegionValidation:
    """Mixed-scheme region metadata: the first failing check names its
    region, block and value."""

    def _rejects(self, regions, message):
        bundle = _good_bundle()
        bundle.regions = regions
        with pytest.raises(BundleFormatError) as err:
            bundle.validate()
        assert str(err.value) == message

    def test_raw_and_zoo_regions_validate(self):
        from repro.baselines.protocol import encoder_from_config

        gray = encoder_from_config("gray", {"width": 32})
        bundle = _good_bundle()
        bundle.regions = [
            _region(0x400000, [(0x400000, 4)]),
            _region(
                0x400010,
                [(0x400010, 3)],
                scheme="gray",
                config=gray.to_config(),
                config_digest=gray.config_digest(),
            ),
        ]
        bundle.validate()

    def test_address_tagged_twice(self):
        self._rejects(
            [
                _region(0x400000, [(0x400000, 4)]),
                _region(0x400008, [(0x400020, 1), (0x400008, 6)]),
            ],
            "regions[1].blocks[1]: address 0x400008 tagged by two regions",
        )

    def test_misaligned_header(self):
        self._rejects(
            [_region(0x400002, [(0x400000, 1)])],
            "regions[0]: header 0x400002 is not word-aligned",
        )

    def test_block_outside_image(self):
        self._rejects(
            [_region(0x400000, [(0x400030, 4)])],
            "regions[0].blocks[0]: block [0x400030, 0x400040) falls "
            "outside the image [0x400000, 0x400038)",
        )

    def test_unknown_scheme(self):
        self._rejects(
            [_region(0x400000, [(0x400000, 1)], scheme="morse")],
            "regions[0]: unknown scheme tag 'morse'",
        )

    def test_config_digest_mismatch(self):
        self._rejects(
            [
                _region(
                    0x400000,
                    [(0x400000, 1)],
                    scheme="gray",
                    config={"width": 32},
                    config_digest="0" * 64,
                )
            ],
            "regions[0]: config digest mismatch for scheme 'gray'",
        )


class TestBuildTables:
    def test_build_tables_validates_first(self):
        bundle = _good_bundle()
        bundle.tt_entries[0]["selectors"][0] = 12
        with pytest.raises(BundleFormatError):
            bundle.build_tables()

    def test_build_tables_round_trips_entries(self):
        bundle = _good_bundle()
        tt, bbit = bundle.build_tables(parity=True)
        assert len(tt) == len(bundle.tt_entries)
        assert tt.parity_enabled and bbit.parity_enabled
        entry = bbit.lookup(bundle.bbit_entries[0]["pc"])
        assert entry is not None
        assert entry.num_instructions == bundle.bbit_entries[0]["num_instructions"]
        # Parity words were written through install(): reads are clean.
        for index in range(len(tt)):
            tt.read(index)

    def test_encoded_pc_region_covers_blocks(self):
        bundle = _good_bundle()
        region = bundle.encoded_pc_region()
        pc = bundle.bbit_entries[0]["pc"]
        n = bundle.bbit_entries[0]["num_instructions"]
        assert region == set(range(pc, pc + 4 * n, 4))
