"""Fault-injection tests: the verification machinery must catch
corrupted tables, images and protocol violations — silence would mean
our "decode verified" claims are vacuous."""

import pytest

from tests.strategies import seeded_words

from repro.core.program_codec import encode_basic_block
from repro.errors import TableIntegrityError
from repro.hw.bbit import BasicBlockIdentificationTable, BBITEntry
from repro.hw.fetch_decoder import FetchDecoder
from repro.hw.tt import TransformationTable, TTEntry


def _setup(words, block_size=5, base=0x400000):
    encoding = encode_basic_block(words, block_size)
    tt = TransformationTable(16)
    bbit = BasicBlockIdentificationTable(16)
    index = tt.allocate(encoding)
    bbit.install(BBITEntry(pc=base, tt_index=index, num_instructions=len(words)))
    image = {base + 4 * i: w for i, w in enumerate(encoding.encoded_words)}
    return encoding, tt, bbit, image


def _decode_all(tt, bbit, image, count, block_size=5, base=0x400000):
    decoder = FetchDecoder(tt, bbit, block_size)
    return [decoder.fetch(base + 4 * i, image[base + 4 * i]) for i in range(count)]


@pytest.fixture()
def words():
    return seeded_words(77, 14)


class TestTableCorruption:
    def test_flipped_selector_detected(self, words):
        encoding, tt, bbit, image = _setup(words)
        # Find an entry/line whose selector actually matters and flip it.
        for entry_index, entry in enumerate(tt.entries):
            for line in range(32):
                selectors = list(entry.selectors)
                original = selectors[line]
                selectors[line] = (original + 1) % 8
                tt.entries[entry_index] = TTEntry(
                    selectors=tuple(selectors), end=entry.end, count=entry.count
                )
                decoded = _decode_all(tt, bbit, image, len(words))
                tt.entries[entry_index] = entry  # restore
                if decoded != words:
                    return  # corruption visible: good
        pytest.fail("no selector flip ever changed the decode output")

    def test_wrong_tt_base_index_detected(self, words):
        encoding, tt, bbit, image = _setup(words)
        bbit.clear()
        bbit.install(
            BBITEntry(pc=0x400000, tt_index=1, num_instructions=len(words))
        )
        # Either the decode output is wrong or the walk runs off the
        # end of the table (a checked TableIntegrityError, no longer a
        # raw IndexError) — both are detectable faults.
        try:
            decoded = _decode_all(tt, bbit, image, len(words))
        except TableIntegrityError:
            return
        assert decoded != words

    def test_wrong_block_length_truncates_decode(self, words):
        encoding, tt, bbit, image = _setup(words)
        bbit.clear()
        bbit.install(
            BBITEntry(pc=0x400000, tt_index=0, num_instructions=4)
        )
        decoded = _decode_all(tt, bbit, image, len(words))
        # After the (wrong) length runs out the decoder deactivates
        # and later encoded words pass through raw -> mismatch.
        assert decoded[:4] == words[:4]
        assert decoded != words


class TestImageCorruption:
    def test_flipped_stored_bit_detected(self, words):
        encoding, tt, bbit, image = _setup(words)
        victim = 0x400000 + 4 * 7
        image[victim] ^= 1 << 13
        decoded = _decode_all(tt, bbit, image, len(words))
        assert decoded != words

    def test_corruption_propagates_within_line(self, words):
        # History-based decode means one flipped stored bit can smear
        # along its bus line until the next anchor — check the blast
        # radius stays within the basic block.
        encoding, tt, bbit, image = _setup(words)
        image[0x400000 + 4 * 5] ^= 1 << 2
        decoded = _decode_all(tt, bbit, image, len(words))
        assert decoded[:5] == words[:5]  # earlier fetches unaffected
        assert decoded[5] != words[5]


def _synthetic_target(
    num_blocks=2, block_len=14, block_size=5, seed=7, parity=True
):
    """A DeploymentTarget built directly from encoded blocks — no
    workload simulation, so per-model sweeps stay fast."""
    from repro.faults.campaign import DeploymentTarget

    from tests.strategies import rng_for

    rng = rng_for("fault-injection-target", seed)
    base = 0x400000
    original = [rng.getrandbits(32)]  # one unencoded word (detour target)
    encoded = list(original)
    tt_entries, bbit_entries = [], []
    block_pcs = []
    pc = base + 4
    tt_index = 0
    for _ in range(num_blocks):
        words = [rng.getrandbits(32) for _ in range(block_len)]
        enc = encode_basic_block(words, block_size)
        for row, (start, seg_len) in zip(enc.selectors(), enc.bounds):
            is_tail = start + seg_len >= block_len
            tt_entries.append(
                {
                    "selectors": list(row),
                    "end": is_tail,
                    "count": (
                        (seg_len if start == 0 else seg_len - 1)
                        if is_tail
                        else 0
                    ),
                }
            )
            tt_index += 1
        bbit_entries.append(
            {
                "pc": pc,
                "tt_index": tt_index - len(enc.bounds),
                "num_instructions": block_len,
            }
        )
        block_pcs.append(pc)
        original.extend(words)
        encoded.extend(enc.encoded_words)
        pc += 4 * block_len
    trace = [base]
    for _ in range(2):  # each block fetched twice
        for start in block_pcs:
            trace.extend(start + 4 * i for i in range(block_len))
            trace.append(base)  # branch back out through the neutral word
    return DeploymentTarget(
        name="synthetic",
        block_size=block_size,
        text_base=base,
        original_words=original,
        encoded_words=encoded,
        tt_entries=tt_entries,
        bbit_entries=bbit_entries,
        trace=trace,
        parity=parity,
    )


class TestPerModelDetectionRates:
    """Every SEC-DED-protected table corruption and protocol violation
    must be corrected, detected (strict) or recovered (recover)
    whenever it manifests — the acceptance bar for the
    hardened decode path.  Single-bit row corruptions now heal
    transparently (``corrected``); only double-bit rows, protocol
    violations and stale tags fall through to detect/recover."""

    TRIALS = 20

    #: Models whose corruption is a single stored bit of one row —
    #: exactly what SEC-DED corrects in place.
    SINGLE_BIT_MODELS = {
        "tt_selector_flip",
        "tt_end_flip",
        "tt_count_corruption",
        "bbit_wrong_tt_index",
    }

    @pytest.fixture(scope="class")
    def target(self):
        return _synthetic_target()

    @pytest.fixture(scope="class")
    def protected_models(self):
        from repro.faults.models import DEFAULT_MODELS

        return [m for m in DEFAULT_MODELS if m.protected]

    def test_protected_models_strict_corrected_or_detected(
        self, target, protected_models
    ):
        from repro.faults.campaign import run_case

        for model in protected_models:
            outcomes = [
                run_case(target, model, f"t:{model.name}:{i}", "strict").outcome
                for i in range(self.TRIALS)
            ]
            assert set(outcomes) <= {
                "detected",
                "corrected",
                "masked",
                "not-applicable",
            }, (model.name, outcomes)
            if set(outcomes) == {"not-applicable"}:
                # Mixed-scheme models have nothing to bite on in this
                # classic deployment; covered by tests/faults.
                assert model.name == "scheme_tag_corruption", model.name
                continue
            handled = outcomes.count("detected") + outcomes.count("corrected")
            assert handled > 0, model.name
            if model.name in self.SINGLE_BIT_MODELS:
                # A single flipped bit never aborts any more: it heals.
                assert outcomes.count("detected") == 0, (model.name, outcomes)
                assert outcomes.count("corrected") > 0, model.name
            if model.name.endswith("double_bit_flip"):
                # Past correction power: must detect, never correct.
                assert outcomes.count("corrected") == 0, (model.name, outcomes)
                assert outcomes.count("detected") > 0, model.name

    def test_protected_models_recover_all_recovered(
        self, target, protected_models
    ):
        from repro.faults.campaign import run_case

        for model in protected_models:
            outcomes = [
                run_case(
                    target, model, f"t:{model.name}:{i}", "recover"
                ).outcome
                for i in range(self.TRIALS)
            ]
            assert set(outcomes) <= {
                "recovered",
                "corrected",
                "masked",
                "not-applicable",
            }, (model.name, outcomes)
            if set(outcomes) == {"not-applicable"}:
                assert model.name == "scheme_tag_corruption", model.name
                continue
            handled = outcomes.count("recovered") + outcomes.count("corrected")
            assert handled > 0, model.name

    def test_image_flips_are_silent_without_ecc(self, target):
        from repro.faults.models import ImageBitFlip
        from repro.faults.campaign import run_case

        outcomes = [
            run_case(target, ImageBitFlip(), f"img:{i}", "strict").outcome
            for i in range(self.TRIALS)
        ]
        # The honest negative result: stored-image upsets have no
        # runtime check to trip, so they corrupt silently (or mask).
        assert set(outcomes) <= {"silently-corrupted", "masked"}
        assert "silently-corrupted" in outcomes

    def test_without_parity_table_corruption_can_be_silent(self):
        from repro.faults.models import TTSelectorFlip
        from repro.faults.campaign import run_case

        target = _synthetic_target(parity=False)
        outcomes = {
            run_case(target, TTSelectorFlip(), f"np:{i}", "strict").outcome
            for i in range(self.TRIALS)
        }
        assert "silently-corrupted" in outcomes  # what parity buys us

    def test_same_seed_same_outcome(self, target):
        from repro.faults.models import DEFAULT_MODELS
        from repro.faults.campaign import run_case

        for model in DEFAULT_MODELS:
            first = run_case(target, model, "fixed-seed", "strict")
            second = run_case(target, model, "fixed-seed", "strict")
            assert first.outcome == second.outcome
            assert first.detail == second.detail


class TestSingleBitUpsetInEveryRow:
    """The soft-error shower SEC-DED is sized for: one seeded-random
    bit flipped in every TT row and every BBIT row of the fir bundle.
    Correct-on-read must heal each row the first time it is read, so
    the whole trace decodes bit-exact with no fault, no recover-mode
    event and no quarantined row."""

    @pytest.fixture(scope="class")
    def target(self):
        from repro.faults.campaign import DeploymentTarget

        return DeploymentTarget.prepare("fir")

    @staticmethod
    def _flip_one_bit_per_row(state, rng):
        from repro.hw import integrity

        for index, entry in enumerate(state.tt.entries):
            data = integrity.tt_row_data(entry.selectors, entry.end, entry.count)
            bit = rng.randrange(integrity.tt_row_bits(entry.width))
            selectors, end, count = integrity.tt_row_fields(
                data ^ (1 << bit), entry.width
            )
            state.tt.entries[index] = TTEntry(
                selectors=selectors, end=end, count=count
            )
        for pc, entry in state.bbit._by_pc.items():
            data = integrity.bbit_row_data(
                entry.pc, entry.tt_index, entry.num_instructions
            )
            bit = rng.randrange(integrity.bbit_row_bits())
            state.bbit._by_pc[pc] = BBITEntry(
                *integrity.bbit_row_fields(data ^ (1 << bit))
            )

    @pytest.mark.parametrize("mode", ["strict", "recover"])
    @pytest.mark.parametrize("seed", range(4))
    def test_every_row_corrected_on_read(self, target, mode, seed):
        import random

        from repro.sim.tracer import FetchTrace

        state = target.materialise()
        self._flip_one_bit_per_row(state, random.Random(f"shower:{seed}"))
        base = target.text_base
        decoder = FetchDecoder(
            state.tt,
            state.bbit,
            target.block_size,
            encoded_region=state.encoded_region,
            mode=mode,
        )
        trace = FetchTrace.from_addresses(state.trace)
        decoded = decoder.decode_trace(
            trace, lambda pc: state.image[(pc - base) >> 2], finalize=True
        )
        assert trace.matches(decoded, target.original_words, base)
        assert not decoder.recovery_events
        assert state.tt.ecc_corrections == len(state.tt.entries)
        assert state.bbit.ecc_corrections == len(state.bbit._by_pc)
        assert not state.tt.quarantined and not state.bbit.quarantined


class TestCorrectOnRead:
    """One flipped bit in one stored row: the checked read returns the
    true row, writes it back in place, and the row then checks clean."""

    BASE = 0x400000

    def _tables(self, num_rows=3):
        tt = TransformationTable(capacity=8, parity=True)
        bbit = BasicBlockIdentificationTable(capacity=8, parity=True)
        for i in range(num_rows):
            end = i == num_rows - 1
            tt.install(
                TTEntry(
                    selectors=tuple((i + j) % 8 for j in range(32)),
                    end=end,
                    count=4 if end else 0,
                )
            )
            bbit.install(
                BBITEntry(pc=self.BASE + 0x40 * i, tt_index=i, num_instructions=6)
            )
        return tt, bbit

    def test_single_bit_tt_upset_corrected_in_place(self):
        tt, bbit = self._tables()
        entry = tt.entries[2]
        tt.entries[2] = TTEntry(
            selectors=entry.selectors, end=entry.end, count=entry.count ^ (1 << 3)
        )
        assert tt.read(2).count == 4
        assert tt.entries[2].count == 4
        assert tt.ecc_corrections == 1 and not tt.quarantined
        # The corrected row reads cleanly afterwards.
        assert tt.check_row(2) == "clean"
        assert tt.read(2) == entry and tt.ecc_corrections == 1

    def test_single_bit_bbit_upset_corrected_in_place(self):
        tt, bbit = self._tables()
        entry = bbit.peek(self.BASE)
        bbit._by_pc[self.BASE] = BBITEntry(
            pc=entry.pc, tt_index=entry.tt_index ^ 1, num_instructions=6
        )
        assert bbit.lookup(self.BASE).tt_index == 0
        assert bbit.peek(self.BASE).tt_index == 0
        assert bbit.ecc_corrections == 1 and not bbit.quarantined
        assert bbit.check_row(self.BASE) == "clean"
        assert bbit.lookup(self.BASE) == entry and bbit.ecc_corrections == 1


class TestRecoverModeDecoder:
    def test_recover_never_raises_and_records_events(self, words):
        encoding, tt, bbit, image = _setup(words)
        region = {0x400000 + 4 * i for i in range(len(words))}
        decoder = FetchDecoder(
            tt, bbit, 5, encoded_region=region, mode="recover"
        )
        # Enter mid-block: strict would raise DecodeFault.
        mid = 0x400000 + 4 * 6
        out = decoder.fetch(mid, image[mid])
        assert out == image[mid]  # passed through raw
        assert decoder.recovery_events
        assert decoder.recovery_events[0]["kind"] == "mid_block_entry"
        assert decoder.passthrough_instructions == 1
        # The rest of the block passes through without further events.
        decoder.fetch(mid + 4, image[mid + 4])
        assert len(decoder.recovery_events) == 1

    def test_recover_tt_integrity_falls_back_to_passthrough(self, words):
        encoding, tt, bbit, image = _setup(words)
        tt.parity_enabled = True
        tt.seal()
        entry = tt.entries[1]
        tt.entries[1] = TTEntry(
            selectors=tuple((s + 1) % 8 for s in entry.selectors),
            end=entry.end,
            count=entry.count,
        )
        decoder = FetchDecoder(tt, bbit, 5, mode="recover")
        decoded = [
            decoder.fetch(0x400000 + 4 * i, image[0x400000 + 4 * i])
            for i in range(len(words))
        ]
        assert any(
            e["kind"] == "tt_integrity" for e in decoder.recovery_events
        )
        # Everything before the corrupted segment decoded correctly.
        assert decoded[:5] == words[:5]
        stats = decoder.stats()
        assert stats["recoveries"] == len(decoder.recovery_events) >= 1

    def test_strict_finalize_detects_truncation(self, words):
        from repro.errors import DecodeFault as StructuredDecodeFault

        encoding, tt, bbit, image = _setup(words)
        decoder = FetchDecoder(tt, bbit, 5)
        for i in range(4):  # stop mid-block
            decoder.fetch(0x400000 + 4 * i, image[0x400000 + 4 * i])
        with pytest.raises(StructuredDecodeFault, match="mid-block"):
            decoder.finalize()

    def test_recover_finalize_records_truncation(self, words):
        encoding, tt, bbit, image = _setup(words)
        decoder = FetchDecoder(tt, bbit, 5, mode="recover")
        for i in range(4):
            decoder.fetch(0x400000 + 4 * i, image[0x400000 + 4 * i])
        decoder.finalize()
        assert decoder.recovery_events[-1]["kind"] == "trace_truncation"


class TestDecoderHardening:
    def test_reset_clears_counters(self, words):
        encoding, tt, bbit, image = _setup(words)
        decoder = FetchDecoder(tt, bbit, 5)
        lookup = lambda pc: image[pc]
        addresses = [0x400000 + 4 * i for i in range(len(words))]
        first = decoder.decode_trace(addresses, lookup)
        decoded_count = decoder.decoded_instructions
        tt_reads = decoder.tt_reads
        second = decoder.decode_trace(addresses, lookup)
        assert first.expand() == second.expand() == words
        # Counters no longer leak across decode_trace calls.
        assert decoder.decoded_instructions == decoded_count
        assert decoder.tt_reads == tt_reads
        assert decoder.passthrough_instructions == 0

    def test_caller_supplied_empty_region_is_kept(self, words):
        encoding, tt, bbit, image = _setup(words)
        region: set[int] = set()
        decoder = FetchDecoder(tt, bbit, 5, encoded_region=region)
        assert decoder.encoded_region is region  # not silently replaced

    def test_block_size_type_checked(self, words):
        encoding, tt, bbit, image = _setup(words)
        with pytest.raises(TypeError, match="block_size"):
            FetchDecoder(tt, bbit, "5")
        with pytest.raises(TypeError, match="block_size"):
            FetchDecoder(tt, bbit, True)

    def test_invalid_mode_rejected(self, words):
        encoding, tt, bbit, image = _setup(words)
        with pytest.raises(ValueError, match="mode"):
            FetchDecoder(tt, bbit, 5, mode="lenient")
        golden = dict(zip(sorted(image), words))
        with pytest.raises(ValueError, match="mode"):
            FetchDecoder(tt, bbit, 5, mode="degraded", golden_lookup=golden.get)

    def test_unknown_mode_rejected(self, words):
        encoding, tt, bbit, image = _setup(words)
        for mode in ("lenient", "Strict", ""):
            with pytest.raises(ValueError, match="'strict' or 'recover'"):
                FetchDecoder(tt, bbit, 5, mode=mode)
        for mode in ("strict", "recover"):
            assert FetchDecoder(tt, bbit, 5, mode=mode).mode == mode

    def test_parity_protected_bbit_detects_corruption(self, words):
        from repro.hw.bbit import BasicBlockIdentificationTable

        encoding, tt, bbit, image = _setup(words)
        protected = BasicBlockIdentificationTable(16, parity=True)
        protected.install(
            BBITEntry(pc=0x400000, tt_index=0, num_instructions=len(words))
        )
        protected._by_pc[0x400000] = BBITEntry(
            pc=0x400000, tt_index=3, num_instructions=len(words)
        )
        with pytest.raises(TableIntegrityError, match="parity"):
            protected.lookup(0x400000)


class TestFlowLevelDetection:
    def test_bundle_detects_tampered_image(self):
        from repro.pipeline.bundle import EncodingBundle
        from repro.pipeline.flow import EncodingFlow
        from repro.sim.cpu import run_program
        from repro.workloads.registry import build_workload

        workload = build_workload("lu", n=6)
        program = workload.assemble()
        cpu, trace = run_program(program)
        result = EncodingFlow(block_size=5).run(program, trace, "lu")
        assert result.decode_verified

        bundle = EncodingBundle.from_flow_result(program, result)
        assert bundle.deploy_and_check(program, trace)
        # Flip one stored bit inside an encoded block: the loader-side
        # decode check must fail.
        victim_index = program.index_of(result.selected_blocks[0]) + 1
        bundle.encoded_words[victim_index] ^= 0x00010000
        assert not bundle.deploy_and_check(program, trace)
