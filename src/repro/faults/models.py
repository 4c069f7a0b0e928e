"""Composable fault injectors for the decode/deploy path.

Each model corrupts one aspect of a freshly materialised deployment —
the TT, the BBIT, the encoded image, or the fetch stream itself — the
way a single-event upset or a loader bug would: *without* updating the
parity words the legitimate write path maintains.  Injection is
deterministic under a seed: the same :class:`random.Random` produces
the same corruption on the same target.

Taxonomy (see ``docs/robustness.md``):

========================  ==================================================
model                     corruption
========================  ==================================================
``tt_selector_flip``      one bit of one 3-bit selector in one TT row
``tt_end_flip``           the E bit of one TT row
``tt_count_corruption``   the CT field of one TT row
``tt_double_bit_flip``    two distinct stored bits of one TT row
``bbit_wrong_tt_index``   a BBIT row points at the wrong TT base index
``bbit_wrong_length``     a BBIT row's ``num_instructions`` is off
``bbit_stale_pc``         a BBIT row's CAM tag names a stale PC
``bbit_double_bit_flip``  two distinct non-tag bits of one BBIT row
``image_bit_flip``        one stored bit of one encoded word
``image_3bit_flip``       three stored bits of one encoded word
``mid_block_entry``       the fetch stream jumps into an encoded block
``early_exit_reenter``    exit an encoded block early, re-enter mid-block
``trace_truncation``      the fetch stream ends while a block is active
``scheme_tag_corruption`` a mixed-scheme region's tag names no backend
========================  ==================================================

Models whose corruption the hardened path *guarantees* to detect or
recover from (SEC-DED-protected table rows, protocol checks) carry
``protected = True``; encoded-image flips do not — the image is digest
-checked at load time but has no per-word runtime protection, exactly
like instruction SRAM without ECC.

With SEC-DED rows (PR 4) the single-bit table models
(``tt_selector_flip``, ``tt_end_flip``, ``tt_count_corruption``,
``bbit_wrong_tt_index``) are now *corrected* transparently rather than
detected; the ``*_double_bit_flip`` models exercise the uncorrectable
path (quarantine → detect / recover).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.hw import integrity
from repro.hw.bbit import BasicBlockIdentificationTable, BBITEntry
from repro.hw.tt import TTEntry, TransformationTable


@dataclass
class RunState:
    """The mutable deployment one fault-injection trial runs against:
    freshly built tables, a private copy of the stored image and the
    fetch trace.  Injectors mutate this state in place."""

    tt: TransformationTable
    bbit: BasicBlockIdentificationTable
    image: list[int]
    trace: list[int]
    encoded_region: set[int]
    text_base: int
    #: Mixed-scheme bundle state (empty for classic deployments):
    #: ``pc -> scheme tag``, ``pc -> (tag, decode_word | None)`` as
    #: the loader armed it, and the raw per-region metadata the bundle
    #: shipped (injector targets).
    region_schemes: dict = field(default_factory=dict)
    region_word_decoders: dict = field(default_factory=dict)
    regions: list = field(default_factory=list)

    def word_index(self, pc: int) -> int:
        return (pc - self.text_base) >> 2

    def blocks(self) -> list[BBITEntry]:
        """Installed BBIT rows, in PC order (injector targets)."""
        return sorted(self.bbit._by_pc.values(), key=lambda e: e.pc)

    def neutral_pc(self) -> int | None:
        """Some fetchable address *outside* every encoded block (used
        by protocol injectors to force a non-sequential exit)."""
        for index in range(len(self.image)):
            pc = self.text_base + 4 * index
            if pc not in self.encoded_region:
                return pc
        return None


@dataclass(frozen=True)
class InjectionRecord:
    """What one injector actually did (goes into the JSON report)."""

    model: str
    applicable: bool
    detail: dict = field(default_factory=dict)


class FaultModel:
    """Base class: a named, seeded corruption of a :class:`RunState`."""

    name = "abstract"
    #: True when the hardened decode path guarantees detection or
    #: recovery once the corruption manifests during the trace.
    protected = True

    def inject(self, state: RunState, rng: random.Random) -> InjectionRecord:
        raise NotImplementedError

    def _done(self, **detail) -> InjectionRecord:
        return InjectionRecord(self.name, True, detail)

    def _skip(self, reason: str) -> InjectionRecord:
        return InjectionRecord(self.name, False, {"reason": reason})


# ----------------------------------------------------------------------
# Transformation Table corruptions
# ----------------------------------------------------------------------


class _TTRowFault(FaultModel):
    """Helper: pick a TT row and replace it, leaving parity stale."""

    def _pick_row(self, state: RunState, rng: random.Random):
        if not state.tt.entries:
            return None, None
        index = rng.randrange(len(state.tt.entries))
        return index, state.tt.entries[index]

    @staticmethod
    def _overwrite(state: RunState, index: int, entry: TTEntry) -> None:
        # Deliberately bypasses TransformationTable.write(): an SEU
        # flips the stored bits without refreshing the parity word.
        state.tt.entries[index] = entry


class TTSelectorFlip(_TTRowFault):
    name = "tt_selector_flip"

    def inject(self, state, rng):
        index, entry = self._pick_row(state, rng)
        if entry is None:
            return self._skip("TT is empty")
        line = rng.randrange(entry.width)
        bit = rng.randrange(3)
        selectors = list(entry.selectors)
        selectors[line] ^= 1 << bit
        self._overwrite(
            state,
            index,
            TTEntry(
                selectors=tuple(selectors), end=entry.end, count=entry.count
            ),
        )
        return self._done(tt_index=index, line=line, selector_bit=bit)


class TTEndFlip(_TTRowFault):
    name = "tt_end_flip"

    def inject(self, state, rng):
        index, entry = self._pick_row(state, rng)
        if entry is None:
            return self._skip("TT is empty")
        self._overwrite(
            state,
            index,
            TTEntry(
                selectors=entry.selectors, end=not entry.end, count=entry.count
            ),
        )
        return self._done(tt_index=index, end=not entry.end)


class TTCountCorruption(_TTRowFault):
    name = "tt_count_corruption"

    def inject(self, state, rng):
        index, entry = self._pick_row(state, rng)
        if entry is None:
            return self._skip("TT is empty")
        corrupted = entry.count ^ (1 << rng.randrange(4))  # CT is 4 bits
        self._overwrite(
            state,
            index,
            TTEntry(
                selectors=entry.selectors, end=entry.end, count=corrupted
            ),
        )
        return self._done(tt_index=index, count=corrupted, was=entry.count)


class TTDoubleBitFlip(_TTRowFault):
    """Two distinct stored bits of one TT row flip — past SEC-DED's
    correction power, so the row must be quarantined (detected or
    recovered; never served)."""

    name = "tt_double_bit_flip"

    def inject(self, state, rng):
        index, entry = self._pick_row(state, rng)
        if entry is None:
            return self._skip("TT is empty")
        row_bits = integrity.tt_row_bits(entry.width)
        positions = rng.sample(range(row_bits), 2)
        data = integrity.tt_row_data(entry.selectors, entry.end, entry.count)
        for position in positions:
            data ^= 1 << position
        selectors, end, count = integrity.tt_row_fields(data, entry.width)
        self._overwrite(
            state,
            index,
            TTEntry(selectors=selectors, end=end, count=count),
        )
        return self._done(tt_index=index, bits=sorted(positions))


# ----------------------------------------------------------------------
# BBIT corruptions
# ----------------------------------------------------------------------


class _BBITRowFault(FaultModel):
    @staticmethod
    def _overwrite(state: RunState, pc: int, entry: BBITEntry) -> None:
        # Bypasses install(): the stored parity word goes stale.
        state.bbit._by_pc[pc] = entry

    def _pick_row(self, state: RunState, rng: random.Random):
        blocks = state.blocks()
        if not blocks:
            return None
        return rng.choice(blocks)


class BBITWrongTTIndex(_BBITRowFault):
    name = "bbit_wrong_tt_index"

    def inject(self, state, rng):
        entry = self._pick_row(state, rng)
        if entry is None:
            return self._skip("BBIT is empty")
        corrupted = entry.tt_index ^ (1 << rng.randrange(4))
        self._overwrite(
            state,
            entry.pc,
            BBITEntry(
                pc=entry.pc,
                tt_index=corrupted,
                num_instructions=entry.num_instructions,
            ),
        )
        return self._done(pc=entry.pc, tt_index=corrupted, was=entry.tt_index)


class BBITWrongLength(_BBITRowFault):
    name = "bbit_wrong_length"

    def inject(self, state, rng):
        entry = self._pick_row(state, rng)
        if entry is None:
            return self._skip("BBIT is empty")
        corrupted = max(1, entry.num_instructions ^ (1 << rng.randrange(4)))
        if corrupted == entry.num_instructions:
            corrupted += 1
        self._overwrite(
            state,
            entry.pc,
            BBITEntry(
                pc=entry.pc,
                tt_index=entry.tt_index,
                num_instructions=corrupted,
            ),
        )
        return self._done(
            pc=entry.pc,
            num_instructions=corrupted,
            was=entry.num_instructions,
        )


class BBITStalePC(_BBITRowFault):
    name = "bbit_stale_pc"

    def inject(self, state, rng):
        entry = self._pick_row(state, rng)
        if entry is None:
            return self._skip("BBIT is empty")
        stale = entry.pc + 4 * rng.randrange(1, 4)
        # The CAM tag flips: the row now matches a stale PC.  The
        # parity word travels with the row (it is stored in the row),
        # but was computed over the original tag.
        del state.bbit._by_pc[entry.pc]
        state.bbit._by_pc[stale] = BBITEntry(
            pc=stale,
            tt_index=entry.tt_index,
            num_instructions=entry.num_instructions,
        )
        if entry.pc in state.bbit._parity:
            state.bbit._parity[stale] = state.bbit._parity.pop(entry.pc)
        return self._done(pc=stale, was=entry.pc)


class BBITDoubleBitFlip(_BBITRowFault):
    """Two distinct stored bits of one BBIT row flip, both outside the
    CAM tag (a double-flipped tag simply never matches the probe line,
    i.e. it degenerates to a miss rather than exercising the code)."""

    name = "bbit_double_bit_flip"

    def inject(self, state, rng):
        entry = self._pick_row(state, rng)
        if entry is None:
            return self._skip("BBIT is empty")
        positions = rng.sample(
            range(
                integrity.BBIT_PC_BITS,
                integrity.bbit_row_bits(),
            ),
            2,
        )
        data = integrity.bbit_row_data(
            entry.pc, entry.tt_index, entry.num_instructions
        )
        for position in positions:
            data ^= 1 << position
        pc, tt_index, num_instructions = integrity.bbit_row_fields(data)
        self._overwrite(
            state,
            entry.pc,
            BBITEntry(
                pc=pc, tt_index=tt_index, num_instructions=num_instructions
            ),
        )
        return self._done(pc=entry.pc, bits=sorted(positions))


# ----------------------------------------------------------------------
# Encoded-image corruptions
# ----------------------------------------------------------------------


class ImageBitFlip(FaultModel):
    """Flip ``bits`` distinct stored bits of one encoded word.  Not
    ``protected``: the image is digest-checked at bundle load, but a
    post-load upset has no per-word runtime check to trip."""

    protected = False

    def __init__(self, bits: int = 1):
        if bits < 1:
            raise ValueError("need at least one bit to flip")
        self.bits = bits
        self.name = (
            "image_bit_flip" if bits == 1 else f"image_{bits}bit_flip"
        )

    def inject(self, state, rng):
        candidates = sorted(state.encoded_region)
        if not candidates:
            return self._skip("no encoded words in the image")
        pc = rng.choice(candidates)
        lines = rng.sample(range(32), self.bits)
        mask = 0
        for line in lines:
            mask |= 1 << line
        state.image[state.word_index(pc)] ^= mask
        return self._done(pc=pc, mask=mask, lines=sorted(lines))


# ----------------------------------------------------------------------
# Fetch-protocol violations
# ----------------------------------------------------------------------


class _ProtocolFault(FaultModel):
    @staticmethod
    def _pick_block(state, rng, min_instructions=3):
        blocks = [
            e
            for e in state.blocks()
            if e.num_instructions >= min_instructions
        ]
        return rng.choice(blocks) if blocks else None


class MidBlockEntry(_ProtocolFault):
    """A (mis-predicted/corrupted) branch lands in the middle of an
    encoded block: the appended fetches enter at instruction ``j > 0``
    and run to the block's end."""

    name = "mid_block_entry"

    def inject(self, state, rng):
        entry = self._pick_block(state, rng)
        if entry is None:
            return self._skip("no encoded block with >= 3 instructions")
        neutral = state.neutral_pc()
        if neutral is None:
            return self._skip("image has no unencoded word to detour through")
        j = rng.randrange(1, entry.num_instructions)
        mid_pc = entry.pc + 4 * j
        tail = [
            entry.pc + 4 * i for i in range(j, entry.num_instructions)
        ]
        state.trace.extend([neutral] + tail)
        return self._done(pc=mid_pc, block=entry.pc, offset=j)


class EarlyExitReenter(_ProtocolFault):
    """The fetch stream leaves an encoded block early (non-sequential
    fetch) and then resumes exactly where it left off — mid-block,
    with the decoder's history long gone."""

    name = "early_exit_reenter"

    def inject(self, state, rng):
        entry = self._pick_block(state, rng)
        if entry is None:
            return self._skip("no encoded block with >= 3 instructions")
        neutral = state.neutral_pc()
        if neutral is None:
            return self._skip("image has no unencoded word to detour through")
        try:
            start = state.trace.index(entry.pc)
        except ValueError:
            return self._skip("chosen block never entered by the trace")
        j = rng.randrange(1, entry.num_instructions)
        state.trace[start + j : start + j] = [neutral]
        return self._done(block=entry.pc, offset=j, detour=neutral)


class TraceTruncation(_ProtocolFault):
    """The fetch stream ends while a block is still being decoded
    (e.g. a watchdog reset mid-loop): detected by the decoder's
    end-of-stream check."""

    name = "trace_truncation"

    def inject(self, state, rng):
        entry = self._pick_block(state, rng, min_instructions=2)
        if entry is None:
            return self._skip("no encoded block with >= 2 instructions")
        try:
            start = state.trace.index(entry.pc)
        except ValueError:
            return self._skip("chosen block never entered by the trace")
        j = rng.randrange(1, entry.num_instructions)
        del state.trace[start + j :]
        return self._done(block=entry.pc, kept=j)


# ----------------------------------------------------------------------
# Mixed-scheme bundle corruptions
# ----------------------------------------------------------------------


class SchemeTagCorruption(FaultModel):
    """One mixed-scheme region's per-region scheme tag is rewritten to
    a name no backend registered — a loader bug or a metadata upset.
    Every fetch into the region then carries an unhonourable tag:
    strict mode raises :class:`~repro.errors.SchemeTagError`, recover
    mode serves the region from the golden bundle.  Not
    applicable to classic single-scheme deployments."""

    name = "scheme_tag_corruption"
    protected = True

    #: Deliberately not in any encoder registry, and not ``ttbbit`` or
    #: ``raw`` either — the decoder must treat it as a fault.
    BOGUS_TAG = "zz-corrupted"

    def inject(self, state, rng):
        if not state.regions or not state.region_schemes:
            return self._skip("deployment has no mixed-scheme regions")
        region = rng.choice(state.regions)
        rewritten = []
        for block in region["blocks"]:
            pc = int(block["pc"])
            for i in range(int(block["num_instructions"])):
                addr = pc + 4 * i
                if addr in state.region_schemes:
                    state.region_schemes[addr] = self.BOGUS_TAG
                    rewritten.append(addr)
        if not rewritten:
            return self._skip("chosen region tags no addresses")
        return self._done(
            scheme=str(region["scheme"]),
            tag=self.BOGUS_TAG,
            addresses=len(rewritten),
            first_pc=min(rewritten),
        )


#: The standard campaign sweep, in report order.
DEFAULT_MODELS: tuple[FaultModel, ...] = (
    TTSelectorFlip(),
    TTEndFlip(),
    TTCountCorruption(),
    TTDoubleBitFlip(),
    BBITWrongTTIndex(),
    BBITWrongLength(),
    BBITStalePC(),
    BBITDoubleBitFlip(),
    ImageBitFlip(bits=1),
    ImageBitFlip(bits=3),
    MidBlockEntry(),
    EarlyExitReenter(),
    TraceTruncation(),
    SchemeTagCorruption(),
)

MODELS_BY_NAME = {model.name: model for model in DEFAULT_MODELS}
