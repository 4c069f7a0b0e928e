"""The Section 7.1 table-programming peripheral.

The paper offers two ways to get the transformation information into
the fetch hardware: load it with the program image, or have it
"transferred by software: the tables containing the power
transformation information can be accessed as a memory of a special
peripheral device ... written to this memory by a set of instructions
inserted within the application code and executed just prior to
entering the loop under consideration."

This module implements that peripheral as an MMIO window.  Register
map (word offsets from the window base):

======  =============  ==================================================
offset  register       effect on write
======  =============  ==================================================
0x00    ``TT_INDEX``   select the TT entry being staged
0x04    ``TT_SEL0``    selector bits for bus lines 0..9   (3 bits each)
0x08    ``TT_SEL1``    selector bits for bus lines 10..19
0x0C    ``TT_SEL2``    selector bits for bus lines 20..31 (packed 3b)
0x10    ``TT_FLAGS``   bit0 = E, bits 8..15 = CT
0x14    ``TT_COMMIT``  commit the staged entry at ``TT_INDEX``
0x18    ``BBIT_PC``    basic-block start PC being staged
0x1C    ``BBIT_META``  bits 0..7 = TT base index, 8..23 = #instructions
0x20    ``BBIT_COMMIT`` commit the staged BBIT entry
0x24    ``CONTROL``    write 1 to clear both tables
======  =============  ==================================================

Selectors pack 10 bus lines per register at 3 bits each: SEL0 carries
lines 0..9, SEL1 lines 10..19, SEL2 lines 20..29, and the remaining
two selectors (lines 30..31) ride in ``TT_FLAGS`` bits 16..21.
:func:`programming_words` hides the packing; software (and the
generated loader code in ``examples/software_reload.py``) treats it as
a black box.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.program_codec import BlockEncoding
from repro.hw.bbit import BasicBlockIdentificationTable, BBITEntry
from repro.hw.tt import TransformationTable, TTEntry, tt_rows
from repro.sim.memory import MmioRegion

REG_TT_INDEX = 0x00
REG_TT_SEL0 = 0x04
REG_TT_SEL1 = 0x08
REG_TT_SEL2 = 0x0C
REG_TT_FLAGS = 0x10
REG_TT_COMMIT = 0x14
REG_BBIT_PC = 0x18
REG_BBIT_META = 0x1C
REG_BBIT_COMMIT = 0x20
REG_CONTROL = 0x24

WINDOW_SIZE = 0x28

#: Conventional base address for the peripheral window (unused RAM
#: region well away from text/data/stack).
DEFAULT_BASE = 0x90000000


def _pack_selectors(selectors: list[int]) -> tuple[int, int, int, int]:
    """Pack 32 3-bit selectors into (SEL0, SEL1, SEL2, extra).

    SEL0: lines 0..9, SEL1: lines 10..19, SEL2: lines 20..29;
    ``extra`` carries lines 30..31 (placed in TT_FLAGS bits 16..21).
    """
    if len(selectors) != 32:
        raise ValueError(f"expected 32 selectors, got {len(selectors)}")
    words = []
    for group in range(3):
        word = 0
        for i in range(10):
            word |= (selectors[10 * group + i] & 7) << (3 * i)
        words.append(word)
    extra = (selectors[30] & 7) | ((selectors[31] & 7) << 3)
    return words[0], words[1], words[2], extra


def _unpack_selectors(sel0: int, sel1: int, sel2: int, extra: int) -> list[int]:
    selectors = []
    for word in (sel0, sel1, sel2):
        for i in range(10):
            selectors.append((word >> (3 * i)) & 7)
    selectors.append(extra & 7)
    selectors.append((extra >> 3) & 7)
    return selectors


@dataclass
class _Staging:
    tt_index: int = 0
    sel: tuple[int, int, int] = (0, 0, 0)
    flags: int = 0
    bbit_pc: int = 0
    bbit_meta: int = 0


class EncodingLoaderPeripheral:
    """MMIO front-end that programs a TT and a BBIT.

    Attach to a simulator memory with :meth:`region` + ``add_mmio``;
    the application then programs its own decode tables with plain
    ``sw`` instructions (the paper's software-reload alternative).
    """

    def __init__(
        self,
        tt: TransformationTable | None = None,
        bbit: BasicBlockIdentificationTable | None = None,
        base: int = DEFAULT_BASE,
    ):
        self.tt = tt if tt is not None else TransformationTable(16)
        self.bbit = bbit if bbit is not None else BasicBlockIdentificationTable(16)
        self.base = base
        self._staging = _Staging()
        self._entries: dict[int, TTEntry] = {}
        self.commits = 0

    # ------------------------------------------------------------------
    # MMIO handlers
    # ------------------------------------------------------------------

    def region(self) -> MmioRegion:
        return MmioRegion(
            self.base, WINDOW_SIZE, read_u32=self._read, write_u32=self._write
        )

    def _read(self, offset: int) -> int:
        if offset == REG_TT_INDEX:
            return self._staging.tt_index
        if offset == REG_CONTROL:
            return len(self.tt.entries) | (len(self.bbit) << 8)
        return 0

    def _write(self, offset: int, value: int) -> None:
        staging = self._staging
        if offset == REG_TT_INDEX:
            staging.tt_index = value & 0xFF
        elif offset == REG_TT_SEL0:
            staging.sel = (value, staging.sel[1], staging.sel[2])
        elif offset == REG_TT_SEL1:
            staging.sel = (staging.sel[0], value, staging.sel[2])
        elif offset == REG_TT_SEL2:
            staging.sel = (staging.sel[0], staging.sel[1], value)
        elif offset == REG_TT_FLAGS:
            staging.flags = value
        elif offset == REG_TT_COMMIT:
            self._commit_tt_entry()
        elif offset == REG_BBIT_PC:
            staging.bbit_pc = value
        elif offset == REG_BBIT_META:
            staging.bbit_meta = value
        elif offset == REG_BBIT_COMMIT:
            self.bbit.install(
                BBITEntry(
                    pc=staging.bbit_pc,
                    tt_index=staging.bbit_meta & 0xFF,
                    num_instructions=(staging.bbit_meta >> 8) & 0xFFFF,
                )
            )
            self.commits += 1
        elif offset == REG_CONTROL:
            if value & 1:
                self.tt.clear()
                self.bbit.clear()
                self._entries.clear()

    def _commit_tt_entry(self) -> None:
        staging = self._staging
        extra = (staging.flags >> 16) & 0x3F
        selectors = _unpack_selectors(*staging.sel, extra)
        entry = TTEntry(
            selectors=tuple(selectors),
            end=bool(staging.flags & 1),
            count=(staging.flags >> 8) & 0xFF,
        )
        # write() pads any gap with identity rows and keeps the row's
        # parity word in sync (TableCapacityError subclasses ValueError,
        # so software sees the same failure mode as before).
        self.tt.write(staging.tt_index, entry)
        self.commits += 1


def programming_words(
    encodings: list[tuple[int, BlockEncoding]],
    tt_base_index: int = 0,
) -> list[tuple[int, int]]:
    """The (register offset, value) store sequence that programs the
    peripheral for a set of basic blocks.

    ``encodings`` is a list of (block start PC, encoding).  This is
    what a compiler would bake into the application prologue — see
    ``examples/software_reload.py`` for the generated assembly.
    """
    stores: list[tuple[int, int]] = []
    tt_index = tt_base_index
    for pc, encoding in encodings:
        base_for_block = tt_index
        for row in tt_rows(encoding):
            sel0, sel1, sel2, extra = _pack_selectors(list(row.selectors))
            flags = int(row.end) | (row.count << 8) | (extra << 16)
            stores += [
                (REG_TT_INDEX, tt_index),
                (REG_TT_SEL0, sel0),
                (REG_TT_SEL1, sel1),
                (REG_TT_SEL2, sel2),
                (REG_TT_FLAGS, flags),
                (REG_TT_COMMIT, 1),
            ]
            tt_index += 1
        stores += [
            (REG_BBIT_PC, pc),
            (REG_BBIT_META, base_for_block | (len(encoding.original_words) << 8)),
            (REG_BBIT_COMMIT, 1),
        ]
    return stores
