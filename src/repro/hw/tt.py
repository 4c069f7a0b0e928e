"""The Transformation Table (TT) of Figure 5.

One entry per encoded code block (segment).  An entry stores a 3-bit
transformation selector for every bus line, the End (E) bit marking
the final segment of a basic block, and the CT counter giving the
number of instructions decoded under that final segment (Section 7.2:
"a counter corresponding to the size of the last bit sequence ...
decremented with each instruction fetched").

For fast word-level decoding each entry precomputes one 32-bit mask
per transformation selector; a stored word then decodes with eight
bitwise operations instead of 32 bit-by-bit gate evaluations — the
software analogue of the per-line parallel gates.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

from repro.core.program_codec import BlockEncoding
from repro.errors import EncodingError, TableCapacityError, TableIntegrityError
from repro.hw import integrity
from repro.obs import OBS

# Selector indices, fixed by repro.core.transformations.OPTIMAL_SET:
# 0=x 1=~x 2=y 3=~y 4=xor 5=xnor 6=nor 7=nand
_NUM_SELECTORS = 8
_SELECTOR_VALUES = frozenset(range(_NUM_SELECTORS))
_INT_TYPE = frozenset((int,))


def plain_selectors(selectors) -> bool:
    """Whether every selector is an ``int`` (not a bool or subclass)
    in ``0..7``: the bulk check, in C loops.  Types come first because
    ``True`` and ``1.0`` hash like ``1`` and an unhashable selector
    must not reach the set."""
    return _INT_TYPE.issuperset(map(type, selectors)) and (
        _SELECTOR_VALUES.issuperset(selectors)
    )


def _decode_masked(selector: int, stored: int, prev: int, mask: int) -> int:
    if selector == 0:
        return stored & mask
    if selector == 1:
        return ~stored & mask
    if selector == 2:
        return prev & mask
    if selector == 3:
        return ~prev & mask
    if selector == 4:
        return (stored ^ prev) & mask
    if selector == 5:
        return ~(stored ^ prev) & mask
    if selector == 6:
        return ~(stored | prev) & mask
    if selector == 7:
        return ~(stored & prev) & mask
    raise ValueError(f"selector out of range: {selector}")


@dataclass
class TTEntry:
    """One Transformation Table entry (Figure 5a)."""

    selectors: tuple[int, ...]  # 3-bit selector per bus line
    end: bool = False  # E field
    count: int = 0  # CT field (instructions under a final segment)

    def __post_init__(self) -> None:
        if not plain_selectors(self.selectors):
            for selector in self.selectors:
                if not 0 <= selector < _NUM_SELECTORS:
                    raise ValueError(f"selector out of range: {selector}")
                # The decode plan indexes a list with it.
                operator.index(selector)

    @cached_property
    def _plan(self) -> tuple[tuple[tuple[int, int], ...], int]:
        """``(ops, word_mask)`` for :meth:`decode`: one ``(selector,
        line mask)`` per selector some line uses (typically far fewer
        than eight per entry).  Built on the first per-word decode;
        the block decoder reads ``selectors`` and never needs it."""
        masks = [0] * _NUM_SELECTORS
        for line, selector in enumerate(self.selectors):
            masks[selector] |= 1 << line
        ops = tuple(
            (selector, mask) for selector, mask in enumerate(masks) if mask
        )
        return ops, (1 << len(self.selectors)) - 1

    @property
    def width(self) -> int:
        return len(self.selectors)

    def decode(self, stored_word: int, previous_decoded: int) -> int:
        """Restore an original word from the stored word and the
        previously decoded word (the per-line one-bit history)."""
        ops, word_mask = self._plan
        out = 0
        for selector, mask in ops:
            out |= _decode_masked(
                selector, stored_word, previous_decoded, mask
            )
        return out & word_mask

    @classmethod
    def identity(cls, width: int = 32) -> "TTEntry":
        """The all-zero entry: decodes any block unchanged (the
        paper's shared entry for infrequent basic blocks)."""
        return cls(selectors=(0,) * width)


class TransformationTable:
    """A fixed-capacity TT with allocation bookkeeping.

    Entries for one basic block occupy a contiguous index range whose
    final entry has E set (Section 7.2).  The table is reprogrammable:
    :meth:`clear` + :meth:`allocate` model the software reload before
    entering a new application hot spot.

    With ``parity=True`` every row written through :meth:`install` /
    :meth:`write` / :meth:`allocate` carries a SEC-DED check word
    (:mod:`repro.hw.integrity`); each :meth:`read` validates it.  A
    single flipped bit is **corrected in place** (counted in
    :attr:`ecc_corrections` and the ``hw.ecc_corrections`` metric); a
    double-bit error **quarantines** the row and raises
    :class:`~repro.errors.TableIntegrityError`.  Quarantined rows stay
    unreadable until :meth:`repair_row` (the scrubber's golden-bundle
    path) rewrites them.
    """

    def __init__(self, capacity: int = 16, width: int = 32, parity: bool = False):
        if capacity < 1:
            raise ValueError("TT needs at least one entry")
        self.capacity = capacity
        self.width = width
        self.parity_enabled = parity
        self.entries: list[TTEntry] = []
        #: SEC-DED check word per row, written alongside the row
        #: itself; mutating ``entries`` directly (as a fault would)
        #: leaves the stored check word stale, which is exactly what a
        #: read corrects or detects.
        self._parity: list[int] = []
        #: Row indices whose last check found an uncorrectable
        #: (double-bit) error; unreadable until repaired.
        self.quarantined: set[int] = set()
        #: Activity counters, published onto the metrics registry by
        #: whoever drives the table (the fetch decoder, the flow).
        self.reads = 0
        self.writes = 0
        self.parity_checks = 0
        self.parity_failures = 0
        self.ecc_corrections = 0
        self.ecc_double_faults = 0
        self.repairs = 0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def free_entries(self) -> int:
        return self.capacity - len(self.entries)

    def clear(self) -> None:
        self.entries.clear()
        self._parity.clear()
        self.quarantined.clear()

    # ------------------------------------------------------------------
    # Checked access
    # ------------------------------------------------------------------

    def _row_ecc(self, entry: TTEntry) -> int:
        return integrity.tt_row_ecc(entry.selectors, entry.end, entry.count)

    def install(self, entry: TTEntry) -> int:
        """Append one row (with its check word); returns its index."""
        if len(self.entries) >= self.capacity:
            raise TableCapacityError(
                f"TT full ({self.capacity} entries); cannot install another"
            )
        self.entries.append(entry)
        self._parity.append(self._row_ecc(entry))
        self.writes += 1
        return len(self.entries) - 1

    def write(self, index: int, entry: TTEntry) -> None:
        """Program one row at ``index`` (the MMIO peripheral path),
        padding any gap below it with identity rows."""
        if not 0 <= index < self.capacity:
            raise TableCapacityError(
                f"TT index {index} exceeds capacity {self.capacity}"
            )
        while len(self.entries) <= index:
            self.install(TTEntry.identity(self.width))
        self.entries[index] = entry
        self._parity[index] = self._row_ecc(entry)
        self.quarantined.discard(index)

    def check_row(self, index: int) -> str:
        """Validate one populated row against its stored check word
        without raising: corrects a single-bit error in place and
        returns ``"clean"`` / ``"corrected"`` / ``"quarantined"``.
        The scrubber's sweep primitive; :meth:`read` layers the
        raising behaviour on top."""
        if index in self.quarantined:
            return "quarantined"
        entry = self.entries[index]
        if index >= len(self._parity):
            # A row with no check word at all (direct population
            # without seal()): treat as uncorrectable.
            self.quarantined.add(index)
            self.ecc_double_faults += 1
            return "quarantined"
        data = integrity.tt_row_data(entry.selectors, entry.end, entry.count)
        status, fixed_data, fixed_check = integrity.secded_decode(
            data, integrity.tt_row_bits(entry.width), self._parity[index]
        )
        if status == integrity.CLEAN:
            return "clean"
        if status == integrity.CORRECTED:
            selectors, end, count = integrity.tt_row_fields(
                fixed_data, entry.width
            )
            self.entries[index] = TTEntry(
                selectors=selectors, end=end, count=count
            )
            self._parity[index] = fixed_check
            self.ecc_corrections += 1
            if OBS.enabled:
                OBS.registry.counter(
                    "hw.ecc_corrections",
                    "single-bit table-row errors corrected by SEC-DED",
                    table="tt",
                ).inc()
            return "corrected"
        self.quarantined.add(index)
        self.ecc_double_faults += 1
        if OBS.enabled:
            OBS.registry.counter(
                "hw.ecc_double_faults",
                "uncorrectable (double-bit) table-row errors",
                table="tt",
            ).inc()
        return "quarantined"

    def read(self, index: int) -> TTEntry:
        """Checked row read: bounds, then SEC-DED (when enabled).

        A single-bit upset is corrected transparently; an
        uncorrectable or quarantined row raises
        :class:`~repro.errors.TableIntegrityError`."""
        self.reads += 1
        if not 0 <= index < len(self.entries):
            raise TableIntegrityError(
                f"TT read at index {index} outside the populated range "
                f"[0, {len(self.entries)})"
            )
        if self.parity_enabled:
            self.parity_checks += 1
            status = self.check_row(index)
            if status == "quarantined":
                self.parity_failures += 1
                raise TableIntegrityError(
                    f"TT entry {index} failed its SEC-DED check "
                    "(uncorrectable error; row quarantined)"
                )
        return self.entries[index]

    def repair_row(self, index: int, entry: TTEntry) -> None:
        """Rewrite one row from a trusted source (the golden bundle),
        lifting its quarantine."""
        self.write(index, entry)
        self.repairs += 1
        if OBS.enabled:
            OBS.registry.counter(
                "hw.rows_repaired",
                "quarantined table rows rewritten from a golden source",
                table="tt",
            ).inc()

    def seal(self) -> None:
        """Recompute every check word from the current rows (for
        callers that populated ``entries`` directly)."""
        self._parity = [self._row_ecc(entry) for entry in self.entries]
        self.quarantined.clear()

    def allocate(self, encoding: BlockEncoding) -> int:
        """Install a basic block's segment plans; returns the base
        index its first entry landed at."""
        if encoding.width != self.width:
            raise ValueError(
                f"encoding width {encoding.width} != table width {self.width}"
            )
        rows = tt_rows(encoding)
        if len(rows) > self.free_entries:
            raise TableCapacityError(
                f"need {len(rows)} entries, only "
                f"{self.free_entries} free of {self.capacity}"
            )
        base = len(self.entries)
        for row in rows:
            self.install(row)
        return base

    def entry(self, index: int) -> TTEntry:
        return self.read(index)

    def storage_bits(self, ct_bits: int = 4) -> int:
        """Physical SRAM bits: per entry, 3 selector bits per line plus
        the E bit plus the CT field."""
        return self.capacity * (3 * self.width + 1 + ct_bits)


def tt_rows(encoding: BlockEncoding) -> list[TTEntry]:
    """A basic block's TT rows, one per segment, in table order.

    Each row carries the segment's per-line selectors; the tail
    segment's row sets E and counts in CT the instructions decoded
    under it (its non-overlap positions, every position for a
    single-segment block).  Raises :class:`~repro.errors.EncodingError`
    for an encoding the fetch decoder cannot restore: disjoint
    segments, or a transformation outside the optimal 8-set."""
    if not encoding.overlapped:
        raise EncodingError(
            "the TT/BBIT fetch decoder restores overlapped blocks only; "
            "a disjoint encoding has no table programming"
        )
    try:
        selector_rows = encoding.selectors()
    except ValueError as err:
        raise EncodingError(str(err)) from err
    length = len(encoding.original_words)
    rows = []
    for row, (start, seg_len) in zip(selector_rows, encoding.bounds):
        is_tail = start + seg_len >= length
        count = (seg_len if start == 0 else seg_len - 1) if is_tail else 0
        rows.append(TTEntry(selectors=tuple(row), end=is_tail, count=count))
    return rows
