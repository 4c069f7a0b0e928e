"""The Basic Block Identification Table (BBIT) of Figure 5.

One entry per encoded basic block: the PC of its first instruction and
the index of its first Transformation Table entry.  "When an
application loop basic block is complete, a lookup into the BBIT
produces the TT index for the next basic block" (Section 7.2).  The
hardware analogue is a small CAM on the fetch PC; the model keeps a
dict for O(1) lookups and counts them for the power bookkeeping
("a lookup into the BBIT is performed only in the beginning of a
basic block").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TableIntegrityError
from repro.hw import integrity
from repro.obs import OBS


@dataclass(frozen=True)
class BBITEntry:
    """One BBIT row: basic-block start PC -> first TT entry index."""

    pc: int
    tt_index: int
    num_instructions: int  # block length, for sequencing bookkeeping


class BasicBlockIdentificationTable:
    """A fixed-capacity PC-indexed table.

    With ``parity=True`` each installed row carries a SEC-DED check
    word over all its fields (including the CAM tag); a matching
    :meth:`lookup` validates it before handing the row to the decoder.
    A single flipped bit is corrected in place (``ecc_corrections``,
    metric ``hw.ecc_corrections``); a double-bit error quarantines the
    row and raises :class:`~repro.errors.TableIntegrityError` on every
    probe of it.

    One subtlety of protecting the CAM tag: if correction changes the
    *pc* field itself, the row is keyed under a corrupted tag.  The
    table moves the row back under its true tag and reports the probe
    as a miss — exactly what the CAM would have done, since a flipped
    tag no longer matches the probe line.
    """

    def __init__(self, capacity: int = 16, parity: bool = False):
        if capacity < 1:
            raise ValueError("BBIT needs at least one entry")
        self.capacity = capacity
        self.parity_enabled = parity
        self._by_pc: dict[int, BBITEntry] = {}
        #: SEC-DED check word per row, keyed like the row itself;
        #: corrupting a row in place leaves this stale — which is the
        #: point.
        self._parity: dict[int, int] = {}
        #: Tags whose last check found an uncorrectable (double-bit)
        #: error; unreadable until the table is cleared or resealed.
        self.quarantined: set[int] = set()
        self.lookups = 0
        self.hits = 0
        #: Integrity activity, published onto the metrics registry by
        #: the fetch decoder alongside the lookup counters.
        self.parity_checks = 0
        self.parity_failures = 0
        self.ecc_corrections = 0
        self.ecc_double_faults = 0

    def __len__(self) -> int:
        return len(self._by_pc)

    def clear(self) -> None:
        self._by_pc.clear()
        self._parity.clear()
        self.quarantined.clear()
        self.lookups = 0
        self.hits = 0
        self.parity_checks = 0
        self.parity_failures = 0
        self.ecc_corrections = 0
        self.ecc_double_faults = 0

    def _row_ecc(self, entry: BBITEntry) -> int:
        return integrity.bbit_row_ecc(
            entry.pc, entry.tt_index, entry.num_instructions
        )

    def install(self, entry: BBITEntry) -> None:
        if entry.pc in self._by_pc:
            raise ValueError(f"duplicate BBIT entry for {entry.pc:#010x}")
        if len(self._by_pc) >= self.capacity:
            raise ValueError(
                f"BBIT full ({self.capacity} entries); cannot add "
                f"{entry.pc:#010x}"
            )
        self._by_pc[entry.pc] = entry
        self._parity[entry.pc] = self._row_ecc(entry)

    def seal(self) -> None:
        """Recompute every check word from the current rows (for
        callers that populated ``_by_pc`` directly)."""
        self._parity = {pc: self._row_ecc(e) for pc, e in self._by_pc.items()}
        self.quarantined.clear()

    def check_row(self, pc: int) -> str:
        """Validate the row stored under ``pc`` without raising:
        corrects a single-bit error in place and returns ``"clean"`` /
        ``"corrected"`` / ``"quarantined"`` / ``"missing"``.
        :meth:`lookup` layers the raising behaviour on top."""
        if pc in self.quarantined:
            return "quarantined"
        entry = self._by_pc.get(pc)
        if entry is None:
            return "missing"
        stored = self._parity.get(pc)
        if stored is None:
            # A row with no check word at all (direct population
            # without seal()): treat as uncorrectable.
            self.quarantined.add(pc)
            self.ecc_double_faults += 1
            return "quarantined"
        data = integrity.bbit_row_data(
            entry.pc, entry.tt_index, entry.num_instructions
        )
        status, fixed_data, fixed_check = integrity.secded_decode(
            data, integrity.bbit_row_bits(), stored
        )
        if status == integrity.CLEAN:
            return "clean"
        if status == integrity.CORRECTED:
            true_pc, tt_index, num_instructions = integrity.bbit_row_fields(
                fixed_data
            )
            fixed = BBITEntry(
                pc=true_pc,
                tt_index=tt_index,
                num_instructions=num_instructions,
            )
            if true_pc != pc:
                # The corrupted bit was in the CAM tag: re-key the row
                # under its true tag (unless that slot is occupied).
                del self._by_pc[pc]
                del self._parity[pc]
                if true_pc not in self._by_pc:
                    self._by_pc[true_pc] = fixed
                    self._parity[true_pc] = fixed_check
            else:
                self._by_pc[pc] = fixed
                self._parity[pc] = fixed_check
            self.ecc_corrections += 1
            if OBS.enabled:
                OBS.registry.counter(
                    "hw.ecc_corrections",
                    "single-bit table-row errors corrected by SEC-DED",
                    table="bbit",
                ).inc()
            return "corrected"
        self.quarantined.add(pc)
        self.ecc_double_faults += 1
        if OBS.enabled:
            OBS.registry.counter(
                "hw.ecc_double_faults",
                "uncorrectable (double-bit) table-row errors",
                table="bbit",
            ).inc()
        return "quarantined"

    def lookup(self, pc: int) -> BBITEntry | None:
        """CAM match on a fetch PC; counts every probe.  Validates the
        matched row's SEC-DED word when enabled."""
        self.lookups += 1
        if pc not in self._by_pc and pc not in self.quarantined:
            return None
        if self.parity_enabled:
            self.parity_checks += 1
            status = self.check_row(pc)
            if status == "quarantined":
                self.parity_failures += 1
                raise TableIntegrityError(
                    f"BBIT entry for {pc:#010x} failed its SEC-DED "
                    "parity check (uncorrectable error; row quarantined)"
                )
            if status == "missing":
                # check_row re-keyed a tag-corrupted row away from this
                # probe line; a real CAM would simply miss.
                return None
        entry = self._by_pc.get(pc)
        if entry is None:
            return None
        self.hits += 1
        return entry

    def peek(self, pc: int) -> BBITEntry | None:
        """Lookup without statistics (for assertions in tests)."""
        return self._by_pc.get(pc)

    def storage_bits(self, pc_bits: int = 30, tt_index_bits: int = 4) -> int:
        """Physical bits: tag (word-aligned PC) + TT index per entry."""
        return self.capacity * (pc_bits + tt_index_bits)
