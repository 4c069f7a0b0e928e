"""The fetch-path decode engine (Section 7.2, Figure 5).

Walks a fetch stream exactly as the hardware would:

* On every fetch the PC is matched against the BBIT.  A hit activates
  decoding for that basic block: the entry supplies the base TT index,
  a segment-position counter resets, and the per-line one-bit history
  registers load from the first (pass-through) instruction.
* While active, each fetched word is restored by applying the current
  TT entry's per-line transformations to the stored word and the
  previous *decoded* word; the segment counter advances to the next TT
  entry every ``k - 1`` instructions (one-bit overlap).
* The entry with the E bit set finishes after CT decoded instructions;
  the engine then deactivates until the next BBIT hit.
* A non-sequential fetch (taken branch out of the block) also
  deactivates the engine; the new PC immediately re-probes the BBIT.

Fetches that miss the BBIT pass through unchanged — the identity
treatment for unencoded code.

Fault handling
--------------

The engine runs in one of two modes:

``strict`` (default)
    Any detected fault — a fetch-protocol violation (entering an
    encoded block mid-way, a trace ending mid-block under
    :meth:`FetchDecoder.finalize`) or a table integrity failure
    (TT/BBIT parity mismatch, TT index outside the populated range) —
    raises the matching :class:`~repro.errors.ReproError` subclass.

``recover``
    The engine never raises on a corrupted block.  It records the
    event in :attr:`FetchDecoder.recovery_events`, abandons decoding,
    and falls back to pass-through fetches for the remainder of the
    run of sequential fetches (the rest of the block); the next BBIT
    hit or non-sequential fetch re-arms normal operation.  Decoded
    output for the abandoned block is, of course, the raw stored
    words — recovery trades silent mis-decoding for an *explicit*
    pass-through region that software can act on.  A fetch under a
    region scheme tag that is not the one armed there has no
    pass-through story (the region's stored words may be recoded), so
    when a golden (pre-encoding) image lookup is attached recover
    mode serves that fetch from it (``decoder.golden_served``).

Note the single-bit story never reaches either mode: the
tables' SEC-DED rows correct one flipped bit transparently inside
:meth:`TransformationTable.read` / BBIT ``lookup``, so only
uncorrectable (double-bit or worse) corruption surfaces here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from operator import mul
from typing import Iterable

from repro.core import bitplane
from repro.core.stream_codec import _segment_bounds_cached
from repro.core.transformations import by_selector
from repro.errors import DecodeFault, SchemeTagError, TableIntegrityError
from repro.hw.bbit import BasicBlockIdentificationTable
from repro.hw.tt import TransformationTable
from repro.obs import OBS
from repro.sim.tracer import DecodedTrace, FetchTrace

__all__ = ["FetchDecoder", "DecodeFault", "SchemeTagError", "TableIntegrityError"]

#: region scheme tag meaning "the paper's TT/BBIT transformation" —
#: such regions flow through the normal table-driven decode path.
SCHEME_TTBBIT = "ttbbit"

#: Hardware selector code -> tau truth table, for rebuilding a TT
#: row's per-line decode planes on the bulk bitplane path.
_SELECTOR_TRUTH_TABLES = tuple(
    by_selector(selector).func.truth_table for selector in range(8)
)

#: Retained recover-mode events; older events beyond the cap roll off
#: (counted in ``recovery_events_dropped``) so a long recover-mode run
#: cannot grow without bound.
DEFAULT_RECOVERY_EVENT_CAPACITY = 1024


@dataclass
class _ActiveBlock:
    base_tt_index: int
    start_pc: int
    instructions_total: int
    index: int  # instruction index within the basic block


class FetchDecoder:
    """Behavioural model of the decode hardware on the fetch path."""

    def __init__(
        self,
        tt: TransformationTable,
        bbit: BasicBlockIdentificationTable,
        block_size: int,
        encoded_region: set[int] | None = None,
        mode: str = "strict",
        recovery_event_capacity: int = DEFAULT_RECOVERY_EVENT_CAPACITY,
        golden_lookup=None,
        region_schemes: dict[int, str] | None = None,
        region_word_decoders: dict[int, tuple[str, object]] | None = None,
    ):
        if isinstance(block_size, bool) or not isinstance(block_size, int):
            raise TypeError(
                f"block_size must be an int, got {type(block_size).__name__}"
            )
        if block_size < 2:
            raise ValueError("block size must be >= 2")
        if mode not in ("strict", "recover"):
            raise ValueError(f"mode must be 'strict' or 'recover', got {mode!r}")
        self.tt = tt
        self.bbit = bbit
        self.block_size = block_size
        self.mode = mode
        #: Addresses whose stored words are encoded; used to detect
        #: protocol violations (entering an encoded block mid-way).
        #: A caller-supplied empty set is kept as-is (shared, mutable).
        self.encoded_region = (
            encoded_region if encoded_region is not None else set()
        )
        #: Golden-image lookup (pc -> original word) serving recover
        #: mode's fetches under an unknown region scheme tag.
        self.golden_lookup = golden_lookup
        #: Mixed-scheme bundle support: ``pc -> scheme tag`` for every
        #: address inside a tagged region.  Tags equal to
        #: :data:`SCHEME_TTBBIT` flow through the table path; other
        #: tags are served through the word decoder armed at that
        #: address, ``region_word_decoders[pc] = (tag, decoder)``: a
        #: per-word decode callable for deployable recoders, or
        #: ``None`` for bus codecs whose stored words are raw.  A
        #: bundle arms each address with its own region's decoder, so
        #: regions sharing a scheme keep their own codebooks.  A fetch
        #: whose tag is not the one armed at its address is a fault
        #: (:class:`~repro.errors.SchemeTagError`).
        self.region_schemes = region_schemes or {}
        self.region_word_decoders = region_word_decoders or {}
        self.scheme_decoded_instructions = 0
        self._active: _ActiveBlock | None = None
        self._history_word = 0
        self._expected_pc: int | None = None
        #: True while recover mode is passing a corrupted/mid-entered
        #: block through raw; cleared by any non-sequential fetch or
        #: BBIT hit.
        self._passthrough_run = False
        self.decoded_instructions = 0
        self.passthrough_instructions = 0
        #: Activity counters for the overhead argument (Section 7.2):
        #: TT reads happen once per decoded (non-anchor) instruction,
        #: BBIT probes only when the engine is inactive.
        self.tt_reads = 0
        if recovery_event_capacity < 1:
            raise ValueError("recovery_event_capacity must be >= 1")
        self.recovery_event_capacity = recovery_event_capacity
        #: One dict per recover-mode event: ``kind`` (``mid_block_entry``,
        #: ``bbit_integrity``, ``tt_integrity``, ``trace_truncation``),
        #: the faulting ``pc`` and the original error ``message``.  A
        #: bounded ring: the newest ``recovery_event_capacity`` events
        #: are kept, the overflow is counted in
        #: :attr:`recovery_events_dropped` (and on the metrics
        #: registry) instead of growing without bound.
        self.recovery_events: list[dict] = []
        self.recovery_events_dropped = 0
        #: Fetches served straight from the golden image.
        self.golden_served_instructions = 0

    def reset(self) -> None:
        """Return to the idle state *and* zero all statistics, so a
        decoder reused across :meth:`decode_trace` calls does not leak
        counters from the previous trace."""
        self._active = None
        self._history_word = 0
        self._expected_pc = None
        self._passthrough_run = False
        self.decoded_instructions = 0
        self.passthrough_instructions = 0
        self.scheme_decoded_instructions = 0
        self.tt_reads = 0
        self.recovery_events = []
        self.recovery_events_dropped = 0
        self.golden_served_instructions = 0

    # ------------------------------------------------------------------

    def _serve_golden(self, pc: int) -> int:
        self.golden_served_instructions += 1
        self._active = None
        self._passthrough_run = False
        self._expected_pc = None
        return self.golden_lookup(pc)

    def _recover(self, kind: str, pc: int, message: str) -> None:
        if len(self.recovery_events) >= self.recovery_event_capacity:
            self.recovery_events.pop(0)
            self.recovery_events_dropped += 1
            if OBS.enabled:
                OBS.registry.counter(
                    "decoder.recovery_events_dropped",
                    "recover-mode events rolled off the bounded ring",
                ).inc()
        self.recovery_events.append(
            {"kind": kind, "pc": pc, "message": message}
        )
        if OBS.enabled:
            OBS.registry.counter(
                "decoder.recoveries",
                "recover-mode fallbacks to pass-through",
                kind=kind,
            ).inc()

    def _fetch_scheme_region(self, pc: int, stored_word: int, scheme: str) -> int:
        """Serve a fetch from a region encoded by a non-TT/BBIT
        backend of the encoder zoo.

        Deployable word recoders registered a per-word decode callable;
        bus codecs registered ``None`` (their stored words are raw and
        pass through).  A tag other than the one armed at ``pc`` is
        treated like any other decode-path fault: strict raises
        :class:`SchemeTagError`, recover falls back to the golden
        bundle when attached.
        """
        armed = self.region_word_decoders.get(pc)
        if armed is None or armed[0] != scheme:
            fault = SchemeTagError(
                f"unknown region scheme tag {scheme!r} at {pc:#010x}"
            )
            if self.mode == "strict":
                raise fault
            self._recover("scheme_tag", pc, str(fault))
            if self.golden_lookup is not None:
                return self._serve_golden(pc)
            self.passthrough_instructions += 1
            self._active = None
            self._expected_pc = None
            return stored_word
        # Entering a zoo-encoded region always leaves the TT engine.
        self._active = None
        self._expected_pc = None
        self._passthrough_run = False
        decode_word = armed[1]
        if decode_word is None:
            self.passthrough_instructions += 1
            return stored_word
        self.scheme_decoded_instructions += 1
        return decode_word(stored_word)

    def _probe(self, pc: int) -> BBITEntry | None:
        """Probe the BBIT for a fetch on the idle engine.

        Returns the hit entry, or ``None`` for a pass-through fetch.
        A BBIT integrity error, or an encoded word fetched with no
        block active (outside a recover-mode pass-through run), is a
        fault: strict mode raises it, and recover mode records it and
        starts a pass-through run."""
        try:
            entry = self.bbit.lookup(pc)
        except TableIntegrityError as err:
            fault, kind = err, "bbit_integrity"
        else:
            if (
                entry is not None
                or self._passthrough_run
                or pc not in self.encoded_region
            ):
                return entry
            fault, kind = DecodeFault(
                f"fetch of encoded word at {pc:#010x} without an "
                "active basic block (mid-block entry?)"
            ), "mid_block_entry"
        if self.mode == "strict":
            raise fault
        self._recover(kind, pc, str(fault))
        self._passthrough_run = True
        return None

    def _tt_fault(
        self, pc: int, stored_word: int, err: TableIntegrityError
    ) -> int:
        """The active block's TT row read failed at ``pc``: strict mode
        raises ``err``; recover mode abandons the block, so this fetch
        and the rest of the run pass through."""
        if self.mode == "strict":
            raise err
        self._active = None
        self._recover("tt_integrity", pc, str(err))
        self._passthrough_run = True
        self.passthrough_instructions += 1
        self._expected_pc = pc + 4
        return stored_word

    def _activate(self, entry: BBITEntry, pc: int) -> None:
        """Start decoding the block that ``entry`` names at its first
        fetch, ``pc``."""
        self._passthrough_run = False
        self._active = _ActiveBlock(
            base_tt_index=entry.tt_index,
            start_pc=pc,
            instructions_total=entry.num_instructions,
            index=0,
        )
        self._expected_pc = pc

    def fetch(self, pc: int, stored_word: int) -> int:
        """Process one fetch; returns the restored instruction word."""
        if self.region_schemes:
            scheme = self.region_schemes.get(pc)
            if scheme is not None and scheme != SCHEME_TTBBIT:
                return self._fetch_scheme_region(pc, stored_word, scheme)
        if pc != self._expected_pc:
            # A taken branch ends the current block or pass-through run.
            self._active = None
            self._passthrough_run = False
        if self._active is None:
            entry = self._probe(pc)
            if entry is None:
                self.passthrough_instructions += 1
                # Inside a pass-through run only sequential successors
                # continue it; a plain unencoded fetch expects nothing.
                self._expected_pc = pc + 4 if self._passthrough_run else None
                return stored_word
            self._activate(entry, pc)

        active = self._active
        if active.index == 0:
            decoded = stored_word  # block's first instruction passes through
        else:
            segment = (active.index - 1) // (self.block_size - 1)
            try:
                # read() bounds- and (when enabled) parity-checks the row.
                tt_entry = self.tt.read(active.base_tt_index + segment)
            except TableIntegrityError as err:
                return self._tt_fault(pc, stored_word, err)
            self.tt_reads += 1
            decoded = tt_entry.decode(stored_word, self._history_word)
        self._history_word = decoded
        self.decoded_instructions += 1
        active.index += 1
        if active.index >= active.instructions_total:
            self._active = None
            self._expected_pc = None
        else:
            self._expected_pc = pc + 4
        return decoded

    def finalize(self) -> None:
        """Declare the fetch stream over.  A trace that ends while a
        block is still being decoded (truncation) is a protocol fault:
        strict mode raises, recover mode records the event."""
        active = self._active
        if active is None:
            return
        remaining = active.instructions_total - active.index
        fault = DecodeFault(
            f"trace ended mid-block: block at {active.start_pc:#010x} "
            f"has {remaining} instruction(s) undecoded"
        )
        self._active = None
        self._expected_pc = None
        if self.mode == "strict":
            raise fault
        self._recover("trace_truncation", active.start_pc, str(fault))

    def stats(self) -> dict:
        """Counters plus recover-mode events, in one report-friendly dict."""
        return {
            "mode": self.mode,
            "decoded_instructions": self.decoded_instructions,
            "passthrough_instructions": self.passthrough_instructions,
            "scheme_decoded_instructions": self.scheme_decoded_instructions,
            "tt_reads": self.tt_reads,
            "bbit_lookups": self.bbit.lookups,
            "recoveries": len(self.recovery_events) + self.recovery_events_dropped,
            "recovery_events": list(self.recovery_events),
            "recovery_events_dropped": self.recovery_events_dropped,
            "golden_served_instructions": self.golden_served_instructions,
            "ecc_corrections": (
                self.tt.ecc_corrections + self.bbit.ecc_corrections
            ),
            "ecc_double_faults": (
                self.tt.ecc_double_faults + self.bbit.ecc_double_faults
            ),
        }

    def publish_metrics(self, table_baseline: dict | None = None) -> None:
        """Route this decoder's counters (and its tables' activity
        since ``table_baseline``) onto the process metrics registry."""
        if not OBS.enabled:
            return
        base = table_baseline or {}
        registry = OBS.registry
        registry.counter(
            "decoder.decoded_instructions",
            "instructions restored through a TT transformation chain",
            mode=self.mode,
        ).inc(self.decoded_instructions)
        registry.counter(
            "decoder.passthrough_instructions",
            "fetches served unchanged (BBIT miss or recover-mode pass-through)",
            mode=self.mode,
        ).inc(self.passthrough_instructions)
        registry.counter(
            "decoder.tt_reads", "TT row reads on the fetch path", mode=self.mode
        ).inc(self.tt_reads)
        registry.counter(
            "decoder.bbit_lookups", "BBIT CAM probes", mode=self.mode
        ).inc(self.bbit.lookups - base.get("bbit_lookups", 0))
        registry.counter(
            "decoder.bbit_hits", "BBIT CAM hits", mode=self.mode
        ).inc(self.bbit.hits - base.get("bbit_hits", 0))
        registry.counter(
            "decoder.parity_checks",
            "TT + BBIT parity words recomputed and compared",
            mode=self.mode,
        ).inc(
            self.tt.parity_checks
            + self.bbit.parity_checks
            - base.get("parity_checks", 0)
        )
        registry.counter(
            "decoder.parity_failures",
            "TT + BBIT parity mismatches detected",
            mode=self.mode,
        ).inc(
            self.tt.parity_failures
            + self.bbit.parity_failures
            - base.get("parity_failures", 0)
        )
        registry.counter(
            "decoder.golden_served",
            "fetches served from the golden image under an unknown scheme tag",
            mode=self.mode,
        ).inc(self.golden_served_instructions)
        if self.scheme_decoded_instructions:
            registry.counter(
                "decoder.scheme_decoded_instructions",
                "fetches restored through an encoder-zoo word recoder",
                mode=self.mode,
            ).inc(self.scheme_decoded_instructions)

    def _table_baseline(self) -> dict:
        """Snapshot of the shared tables' cumulative counters, so a
        :meth:`decode_trace` publishes only its own activity."""
        return {
            "bbit_lookups": self.bbit.lookups,
            "bbit_hits": self.bbit.hits,
            "parity_checks": self.tt.parity_checks + self.bbit.parity_checks,
            "parity_failures": (
                self.tt.parity_failures + self.bbit.parity_failures
            ),
        }

    # ------------------------------------------------------------------

    def decode_trace(
        self,
        addresses: Iterable[int],
        stored_image_lookup,
        finalize: bool = False,
    ) -> DecodedTrace:
        """Decode a full fetch trace.  ``stored_image_lookup`` maps a
        PC to the stored (possibly encoded) word; the stored image must
        not change during the call.  ``finalize=True``
        additionally treats end-of-trace as end-of-stream, flagging a
        truncation that leaves a block half-decoded.  A plain PC list
        is converted once with :meth:`FetchTrace.from_addresses`.

        The decoded stream comes back as a
        :class:`~repro.sim.tracer.DecodedTrace`; ``len`` and iteration
        are per fetch and ``expand()`` is the per-fetch word list.

        In every mode the walk reads the trace's run groups.  A
        non-sequential fetch always leaves the engine idle (and ends a
        recover-mode pass-through run), and so does a fetch served
        outside the TT engine (a zoo-tagged address), so a run's decode
        depends only on the run and on the table and region state it
        starts from.  Each distinct run decodes once; later occurrences
        reuse its words and scale its counters (every :meth:`stats`
        counter, the BBIT's ``lookups``, ``hits`` and
        ``parity_checks``, both tables' ``parity_failures``), so they
        equal the per-fetch walk's.  A decode that fired a recover-mode
        event is not reused, and one that changed that state (a SEC-DED
        correction or a new quarantine on either table) also drops
        every earlier decode.  Inside a run, full basic-block
        occurrences decode through the word-major bitplane scan and the
        rest through :meth:`fetch` (zoo fetches, partial blocks,
        pass-through runs, a block up to the fetch whose TT row read
        fails), so every fault surfaces at the same fetch, with the
        same message and handling, as it would instruction by
        instruction.  The result has one entry per
        group: the run's words and the group's repeat count, or all of
        the group's words once when its occurrences decoded
        differently.  Only the TT's internal ``reads`` and
        ``parity_checks`` differ (they advance once per distinct block).
        """
        self.reset()
        trace = FetchTrace.of(addresses)
        baseline = self._table_baseline() if OBS.enabled else None
        with OBS.tracer.span(
            "decoder.decode_trace", mode=self.mode, fetches=len(trace)
        ):
            decoded = self._decode_trace_bitplane(trace, stored_image_lookup)
            if finalize:
                self.finalize()
        if OBS.enabled:
            self.publish_metrics(baseline)
        return decoded

    def _counters(self) -> tuple[int, ...]:
        """The counters a run's decode advances and its reuses scale."""
        tt, bbit = self.tt, self.bbit
        return (
            self.decoded_instructions,
            self.passthrough_instructions,
            self.scheme_decoded_instructions,
            self.golden_served_instructions,
            self.tt_reads,
            bbit.lookups,
            bbit.hits,
            bbit.parity_checks,
            bbit.parity_failures,
            tt.parity_failures,
        )

    def _set_counters(self, values: Iterable[int]) -> None:
        tt, bbit = self.tt, self.bbit
        (
            self.decoded_instructions,
            self.passthrough_instructions,
            self.scheme_decoded_instructions,
            self.golden_served_instructions,
            self.tt_reads,
            bbit.lookups,
            bbit.hits,
            bbit.parity_checks,
            bbit.parity_failures,
            tt.parity_failures,
        ) = values

    def _table_state(self) -> tuple[int, ...]:
        """Changes whenever a table row changes."""
        tt, bbit = self.tt, self.bbit
        return (
            tt.ecc_corrections,
            tt.ecc_double_faults,
            bbit.ecc_corrections,
            bbit.ecc_double_faults,
        )

    def _decode_trace_bitplane(
        self, trace: FetchTrace, stored_image_lookup
    ) -> DecodedTrace:
        """The walk over the trace's run groups, decoding each distinct
        run once while the table state holds (see :meth:`decode_trace`)."""
        words_out: list[list[int]] = []
        repeats_out = trace.repeats.copy()
        memo: dict[tuple[int, int], _RunDecode] = {}
        decodes: list[_RunDecode] = []
        blocks: dict[tuple[int, int], list[int]] = {}
        state = self._table_state()
        done = None
        for run, times in zip(zip(trace.starts, trace.lengths), trace.repeats):
            done = memo.get(run)
            if done is not None:
                done.repeats += times
                words_out.append(done.words)
                continue
            # Decode occurrences afresh until one is reusable; that one
            # serves the group's remaining occurrences.
            fresh = []
            while times:
                done = self._decode_fresh(run, stored_image_lookup, blocks)
                times -= 1
                fresh.append(done.words)
                if (now := self._table_state()) != state:
                    # A row changed: neither this decode nor any
                    # earlier one is reusable.
                    state = now
                    memo = {}
                elif not done.fired:
                    memo[run] = done
                    decodes.append(done)
                    done.repeats = times
                    break
            if len(fresh) == 1:
                words_out.append(done.words)
            else:
                # The occurrences decoded differently: one entry holds
                # them all.
                words_out.append(
                    [word for words in fresh for word in words] + done.words * times
                )
                repeats_out[len(words_out) - 1] = 1
        if decodes:
            # Each reuse advances the counters as its decode did.
            repeats = [decode.repeats for decode in decodes]
            afters = zip(*(decode.after for decode in decodes))
            befores = zip(*(decode.before for decode in decodes))
            self._set_counters(
                total + sum(map(mul, repeats, after)) - sum(map(mul, repeats, before))
                for total, after, before in zip(self._counters(), afters, befores)
            )
        if done is not None:
            # Leave the engine where the trace's last run left it.
            active, self._expected_pc, self._history_word, self._passthrough_run = (
                done.engine
            )
            self._active = None if active is None else dataclasses.replace(active)
        return DecodedTrace(words_out, repeats_out)

    def _decode_fresh(
        self,
        run: tuple[int, int],
        stored_image_lookup,
        blocks: dict[tuple[int, int], list[int]],
    ) -> "_RunDecode":
        """Decode one occurrence of ``run`` and record what it did."""
        before = self._counters()
        logged = len(self.recovery_events) + self.recovery_events_dropped
        words = self._decode_run(run, stored_image_lookup, blocks)
        return _RunDecode(
            words,
            before,
            self._counters(),
            len(self.recovery_events) + self.recovery_events_dropped != logged,
            # A later run activates blocks of its own, so this one's
            # last block is never mutated again.
            (
                self._active,
                self._expected_pc,
                self._history_word,
                self._passthrough_run,
            ),
        )

    def _leaves_engine(self, pc: int, count: int) -> bool:
        """Whether a fetch of the block at ``pc`` after its first is
        served outside the TT engine (a zoo-tagged address)."""
        schemes = self.region_schemes
        return any(
            schemes.get(addr, SCHEME_TTBBIT) != SCHEME_TTBBIT
            for addr in range(pc + 4, pc + 4 * count, 4)
        )

    def _decode_run(
        self,
        run: tuple[int, int],
        stored_image_lookup,
        blocks: dict[tuple[int, int], list[int]],
    ) -> list[int]:
        """Decode one maximal sequential run from the idle engine:
        one bitplane scan per full basic-block occurrence (memoised in
        ``blocks`` on the TT index and PC: the stored image is fixed
        for one :meth:`decode_trace` call, and a TT row that read once
        reads the same for the rest of it), :meth:`fetch` for the rest."""
        start, length = run
        self._active = None
        self._expected_pc = None
        self._passthrough_run = False
        out: list[int] = []
        block_size = self.block_size
        schemes = self.region_schemes
        end = start + 4 * length
        pc = start
        while pc < end:
            if self._active is not None or self._passthrough_run:
                out.append(self.fetch(pc, stored_image_lookup(pc)))
                pc += 4
                continue
            scheme = schemes.get(pc) if schemes else None
            if scheme is not None and scheme != SCHEME_TTBBIT:
                out.append(
                    self._fetch_scheme_region(pc, stored_image_lookup(pc), scheme)
                )
                pc += 4
                continue
            # Engine idle: probe the BBIT exactly as fetch() would.
            entry = self._probe(pc)
            if entry is None:
                self.passthrough_instructions += 1
                self._expected_pc = pc + 4 if self._passthrough_run else None
                out.append(stored_image_lookup(pc))
                pc += 4
                continue
            count = entry.num_instructions
            if (
                count < 2
                or pc + 4 * count > end
                or (schemes and self._leaves_engine(pc, count))
            ):
                # A partial or truncated occurrence: fetch() continues
                # the block from here without re-probing the BBIT.
                self._activate(entry, pc)
                continue
            key = (entry.tt_index, pc)
            decoded_words = blocks.get(key)
            if decoded_words is None:
                num_segments = (count - 2) // (block_size - 1) + 1
                plans = []
                try:
                    for segment in range(num_segments):
                        # Same bounds- and SEC-DED checks, in the same
                        # row order, as the per-fetch path.
                        row = self.tt.read(entry.tt_index + segment)
                        plans.append(
                            tuple(
                                map(_SELECTOR_TRUTH_TABLES.__getitem__, row.selectors)
                            )
                        )
                except TableIntegrityError as err:
                    # fetch() first reads the failed row at the block's
                    # instruction len(plans) * (k - 1) + 1: fetch up to
                    # there, then fault at that fetch with this error.
                    self._activate(entry, pc)
                    failing = pc + 4 * (len(plans) * (block_size - 1) + 1)
                    while pc < failing:
                        out.append(self.fetch(pc, stored_image_lookup(pc)))
                        pc += 4
                    out.append(self._tt_fault(pc, stored_image_lookup(pc), err))
                    pc += 4
                    continue
                stored = [stored_image_lookup(pc + 4 * j) for j in range(count)]
                with OBS.tracer.span(
                    "decode.bitplane", words=count, segments=num_segments
                ):
                    decoded_words = bitplane.decode_block_bitplane(
                        stored,
                        _segment_bounds_cached(count, block_size, True),
                        tuple(plans),
                        width=len(plans[0]),
                    )
                blocks[key] = decoded_words
            out.extend(decoded_words)
            # Architectural accounting identical to the per-fetch
            # walk: one TT read per non-anchor instruction, history =
            # the last decoded word, engine idle after the block.
            self.decoded_instructions += count
            self.tt_reads += count - 1
            self._history_word = decoded_words[-1]
            self._expected_pc = None
            pc += 4 * count
        return out


@dataclass
class _RunDecode:
    """One distinct run's decode: its words, the counters before and
    after it, whether it fired an event, the engine state it left, and
    its later occurrences."""

    words: list[int]
    before: tuple[int, ...]
    after: tuple[int, ...]
    #: whether it fired a recover-mode event (a reuse would not)
    fired: bool
    #: (active block, expected PC, history word, pass-through run)
    engine: tuple[_ActiveBlock | None, int | None, int, bool]
    repeats: int = 0
