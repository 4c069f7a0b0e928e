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
    degraded region that software can act on.

``degraded``
    The strongest fallback, available when a golden (pre-encoding)
    image lookup is attached.  On unrecoverable TT/BBIT corruption the
    engine *demotes* the affected block: its addresses move from
    :attr:`FetchDecoder.encoded_region` into
    :attr:`FetchDecoder.degraded_region` and every subsequent fetch of
    them is served from the golden image — so the decoded stream stays
    bit-identical to the original program, at the cost of losing the
    power benefit for that block.  Each demotion is counted
    (``decoder.degradations``) alongside the per-fetch
    ``decoder.golden_served`` volume.  After the scrubber repairs the
    tables from a golden bundle, :meth:`FetchDecoder.restore_degraded`
    re-arms the demoted blocks.

Note the single-bit story never reaches any of these modes: the
tables' SEC-DED rows correct one flipped bit transparently inside
:meth:`TransformationTable.read` / BBIT ``lookup``, so only
uncorrectable (double-bit or worse) corruption surfaces here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
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
        scheme_word_decoders: dict[str, object] | None = None,
    ):
        if isinstance(block_size, bool) or not isinstance(block_size, int):
            raise TypeError(
                f"block_size must be an int, got {type(block_size).__name__}"
            )
        if block_size < 2:
            raise ValueError("block size must be >= 2")
        if mode not in ("strict", "recover", "degraded"):
            raise ValueError(
                f"mode must be 'strict', 'recover' or 'degraded', got {mode!r}"
            )
        if mode == "degraded" and golden_lookup is None:
            raise ValueError(
                "degraded mode needs a golden_lookup (pc -> original word)"
            )
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
        #: Golden-image lookup (pc -> original word) backing degraded
        #: mode; also usable by the scrubber's verification sweeps.
        self.golden_lookup = golden_lookup
        #: Addresses demoted out of :attr:`encoded_region` after an
        #: unrecoverable fault; served from the golden image.
        self.degraded_region: set[int] = set()
        #: Mixed-scheme bundle support: ``pc -> scheme tag`` for every
        #: address inside a tagged region.  Tags equal to
        #: :data:`SCHEME_TTBBIT` flow through the table path; other
        #: tags are served through ``scheme_word_decoders[tag]`` — a
        #: per-word decode callable for deployable recoders, or
        #: ``None`` for bus codecs whose stored words are raw.  A tag
        #: with no entry in ``scheme_word_decoders`` is a fault
        #: (:class:`~repro.errors.SchemeTagError`).
        self.region_schemes = region_schemes or {}
        self.scheme_word_decoders = scheme_word_decoders or {}
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
        #: Degraded-mode bookkeeping: demotion events and the number
        #: of fetches served straight from the golden image.
        self.degradations = 0
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
        # degraded_region intentionally survives a reset: demotion is
        # a persistent memory-layout change, not a per-trace statistic.
        self.degradations = 0
        self.golden_served_instructions = 0

    def restore_degraded(self) -> int:
        """Re-arm every demoted block (after the tables were repaired
        from a golden bundle); returns how many addresses moved back
        into the encoded region."""
        restored = len(self.degraded_region)
        self.encoded_region |= self.degraded_region
        self.degraded_region.clear()
        return restored

    # ------------------------------------------------------------------

    def _degrade(
        self, kind: str, pc: int, message: str, block: _ActiveBlock | None = None
    ) -> None:
        """Demote the faulting address — or, when the block extent is
        known, the whole block — out of the encoded region."""
        pcs = [pc]
        if block is not None:
            pcs = [
                block.start_pc + 4 * i
                for i in range(block.instructions_total)
            ]
        for addr in pcs:
            self.encoded_region.discard(addr)
            self.degraded_region.add(addr)
        self.degradations += 1
        self._recover(kind, pc, message)
        if OBS.enabled:
            OBS.registry.counter(
                "decoder.degradations",
                "blocks demoted to golden-image service after an "
                "unrecoverable table fault",
                kind=kind,
            ).inc()

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
        pass through).  An unknown tag is treated like any other
        decode-path fault: strict raises :class:`SchemeTagError`,
        recover/degraded fall back to the golden bundle when attached.
        """
        if scheme not in self.scheme_word_decoders:
            fault = SchemeTagError(
                f"unknown region scheme tag {scheme!r} at {pc:#010x}"
            )
            if self.mode == "strict":
                raise fault
            if self.mode == "degraded":
                self._degrade("scheme_tag", pc, str(fault))
                return self._serve_golden(pc)
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
        decode_word = self.scheme_word_decoders[scheme]
        if decode_word is None:
            self.passthrough_instructions += 1
            return stored_word
        self.scheme_decoded_instructions += 1
        return decode_word(stored_word)

    def fetch(self, pc: int, stored_word: int) -> int:
        """Process one fetch; returns the restored instruction word."""
        if pc in self.degraded_region:
            # The block was demoted after an unrecoverable fault: its
            # stored words are untrustworthy, serve the golden image.
            return self._serve_golden(pc)
        if self.region_schemes:
            scheme = self.region_schemes.get(pc)
            if scheme is not None and scheme != SCHEME_TTBBIT:
                return self._fetch_scheme_region(pc, stored_word, scheme)
        if self._active is not None and pc != self._expected_pc:
            # Taken branch out of the current block.
            self._active = None
        if self._passthrough_run and pc != self._expected_pc:
            self._passthrough_run = False
        if self._active is None:
            entry = None
            fault: Exception | None = None
            try:
                entry = self.bbit.lookup(pc)
            except TableIntegrityError as err:
                fault = err
            if (
                fault is None
                and entry is None
                and not self._passthrough_run
                and pc in self.encoded_region
            ):
                fault = DecodeFault(
                    f"fetch of encoded word at {pc:#010x} without an "
                    "active basic block (mid-block entry?)"
                )
            if fault is not None:
                if self.mode == "strict":
                    raise fault
                kind = (
                    "bbit_integrity"
                    if isinstance(fault, TableIntegrityError)
                    else "mid_block_entry"
                )
                if self.mode == "degraded":
                    # The block extent is unknown (the BBIT row is the
                    # thing that's broken): demote this address; the
                    # block's remaining words demote themselves one by
                    # one as their mid-block fetches fault here too.
                    self._degrade(kind, pc, str(fault))
                    return self._serve_golden(pc)
                self._recover(kind, pc, str(fault))
                self._passthrough_run = True
                entry = None
            if entry is None:
                self.passthrough_instructions += 1
                # Inside a pass-through run only sequential successors
                # continue it; a plain unencoded fetch expects nothing.
                self._expected_pc = pc + 4 if self._passthrough_run else None
                return stored_word
            self._passthrough_run = False
            self._active = _ActiveBlock(
                base_tt_index=entry.tt_index,
                start_pc=pc,
                instructions_total=entry.num_instructions,
                index=0,
            )

        active = self._active
        if active.index == 0:
            decoded = stored_word  # block's first instruction passes through
        else:
            segment = (active.index - 1) // (self.block_size - 1)
            try:
                # read() bounds- and (when enabled) parity-checks the row.
                tt_entry = self.tt.read(active.base_tt_index + segment)
            except TableIntegrityError as err:
                if self.mode == "strict":
                    raise
                if self.mode == "degraded":
                    # The active block's extent is known: demote all of
                    # it at once and serve this fetch from the golden
                    # image (earlier words already decoded correctly).
                    block = self._active
                    self._active = None
                    self._degrade("tt_integrity", pc, str(err), block=block)
                    return self._serve_golden(pc)
                # Abandon the block: this fetch and the rest of the
                # block fall back to pass-through.
                self._recover("tt_integrity", pc, str(err))
                self._active = None
                self._passthrough_run = True
                self.passthrough_instructions += 1
                self._expected_pc = pc + 4
                return stored_word
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
            "degradations": self.degradations,
            "golden_served_instructions": self.golden_served_instructions,
            "degraded_addresses": len(self.degraded_region),
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
            "fetches served unchanged (BBIT miss or degraded block)",
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
            "fetches served from the golden image for demoted blocks",
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
        PC to the stored (possibly encoded) word.  ``finalize=True``
        additionally treats end-of-trace as end-of-stream, flagging a
        truncation that leaves a block half-decoded.  A plain PC list
        is converted once with :meth:`FetchTrace.from_addresses`.

        The decoded stream comes back as a
        :class:`~repro.sim.tracer.DecodedTrace`; ``len`` and iteration
        are per fetch and ``expand()`` is the per-fetch word list.

        In strict mode (with no demoted blocks) the walk reads the
        trace's run groups, and its result has one entry per group:
        that run's decoded words and the group's repeat count.  A
        non-sequential fetch always leaves the engine idle, and so does
        a fetch from a region tagged with an encoder-zoo scheme (served
        word by word, with no engine state), so each distinct run
        decodes once, from the idle state, and every later occurrence
        reuses its words; its architectural counters
        (``decoded_instructions``, ``passthrough_instructions``,
        ``scheme_decoded_instructions``, ``tt_reads`` and the BBIT's
        ``lookups``, ``hits`` and ``parity_checks``) are scaled by its
        occurrence count, so they equal the per-fetch walk's.  Inside a
        run, full basic-block occurrences decode through the
        word-major bitplane scan, zoo region fetches through their
        word decoder, and partial blocks through :meth:`fetch`, so
        protocol faults, unknown scheme tags and table integrity errors
        surface at the same fetch, with the same message, as they would
        instruction by instruction.  Only the tables' *internal*
        row-read volume differs (``TransformationTable.reads`` and
        ``parity_checks`` advance once per distinct block).  Only the
        recover and degraded modes, whose per-fetch fault contracts are
        the point, take the per-fetch walk over the expanded trace; its
        words come back as a single entry.
        """
        self.reset()
        trace = FetchTrace.of(addresses)
        baseline = self._table_baseline() if OBS.enabled else None
        with OBS.tracer.span(
            "decoder.decode_trace", mode=self.mode, fetches=len(trace)
        ):
            if self.mode == "strict" and not self.degraded_region:
                decoded = self._decode_trace_bitplane(
                    trace, stored_image_lookup
                )
            else:
                decoded = DecodedTrace.flat(
                    [self.fetch(pc, stored_image_lookup(pc)) for pc in trace]
                )
            if finalize:
                self.finalize()
        if OBS.enabled:
            self.publish_metrics(baseline)
        return decoded

    def _counters(self) -> tuple[int, ...]:
        """The architectural counters a strict run advances."""
        bbit = self.bbit
        return (
            self.decoded_instructions,
            self.passthrough_instructions,
            self.scheme_decoded_instructions,
            self.tt_reads,
            bbit.lookups,
            bbit.hits,
            bbit.parity_checks,
        )

    def _decode_trace_bitplane(
        self, trace: FetchTrace, stored_image_lookup
    ) -> DecodedTrace:
        """Strict-mode walk over the trace's run groups, decoding each
        distinct run once (see :meth:`decode_trace`).

        A SEC-DED correction can re-key a BBIT row and so change how a
        later occurrence of an already-decoded run decodes; the per-run
        memo starts over whenever the BBIT corrects a row."""
        out: list[list[int]] = []
        memo: dict[tuple[int, int], _RunDecode] = {}
        decodes: list[_RunDecode] = []
        blocks: dict[tuple, list[int]] = {}
        bbit = self.bbit
        corrections = bbit.ecc_corrections
        done = None
        for run, times in zip(zip(trace.starts, trace.lengths), trace.repeats):
            done = memo.get(run)
            if done is None:
                before = self._counters()
                words = self._decode_run(run, stored_image_lookup, blocks)
                delta = tuple(
                    now - then for now, then in zip(self._counters(), before)
                )
                active = self._active
                done = _RunDecode(
                    words,
                    delta,
                    None if active is None else dataclasses.replace(active),
                    self._expected_pc,
                    self._history_word,
                )
                decodes.append(done)
                if bbit.ecc_corrections != corrections:
                    corrections = bbit.ecc_corrections
                    memo = {}
                memo[run] = done
                times -= 1
            done.repeats += times
            out.append(done.words)
        for decode in decodes:
            if decode.repeats:
                (
                    decoded,
                    passthrough,
                    scheme_decoded,
                    tt_reads,
                    lookups,
                    hits,
                    checks,
                ) = (decode.repeats * d for d in decode.counters)
                self.decoded_instructions += decoded
                self.passthrough_instructions += passthrough
                self.scheme_decoded_instructions += scheme_decoded
                self.tt_reads += tt_reads
                bbit.lookups += lookups
                bbit.hits += hits
                bbit.parity_checks += checks
        if done is not None:
            # Leave the engine where the trace's last run left it.
            self._active = (
                None if done.active is None else dataclasses.replace(done.active)
            )
            self._expected_pc = done.expected_pc
            self._history_word = done.history_word
        return DecodedTrace(out, trace.repeats.copy())

    def _enters_zoo_region(self, pc: int, count: int) -> bool:
        """Whether the block at ``pc`` runs into a zoo-tagged address
        (which :meth:`fetch` serves outside the TT engine)."""
        schemes = self.region_schemes
        return any(
            schemes.get(addr, SCHEME_TTBBIT) != SCHEME_TTBBIT
            for addr in range(pc + 4, pc + 4 * count, 4)
        )

    def _decode_run(
        self,
        run: tuple[int, int],
        stored_image_lookup,
        blocks: dict[tuple, list[int]],
    ) -> list[int]:
        """Decode one maximal sequential run from the idle engine:
        one bitplane scan per full basic-block occurrence (memoised in
        ``blocks`` on the stored words), the region's word decoder for
        zoo-tagged fetches, :meth:`fetch` for the rest."""
        start, length = run
        self._active = None
        self._expected_pc = None
        out: list[int] = []
        block_size = self.block_size
        schemes = self.region_schemes
        end = start + 4 * length
        pc = start
        while pc < end:
            if self._active is not None:
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
            # Engine idle: probe the BBIT exactly as fetch() would
            # (strict-mode integrity errors propagate from the probe).
            entry = self.bbit.lookup(pc)
            if entry is None:
                if pc in self.encoded_region:
                    raise DecodeFault(
                        f"fetch of encoded word at {pc:#010x} without an "
                        "active basic block (mid-block entry?)"
                    )
                self.passthrough_instructions += 1
                self._expected_pc = None
                out.append(stored_image_lookup(pc))
                pc += 4
                continue
            count = entry.num_instructions
            if (
                count < 2
                or pc + 4 * count > end
                or (schemes and self._enters_zoo_region(pc, count))
            ):
                # Partial or truncated occurrence: hand the block to
                # the per-fetch engine without re-probing the BBIT.
                self._active = _ActiveBlock(
                    base_tt_index=entry.tt_index,
                    start_pc=pc,
                    instructions_total=count,
                    index=0,
                )
                self._expected_pc = pc
                out.append(self.fetch(pc, stored_image_lookup(pc)))
                pc += 4
                continue
            stored = [stored_image_lookup(pc + 4 * j) for j in range(count)]
            key = (entry.tt_index, pc, tuple(stored))
            decoded_words = blocks.get(key)
            if decoded_words is None:
                num_segments = (count - 2) // (block_size - 1) + 1
                plans = []
                for segment in range(num_segments):
                    # Same bounds- and SEC-DED checks, in the same row
                    # order, as the per-fetch path.
                    row = self.tt.read(entry.tt_index + segment)
                    plans.append(
                        tuple(
                            map(_SELECTOR_TRUTH_TABLES.__getitem__, row.selectors)
                        )
                    )
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
    """One distinct run's decode: its words, the counters it advanced,
    the engine state it left, and its later occurrences."""

    words: list[int]
    counters: tuple[int, ...]
    active: _ActiveBlock | None
    expected_pc: int | None
    history_word: int
    repeats: int = 0
