"""Per-region scheme selection: the encoder zoo meets the pipeline.

The regional flow (:mod:`repro.pipeline.regional`) already decomposes
a program into top-level hot-loop regions.  This module makes the
*scheme* a per-region decision: every registered
:class:`~repro.baselines.protocol.Encoder` backend — plus the paper's
TT/BBIT transformation and the do-nothing ``raw`` option — is measured
on each region's actual fetch traffic, and the cheapest scheme within
the configured hardware budget wins.  The result is a mixed-scheme
:class:`~repro.pipeline.bundle.EncodingBundle` whose ``regions``
metadata tags each hot region with its scheme and fitted config, which
:class:`~repro.hw.fetch_decoder.FetchDecoder` understands at fetch
time.

Cost model (documented in docs/encoders.md): every transition of the
trace is attributed to exactly one bucket.  A transition whose source
and destination fetches both fall in region R is *intra-region*
traffic, charged to R under whichever scheme R uses; all other
transitions (outside any region, or crossing a region boundary) are
*residual* and always charged at the raw-image rate.  Because the
mixed configuration takes the per-region minimum over a candidate set
that contains every single-scheme configuration's per-region cost,
``mixed <= best single scheme`` holds on every workload by
construction — and the accompanying tests measure it anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, Iterable, List, Sequence

from repro.baselines.protocol import (
    ENCODER_REGISTRY,
    TrafficCounts,
    make_encoder,
    registered_schemes,
)
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.profile import profile_trace
from repro.core.program_codec import encode_basic_block
from repro.errors import DecodeVerificationError, EncodingError
from repro.isa.assembler import Program
from repro.obs import OBS
from repro.pipeline.bundle import EncodingBundle, _digest, table_programming
from repro.pipeline.regional import RegionPlan, plan_regions
from repro.sim.bus import count_trace_transitions
from repro.sim.tracer import FetchTrace

#: scheme tags that are not encoder-zoo backends
SCHEME_TTBBIT = "ttbbit"
SCHEME_RAW = "raw"


@dataclass(frozen=True)
class SelectorBudget:
    """Hardware ceiling a candidate scheme must fit under."""

    max_table_bits: int = 8192
    max_extra_lines: int = 8


@dataclass
class RegionChoice:
    """The selector's verdict for one hot region."""

    header: int
    blocks: tuple[int, ...]  # region body block starts, sorted
    scheme: str
    transitions: int
    raw_transitions: int
    candidates: Dict[str, int | None]  # scheme -> cost (None: over budget)
    config: dict = field(default_factory=dict)
    config_digest: str = ""
    fetches: int = 0

    @property
    def savings(self) -> int:
        return self.raw_transitions - self.transitions


@dataclass
class SelectorResult:
    """A full per-region selection over one workload."""

    name: str
    block_size: int
    baseline_transitions: int
    residual_transitions: int
    choices: List[RegionChoice]
    bundle: EncodingBundle

    @property
    def mixed_transitions(self) -> int:
        return self.residual_transitions + sum(
            c.transitions for c in self.choices
        )

    @property
    def reduction_percent(self) -> float:
        if self.baseline_transitions == 0:
            return 0.0
        return (
            100.0
            * (self.baseline_transitions - self.mixed_transitions)
            / self.baseline_transitions
        )

    def single_scheme_transitions(self, scheme: str) -> int:
        """Whole-trace cost of forcing ``scheme`` onto every region
        (regions where it is over budget / not applicable fall back to
        raw) — the yardstick for the never-worse guarantee."""
        total = self.residual_transitions
        for choice in self.choices:
            cost = choice.candidates.get(scheme)
            total += choice.raw_transitions if cost is None else cost
        return total

    def best_single_transitions(self) -> int:
        """The cheapest :meth:`single_scheme_transitions` over every
        scheme some region was costed under (the baseline when the
        program has no hot region): the never-worse gate's bound."""
        schemes = {scheme for c in self.choices for scheme in c.candidates}
        return min(
            (self.single_scheme_transitions(scheme) for scheme in schemes),
            default=self.baseline_transitions,
        )


def _region_pairs(
    trace: FetchTrace, header_of: Dict[int, int]
) -> Dict[int, List[tuple[int, int, int]]]:
    """Intra-region traffic as ``(from_pc, to_pc, count)`` per region
    header: the trace's consecutive fetch pairs whose both ends lie in
    the region.  Consecutive fetches in one region always belong to the
    same region stretch, so these are exactly the pairs a walk of the
    region's stretches would see."""
    pairs: Dict[int, List[tuple[int, int, int]]] = {}
    for (a, b), count in trace.edge_counts().items():
        header = header_of.get(a)
        if header is not None and header == header_of.get(b):
            pairs.setdefault(header, []).append((a, b, count))
    return pairs


def _pairs_cost(pairs: List[tuple[int, int, int]], value_of) -> int:
    """Σ count · popcount(value_of[a] ^ value_of[b]) over ``pairs``."""
    return sum(
        count * (value_of[a] ^ value_of[b]).bit_count() for a, b, count in pairs
    )


def _region_occurrences(
    trace: FetchTrace, header_of: Dict[int, int]
) -> Dict[int, List[tuple[bool, tuple[int, int]]]]:
    """Each region's fetches in trace order, as occurrences
    ``(starts_stretch, (first_pc, count))`` of *pieces*: the maximal
    slices of a run inside one region.  Each distinct run is cut into
    its pieces once, and each run group's repeats are listed together.
    A stretch (a maximal consecutive stretch of the trace inside the
    region) continues across a jump only when the fetches on both sides
    of it lie in the same region."""
    cuts = {}
    for start, length in trace.run_counts():
        pieces = []
        for header, group in groupby(
            range(start, start + 4 * length, 4), header_of.get
        ):
            pcs = list(group)
            pieces.append((header, (pcs[0], len(pcs))))
        # every piece after the first starts a stretch
        (head, first), *later = pieces
        later = [(header, piece) for header, piece in later if header is not None]
        cuts[start, length] = (head, first, later, pieces[-1][0])
    occurrences: Dict[int, List[tuple[bool, tuple[int, int]]]] = {
        header: [] for header in set(header_of.values())
    }
    current = None
    for run, times in zip(zip(trace.starts, trace.lengths), trace.repeats):
        head, first, later, last = cuts[run]
        if head is not None:
            occurrences[head].append((head != current, first))
        for header, piece in later:
            occurrences[header].append((True, piece))
        if times > 1:
            # Each repeat follows the run itself; a region's list sees
            # its own pieces of one occurrence, ``times - 1`` more times.
            repeat: Dict[int, List[tuple[bool, tuple[int, int]]]] = {}
            if head is not None:
                repeat[head] = [(head != last, first)]
            for header, piece in later:
                repeat.setdefault(header, []).append((True, piece))
            for header, pieces in repeat.items():
                occurrences[header] += pieces * (times - 1)
        current = last
    return occurrences


def _region_traffic(
    pcs: List[int],
    word_of: Dict[int, int],
    fetch_counts: Dict[int, int],
    pairs: List[tuple[int, int, int]],
    occurrences: List[tuple[bool, tuple[int, int]]],
) -> TrafficCounts:
    """What every fit reads: the region's word counts, in order of
    first fetch (``pcs`` is), and its word-pair counts.  Besides the
    intra-region ``pairs`` these count each stretch's last fetch
    followed by the next stretch's first: a pair the bus never drives
    back to back, but one a fit over the region's concatenated words
    has always seen; dropping it changes fitted tables."""
    words: Dict[int, int] = {}
    for pc in pcs:
        word = word_of[pc]
        words[word] = words.get(word, 0) + fetch_counts[pc]
    word_pairs: Dict[tuple[int, int], int] = {}
    for a, b, count in pairs:
        key = (word_of[a], word_of[b])
        word_pairs[key] = word_pairs.get(key, 0) + count
    last = None
    for starts, (pc, count) in occurrences:
        if starts and last is not None:
            key = (word_of[last], word_of[pc])
            word_pairs[key] = word_pairs.get(key, 0) + 1
        last = pc + 4 * (count - 1)
    return TrafficCounts(words, word_pairs)


def _codec_cost(
    encoder,
    occurrences: List[tuple[bool, tuple[int, int]]],
    words: List[int],
    base: int,
) -> int | None:
    """A bus codec's cost over a region's stretches in fetch order: its
    state carries from piece to piece and resets at each stretch start,
    whose first transfer is free.  Each (entry state, piece) is
    encoded, decoded and compared once, then costed from the memo.
    ``None`` when a stretch misdecodes; the rest of that stretch is
    still decoded, so an invalid codeword in it raises as a
    whole-stretch decode would."""
    memo: Dict[tuple, tuple[int, object]] = {}
    cost = 0
    state = None
    misdecoded = False
    for starts, piece in occurrences:
        if starts:
            if misdecoded:
                return None
            state = None
        key = (state, piece)
        hit = memo.get(key)
        if hit is None:
            pc, count = piece
            first = (pc - base) >> 2
            piece_words = words[first : first + count]
            stream = encoder.encode(piece_words, state)
            if encoder.decode(stream, state) != piece_words:
                misdecoded = True
            hit = memo[key] = (stream.transitions(), stream.exit)
        cost += hit[0]
        state = hit[1]
    return None if misdecoded else cost


def _elementwise_cost(encoder, pairs, word_of: Dict[int, int]) -> int | None:
    """A stateless backend's cost from its driven value per distinct
    word: its ``encode``/``decode`` act word by word, so checking the
    distinct words checks every fetch.  ``None`` when any misdecodes."""
    distinct = list(dict.fromkeys(word_of.values()))
    stream = encoder.encode(distinct)
    if encoder.decode(stream) != distinct:
        return None
    driven = dict(zip(distinct, stream.driven))
    return _pairs_cost(pairs, {pc: driven[word] for pc, word in word_of.items()})


class SchemeSelector:
    """Measure every backend per region and emit a mixed-scheme bundle."""

    def __init__(
        self,
        block_size: int,
        tt_capacity: int = 16,
        bbit_capacity: int = 16,
        budget: SelectorBudget | None = None,
        schemes: Sequence[str] | None = None,
    ):
        self.block_size = block_size
        self.tt_capacity = tt_capacity
        self.bbit_capacity = bbit_capacity
        self.budget = budget or SelectorBudget()
        self.schemes = tuple(schemes) if schemes is not None else registered_schemes()
        unknown = [s for s in self.schemes if s not in ENCODER_REGISTRY]
        if unknown:
            raise EncodingError(f"unknown encoder scheme(s): {unknown}")

    # ------------------------------------------------------------------

    def run(
        self, program: Program, trace: Iterable[int], name: str = "program"
    ) -> SelectorResult:
        trace = FetchTrace.of(trace)
        with OBS.tracer.span(
            "selector.run", workload=name, fetches=len(trace)
        ):
            result = self._run(program, trace, name)
        if OBS.enabled:
            OBS.registry.counter(
                "selector.runs", "per-region scheme selections", workload=name
            ).inc()
            for choice in result.choices:
                OBS.registry.counter(
                    "selector.region_choices",
                    "regions assigned to a scheme by the selector",
                    scheme=choice.scheme,
                ).inc()
            OBS.registry.gauge(
                "selector.mixed_transitions",
                "measured transitions of the mixed-scheme configuration",
                workload=name,
            ).set(result.mixed_transitions)
        return result

    def _run(
        self, program: Program, trace: FetchTrace, name: str
    ) -> SelectorResult:
        cfg = ControlFlowGraph.build(program)
        profile = profile_trace(cfg, trace)
        plans = plan_regions(
            cfg,
            profile,
            self.block_size,
            tt_capacity=self.tt_capacity,
            bbit_capacity=self.bbit_capacity,
        )
        base = program.text_base
        words = program.words
        header_of = {
            pc: plan.header
            for plan in plans
            for start in plan.blocks
            for pc in range(start, cfg.blocks[start].end, 4)
        }
        fetch_counts = trace.fetch_counts()
        pairs_by_header = _region_pairs(trace, header_of)
        occurrences_by_header = _region_occurrences(trace, header_of)

        baseline = count_trace_transitions(program, trace)
        image = list(program.words)
        regions_meta: List[dict] = []
        tt_entries: List[dict] = []
        bbit_entries: List[dict] = []
        choices: List[RegionChoice] = []
        intra_raw_total = 0

        for plan in plans:
            pcs = [pc for pc in fetch_counts if header_of.get(pc) == plan.header]
            pairs = pairs_by_header.get(plan.header, [])
            occurrences = occurrences_by_header.get(plan.header, [])
            word_of = {pc: words[(pc - base) >> 2] for pc in pcs}
            raw_cost = _pairs_cost(pairs, word_of)
            intra_raw_total += raw_cost
            candidates: Dict[str, int | None] = {SCHEME_RAW: raw_cost}

            # --- the paper's TT/BBIT scheme --------------------------
            tt_patch = self._encode_ttbbit(cfg, program, plan)
            if tt_patch is not None:
                patched, _ = tt_patch
                candidates[SCHEME_TTBBIT] = _pairs_cost(
                    pairs, {pc: patched[(pc - base) >> 2] for pc in pcs}
                )
            else:
                candidates[SCHEME_TTBBIT] = None

            # --- every registered zoo backend ------------------------
            traffic = _region_traffic(
                pcs, word_of, fetch_counts, pairs, occurrences
            )
            encoders = {}
            for scheme in self.schemes:
                encoder = make_encoder(scheme).fit(traffic)
                budget = encoder.budget()
                if not budget.fits(
                    self.budget.max_table_bits, self.budget.max_extra_lines
                ):
                    candidates[scheme] = None
                    continue
                if budget.stateful:
                    cost = _codec_cost(encoder, occurrences, words, base)
                else:
                    cost = _elementwise_cost(encoder, pairs, word_of)
                # never select a scheme that misdecodes (cost None)
                candidates[scheme] = cost
                if cost is not None:
                    encoders[scheme] = encoder

            # --- choose: first strict minimum in deterministic order -
            order = [SCHEME_TTBBIT, SCHEME_RAW] + sorted(self.schemes)
            best_scheme = SCHEME_RAW
            best_cost = raw_cost
            for scheme in order:
                cost = candidates.get(scheme)
                if cost is not None and cost < best_cost:
                    best_scheme, best_cost = scheme, cost

            choice = RegionChoice(
                header=plan.header,
                blocks=tuple(sorted(plan.blocks)),
                scheme=best_scheme,
                transitions=best_cost,
                raw_transitions=raw_cost,
                candidates=candidates,
                fetches=sum(fetch_counts[pc] for pc in pcs),
            )

            # --- commit the winner into the image/bundle -------------
            if best_scheme == SCHEME_TTBBIT:
                _, encoded_blocks = tt_patch  # type: ignore[misc]
                region_tt, region_bbit = table_programming(
                    encoded_blocks, tt_base=len(tt_entries)
                )
                tt_entries.extend(region_tt)
                bbit_entries.extend(region_bbit)
                for start, encoding in encoded_blocks:
                    first = program.index_of(start)
                    image[first : first + len(encoding)] = encoding.encoded_words
                regions_meta.append(
                    {
                        "header": plan.header,
                        "scheme": SCHEME_TTBBIT,
                        "blocks": [
                            {
                                "pc": entry["pc"],
                                "num_instructions": entry["num_instructions"],
                            }
                            for entry in region_bbit
                        ],
                    }
                )
            else:
                blocks_meta = [
                    {
                        "pc": start,
                        "num_instructions": len(cfg.blocks[start]),
                    }
                    for start in sorted(plan.blocks)
                ]
                meta = {
                    "header": plan.header,
                    "scheme": best_scheme,
                    "blocks": blocks_meta,
                }
                if best_scheme != SCHEME_RAW:
                    encoder = encoders[best_scheme]
                    meta["config"] = encoder.to_config()
                    meta["config_digest"] = encoder.config_digest()
                    choice.config = meta["config"]
                    choice.config_digest = meta["config_digest"]
                    if encoder.deployable:
                        # burn the recoding into the stored image
                        for block in blocks_meta:
                            first = program.index_of(block["pc"])
                            for offset in range(block["num_instructions"]):
                                image[first + offset] = encoder.encode_word(
                                    image[first + offset]
                                )
                regions_meta.append(meta)
            choices.append(choice)

        bundle = EncodingBundle(
            name=name,
            block_size=self.block_size,
            text_base=program.text_base,
            encoded_words=image,
            original_digest=_digest(program.words),
            tt_entries=tt_entries,
            bbit_entries=bbit_entries,
            regions=regions_meta,
        )
        bundle.validate()
        if not bundle.deploy_and_check(program, trace):
            raise DecodeVerificationError(
                f"{name}: mixed-scheme bundle failed bit-identical decode"
            )
        return SelectorResult(
            name=name,
            block_size=self.block_size,
            baseline_transitions=baseline,
            residual_transitions=baseline - intra_raw_total,
            choices=choices,
            bundle=bundle,
        )

    # ------------------------------------------------------------------

    def _encode_ttbbit(
        self, cfg: ControlFlowGraph, program: Program, plan: RegionPlan
    ):
        """Encode the region's selected blocks with the paper's scheme;
        returns (patched image copy, ``(block start, encoding)`` pairs)
        or None when the region selected no encodable blocks."""
        if not plan.selected:
            return None
        patched = list(program.words)
        encoded_blocks = []
        for start in plan.selected:
            encoding = encode_basic_block(
                cfg.blocks[start].words[: plan.lengths[start]], self.block_size
            )
            first = program.index_of(start)
            patched[first : first + len(encoding)] = encoding.encoded_words
            encoded_blocks.append((start, encoding))
        return patched, encoded_blocks


def select_for_workload(
    name: str,
    block_size: int = 5,
    tt_capacity: int = 16,
    bbit_capacity: int = 16,
    budget: SelectorBudget | None = None,
    schemes: Sequence[str] | None = None,
) -> SelectorResult:
    """Run the per-region selector on a registry workload."""
    from repro.workloads.registry import build_workload

    workload = build_workload(name)
    cpu, trace = workload.run()
    selector = SchemeSelector(
        block_size,
        tt_capacity=tt_capacity,
        bbit_capacity=bbit_capacity,
        budget=budget,
        schemes=schemes,
    )
    return selector.run(cpu.program, trace, name)
