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
from typing import Dict, Iterable, List, Sequence

from repro.baselines.protocol import (
    ENCODER_REGISTRY,
    make_encoder,
    registered_schemes,
)
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.profile import profile_trace
from repro.core.program_codec import encode_basic_block
from repro.core.transitions import word_transitions
from repro.errors import DecodeVerificationError, EncodingError
from repro.isa.assembler import Program
from repro.obs import OBS
from repro.pipeline.bundle import EncodingBundle, _digest
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


def _region_runs(
    cfg: ControlFlowGraph,
    plans: Sequence[RegionPlan],
    trace: FetchTrace,
) -> Dict[int, List[List[int]]]:
    """Maximal consecutive stretches of the trace inside each region,
    as lists of fetch addresses, keyed by region header."""
    block_to_header: Dict[int, int] = {}
    for plan in plans:
        for start in plan.blocks:
            block_to_header[start] = plan.header
    # one block lookup per distinct PC, not per fetch
    header_of = {
        pc: block_to_header.get(cfg.block_of(pc).start)
        for pc in trace.fetch_counts()
    }
    runs: Dict[int, List[List[int]]] = {plan.header: [] for plan in plans}
    current: int | None = None
    for pc in trace:
        header = header_of[pc]
        if header is None:
            current = None
            continue
        if header != current:
            runs[header].append([])
            current = header
        runs[header][-1].append(pc)
    return runs


def _runs_cost(run_words: List[List[int]]) -> int:
    return sum(word_transitions(words) for words in run_words)


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
        self, program: Program, trace: Iterable[int], name: str
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
        original_of = lambda pc: program.words[(pc - base) >> 2]
        runs_by_header = _region_runs(cfg, plans, trace)

        baseline = count_trace_transitions(program, trace)
        image = list(program.words)
        regions_meta: List[dict] = []
        tt_entries: List[dict] = []
        bbit_entries: List[dict] = []
        choices: List[RegionChoice] = []
        intra_raw_total = 0

        for plan in plans:
            runs = runs_by_header[plan.header]
            run_words = [[original_of(pc) for pc in run] for run in runs]
            region_words = [word for words in run_words for word in words]
            raw_cost = _runs_cost(run_words)
            intra_raw_total += raw_cost
            candidates: Dict[str, int | None] = {SCHEME_RAW: raw_cost}

            # --- the paper's TT/BBIT scheme --------------------------
            tt_patch = self._encode_ttbbit(cfg, program, plan)
            if tt_patch is not None:
                patched, _, _ = tt_patch
                candidates[SCHEME_TTBBIT] = _runs_cost(
                    [[patched[(pc - base) >> 2] for pc in run] for run in runs]
                )
            else:
                candidates[SCHEME_TTBBIT] = None

            # --- every registered zoo backend ------------------------
            encoders = {}
            for scheme in self.schemes:
                encoder = make_encoder(scheme).fit(region_words)
                if not encoder.budget().fits(
                    self.budget.max_table_bits, self.budget.max_extra_lines
                ):
                    candidates[scheme] = None
                    continue
                cost = 0
                ok = True
                for words in run_words:
                    stream = encoder.encode(words)
                    if encoder.decode(stream) != words:
                        ok = False  # never select a scheme that misdecodes
                        break
                    cost += stream.transitions()
                candidates[scheme] = cost if ok else None
                if ok:
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
                fetches=sum(len(run) for run in runs),
            )

            # --- commit the winner into the image/bundle -------------
            if best_scheme == SCHEME_TTBBIT:
                patched, region_tt, region_bbit = tt_patch  # type: ignore[misc]
                tt_base = len(tt_entries)
                tt_entries.extend(region_tt)
                blocks_meta = []
                for entry in region_bbit:
                    bbit_entries.append(
                        {
                            "pc": entry["pc"],
                            "tt_index": entry["tt_index"] + tt_base,
                            "num_instructions": entry["num_instructions"],
                        }
                    )
                    blocks_meta.append(
                        {
                            "pc": entry["pc"],
                            "num_instructions": entry["num_instructions"],
                        }
                    )
                    first = program.index_of(entry["pc"])
                    for offset in range(entry["num_instructions"]):
                        image[first + offset] = patched[first + offset]
                regions_meta.append(
                    {
                        "header": plan.header,
                        "scheme": SCHEME_TTBBIT,
                        "blocks": blocks_meta,
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
        returns (patched image copy, tt entry dicts, bbit entry dicts)
        or None when the region selected no encodable blocks."""
        if not plan.selected:
            return None
        patched = list(program.words)
        tt_entries: List[dict] = []
        bbit_entries: List[dict] = []
        tt_index = 0
        for start in plan.selected:
            block = cfg.blocks[start]
            length = plan.lengths[start]
            encoding = encode_basic_block(block.words[:length], self.block_size)
            base_index = tt_index
            for row, (seg_start, seg_len) in zip(
                encoding.selectors(), encoding.bounds
            ):
                is_tail = seg_start + seg_len >= length
                tt_entries.append(
                    {
                        "selectors": list(row),
                        "end": is_tail,
                        "count": (
                            (seg_len if seg_start == 0 else seg_len - 1)
                            if is_tail
                            else 0
                        ),
                    }
                )
                tt_index += 1
            bbit_entries.append(
                {"pc": start, "tt_index": base_index, "num_instructions": length}
            )
            first = program.index_of(start)
            for offset, word in enumerate(encoding.encoded_words):
                patched[first + offset] = word
        return patched, tt_entries, bbit_entries


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
