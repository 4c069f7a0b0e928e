"""Per-region scheme selector: never-worse guarantee, bundle
integrity, budget filtering.

The full nine-workload sweep lives in the experiment pipeline (and the
CI encoder-matrix job); here two registry workloads with different
traffic shapes keep the suite fast while still exercising multi-region
selection end to end.
"""

import json

import pytest

from repro.baselines.memoryless import MemorylessCodebookEncoder
from repro.baselines.protocol import make_encoder, registered_schemes
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.profile import profile_trace
from repro.core.transitions import word_transitions
from repro.errors import EncodingError
from repro.isa.assembler import assemble
from repro.pipeline.bundle import EncodingBundle
from repro.pipeline.regional import plan_regions
from repro.pipeline.selector import (
    SCHEME_RAW,
    SCHEME_TTBBIT,
    SchemeSelector,
    SelectorBudget,
    select_for_workload,
)
from repro.sim.bus import count_trace_transitions
from repro.sim.cpu import run_program
from repro.workloads.registry import build_workload
from tests.strategies import generate_phased_program, generate_program

WORKLOADS = ("fir", "fft")


@pytest.fixture(scope="module", params=WORKLOADS)
def selection(request):
    """One SelectorResult per workload, shared across this module
    (selector runs cost ~1s each)."""
    return select_for_workload(request.param, block_size=5)


class TestNeverWorse:
    def test_mixed_never_worse_than_any_single_scheme(self, selection):
        """The acceptance criterion: the mixed bundle beats (or ties)
        every single-scheme configuration, including TT/BBIT and raw."""
        mixed = selection.mixed_transitions
        for scheme in (SCHEME_TTBBIT, SCHEME_RAW, *registered_schemes()):
            single = selection.single_scheme_transitions(scheme)
            assert mixed <= single, (selection.name, scheme, mixed, single)

    def test_mixed_never_worse_than_baseline(self, selection):
        assert selection.mixed_transitions <= selection.baseline_transitions

    def test_every_region_choice_is_its_candidate_minimum(self, selection):
        for choice in selection.choices:
            costs = [c for c in choice.candidates.values() if c is not None]
            assert choice.transitions == min(costs)
            assert choice.candidates[choice.scheme] == choice.transitions

    def test_accounting_is_exact(self, selection):
        """Residual + per-region raw costs must reassemble the
        baseline: every transition is attributed exactly once."""
        assert selection.baseline_transitions == (
            selection.residual_transitions
            + sum(c.raw_transitions for c in selection.choices)
        )


class TestBundleIntegrity:
    def test_regions_tagged_and_decodable(self, selection):
        bundle = selection.bundle
        assert bundle.regions
        tags = {region["scheme"] for region in bundle.regions}
        legal = {SCHEME_TTBBIT, SCHEME_RAW, *registered_schemes()}
        assert tags <= legal
        wl = build_workload(selection.name)
        program = wl.assemble()
        _, trace = wl.run()
        assert bundle.deploy_and_check(program, trace)

    def test_bundle_json_roundtrip_preserves_regions(self, selection, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(selection.bundle.to_json())
        restored = EncodingBundle.from_json(path.read_text())
        # JSON has no tuples, so compare through a JSON normalisation.
        assert restored.regions == json.loads(
            json.dumps(selection.bundle.regions)
        )
        assert restored.region_scheme_map() == (
            selection.bundle.region_scheme_map()
        )
        restored.validate()

    def test_scheme_word_decoders_cover_all_tagged_schemes(self, selection):
        decoders = selection.bundle.scheme_word_decoders()
        for region in selection.bundle.regions:
            tag = region["scheme"]
            if tag == SCHEME_TTBBIT:
                continue  # decoded by the TT/BBIT fetch path, not per word
            assert tag in decoders


class TestBudgetFiltering:
    def test_zero_budget_disqualifies_table_backends(self):
        """With no table bits and no extra lines, every zoo backend
        that needs hardware is marked over budget (None) and the
        selector still produces a valid bundle from TT/BBIT + raw."""
        wl = build_workload("fir")
        program = wl.assemble()
        _, trace = wl.run()
        selector = SchemeSelector(
            block_size=5,
            budget=SelectorBudget(max_table_bits=0, max_extra_lines=0),
        )
        result = selector.run(program, trace, "fir-zero-budget")
        for choice in result.choices:
            assert choice.scheme in (SCHEME_TTBBIT, SCHEME_RAW)
            for scheme in registered_schemes():
                cost = choice.candidates.get(scheme)
                if cost is not None:
                    # A scheme surviving a zero budget must truly need
                    # no hardware at all.
                    from repro.baselines.protocol import make_encoder

                    assert make_encoder(scheme).budget().fits(0, 0)

    def test_scheme_subset_restricts_candidates(self):
        wl = build_workload("fir")
        program = wl.assemble()
        _, trace = wl.run()
        selector = SchemeSelector(block_size=5, schemes=("gray",))
        result = selector.run(program, trace, "fir-gray-only")
        for choice in result.choices:
            zoo = set(choice.candidates) - {SCHEME_TTBBIT, SCHEME_RAW}
            assert zoo == {"gray"}

    def test_unknown_scheme_rejected(self):
        with pytest.raises(EncodingError):
            SchemeSelector(block_size=5, schemes=("nope",))


class TestChoiceReporting:
    def test_savings_and_fetches_populated(self, selection):
        for choice in selection.choices:
            assert choice.savings == (
                choice.raw_transitions - choice.transitions
            )
            assert choice.savings >= 0
            assert choice.fetches > 0

    def test_non_raw_choices_carry_config_digest(self, selection):
        for choice in selection.choices:
            if choice.scheme in (SCHEME_RAW, SCHEME_TTBBIT):
                continue
            assert choice.config
            assert len(choice.config_digest) == 64


# ----------------------------------------------------------------------
# Oracle: the per-fetch region walk the selector's pair counts replace
# ----------------------------------------------------------------------


def _oracle_region_runs(cfg, plans, trace):
    """Maximal consecutive stretches of the trace inside each region,
    as fetch-address lists, walking every fetch."""
    header_of_block = {
        start: plan.header for plan in plans for start in plan.blocks
    }
    runs = {plan.header: [] for plan in plans}
    current = None
    for pc in trace.expand():
        header = header_of_block.get(cfg.block_of(pc).start)
        if header is None:
            current = None
            continue
        if header != current:
            runs[header].append([])
            current = header
        runs[header][-1].append(pc)
    return runs


def _oracle(selector, program, trace):
    """Per region: (candidates, raw transitions, fetches), plus the
    residual transitions, costed per fetch over every region run."""
    cfg = ControlFlowGraph.build(program)
    plans = plan_regions(
        cfg,
        profile_trace(cfg, trace),
        selector.block_size,
        tt_capacity=selector.tt_capacity,
        bbit_capacity=selector.bbit_capacity,
    )
    base = program.text_base
    runs_by_header = _oracle_region_runs(cfg, plans, trace)
    regions = {}
    intra_raw = 0
    for plan in plans:
        runs = runs_by_header[plan.header]
        run_words = [
            [program.words[(pc - base) >> 2] for pc in run] for run in runs
        ]
        raw = sum(word_transitions(words) for words in run_words)
        intra_raw += raw
        candidates = {SCHEME_RAW: raw, SCHEME_TTBBIT: None}
        patch = selector._encode_ttbbit(cfg, program, plan)
        if patch is not None:
            patched = patch[0]
            candidates[SCHEME_TTBBIT] = sum(
                word_transitions([patched[(pc - base) >> 2] for pc in run])
                for run in runs
            )
        region_words = [word for words in run_words for word in words]
        for scheme in selector.schemes:
            encoder = make_encoder(scheme).fit(region_words)
            if not encoder.budget().fits(
                selector.budget.max_table_bits, selector.budget.max_extra_lines
            ):
                candidates[scheme] = None
                continue
            cost = 0
            for words in run_words:
                stream = encoder.encode(words)
                if encoder.decode(stream) != words:
                    cost = None
                    break
                cost += stream.transitions()
            candidates[scheme] = cost
        regions[plan.header] = (
            candidates,
            raw,
            sum(len(run) for run in runs),
        )
    residual = count_trace_transitions(program, trace) - intra_raw
    return regions, residual


def _assert_matches_oracle(program, trace, name):
    selector = SchemeSelector(block_size=5)
    result = selector.run(program, trace, name)
    regions, residual = _oracle(selector, program, trace)
    assert [choice.header for choice in result.choices] == list(regions)
    for choice in result.choices:
        assert (
            choice.candidates,
            choice.raw_transitions,
            choice.fetches,
        ) == regions[choice.header], (name, hex(choice.header))
    assert result.residual_transitions == residual
    return result


@pytest.mark.parametrize("name", ("fir", "fft", "conv2d"))
def test_region_costs_match_per_fetch_oracle(name):
    workload = build_workload(name)
    _, trace = workload.run()
    _assert_matches_oracle(workload.assemble(), trace, name)


@pytest.mark.parametrize("seed", range(4))
def test_region_costs_match_per_fetch_oracle_on_branchy_programs(seed):
    program = assemble(generate_program(seed, num_blocks=10, fuel=300))
    _, trace = run_program(program)
    _assert_matches_oracle(program, trace, f"branchy-{seed}")


@pytest.mark.parametrize("seed", range(8))
def test_region_costs_match_per_fetch_oracle_on_reentered_loops(seed):
    # Loop regions left and re-entered: many stretches per region.
    program = assemble(generate_phased_program(seed))
    _, trace = run_program(program)
    result = _assert_matches_oracle(program, trace, f"phased-{seed}")
    assert len(result.choices) > 1
    assert result.bundle.deploy_and_check(program, trace)


def test_stateless_backend_with_a_stale_inverse_is_disqualified(monkeypatch):
    """The distinct-word decode gate still catches a stateless recoder
    whose decode table disagrees with its encode table (the verify
    campaign's ``memoryless-codebook`` mutation)."""
    set_tables = MemorylessCodebookEncoder._set_tables

    def stale_inverse(self, bus, table):
        set_tables(self, bus, table)
        if bus == 0:
            maps = self._maps[0]
            maps[0], maps[1] = maps[1], maps[0]

    monkeypatch.setattr(MemorylessCodebookEncoder, "_set_tables", stale_inverse)
    workload = build_workload("fir")
    _, trace = workload.run()
    result = SchemeSelector(block_size=5).run(workload.assemble(), trace, "fir")
    assert result.choices
    for choice in result.choices:
        assert choice.candidates["memoryless"] is None
        assert choice.scheme != "memoryless"
