"""Per-region scheme selector: never-worse guarantee, bundle
integrity, budget filtering.

The full nine-workload sweep lives in the experiment pipeline (and the
CI encoder-matrix job); here two registry workloads with different
traffic shapes keep the suite fast while still exercising multi-region
selection end to end.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.frequency import FrequencyEncoder
from repro.baselines.memoryless import MemorylessCodebookEncoder
from repro.baselines.protocol import (
    TrafficCounts,
    make_encoder,
    registered_schemes,
)
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.profile import profile_trace
from repro.core.transitions import word_transitions
from repro.errors import BundleFormatError, EncodingError
from repro.isa.assembler import assemble
from repro.pipeline.bundle import EncodingBundle
from repro.pipeline.regional import plan_regions
from repro.pipeline.selector import (
    SCHEME_RAW,
    SCHEME_TTBBIT,
    SchemeSelector,
    SelectorBudget,
    _codec_cost,
    _region_groups,
)
from repro.sim.bus import count_trace_transitions
from repro.sim.cpu import run_program
from repro.sim.tracer import FetchTrace
from repro.workloads.registry import (
    BENCHMARK_ORDER,
    EXTENDED_WORKLOADS,
    build_workload,
)
from tests.strategies import (
    generate_phased_program,
    generate_program,
    looping_pc_lists,
)

WORKLOADS = ("fir", "fft")


@pytest.fixture(scope="module", params=WORKLOADS)
def selection(request):
    """One SelectorResult per workload, shared across this module
    (selector runs cost ~1s each)."""
    cpu, trace = build_workload(request.param).run()
    return SchemeSelector(5).run(cpu.program, trace, request.param)


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

    def test_region_word_decoders_cover_all_tagged_addresses(self, selection):
        decoders = selection.bundle.region_word_decoders()
        for pc, tag in selection.bundle.region_scheme_map().items():
            if tag == SCHEME_TTBBIT:
                # decoded by the TT/BBIT fetch path, not per word
                assert pc not in decoders
            else:
                assert decoders[pc][0] == tag


@pytest.fixture(scope="module")
def fft_memoryless():
    """fft selected with memoryless as the only zoo scheme: its two
    hot regions are fitted to different codebooks."""
    cpu, trace = build_workload("fft").run()
    selection = SchemeSelector(5, tt_capacity=0, schemes=["memoryless"]).run(
        cpu.program, trace, "fft"
    )
    return cpu.program, trace, selection.bundle


def test_regions_sharing_a_scheme_decode_through_their_own_codebooks(
    fft_memoryless,
):
    """Each memoryless region must decode through its own encoder."""
    program, trace, bundle = fft_memoryless
    zoo = [r for r in bundle.regions if r["scheme"] == "memoryless"]
    assert len(zoo) == 2
    assert zoo[0]["config_digest"] != zoo[1]["config_digest"]
    assert bundle.deploy_and_check(program, trace)


def test_region_word_decoders_refuse_regions_edited_after_validate(
    fft_memoryless,
):
    """Swapping two regions' codebooks after validation must not decode
    through the stale encoders; validating again re-arms them."""
    _, _, shipped = fft_memoryless
    bundle = EncodingBundle.from_json(shipped.to_json())
    first, second = (
        r for r in bundle.regions if r["scheme"] == "memoryless"
    )
    for key in ("config", "config_digest"):
        first[key], second[key] = second[key], first[key]
    with pytest.raises(BundleFormatError, match="changed since the last"):
        bundle.region_word_decoders()
    bundle.validate()
    pc = first["blocks"][0]["pc"]
    decode_word = bundle.region_word_decoders()[pc][1]
    assert decode_word.__self__.config_digest() == first["config_digest"]


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


def _oracle_occurrences(pcs, header_of):
    """Per region, its pieces walking every fetch: a piece grows while
    fetches stay sequential and in the region, and starts a stretch
    when the fetch before it lies outside the region."""
    out = {header: [] for header in set(header_of.values())}
    prev_pc = prev_header = None
    for pc in pcs:
        header = header_of.get(pc)
        if header is not None:
            if prev_pc is not None and pc == prev_pc + 4 and header == prev_header:
                starts, (first, count) = out[header][-1]
                out[header][-1] = (starts, (first, count + 1))
            else:
                out[header].append((header != prev_header, (pc, 1)))
        prev_pc, prev_header = pc, header
    return out


def _expand_groups(groups):
    """A region's groups as its flat ``(starts_stretch, piece)``
    occurrences, one per piece fetched."""
    flat = []
    for first, again, pieces, times in groups:
        for repeat in range(times):
            flat.append((again if repeat else first, pieces[0]))
            flat += [(True, piece) for piece in pieces[1:]]
    return flat


TEXT = 8
BASE = 0x400000


@given(
    looping_pc_lists(TEXT, BASE),
    st.lists(st.sampled_from((None, BASE, BASE + 12)), min_size=TEXT, max_size=TEXT),
)
def test_region_occurrences_match_per_fetch_walk(pcs, headers):
    # Runs repeated back to back that leave, enter or cross regions.
    header_of = {
        BASE + 4 * i: header for i, header in enumerate(headers) if header is not None
    }
    groups = _region_groups(FetchTrace.from_addresses(pcs), header_of)
    assert {
        header: _expand_groups(region) for header, region in groups.items()
    } == _oracle_occurrences(pcs, header_of)


@pytest.mark.parametrize("seed", range(4))
def test_fits_read_the_concatenated_stretch_counts(monkeypatch, seed):
    """Every fit reads the region's counts: word counts in order of
    first fetch and pair counts with the junction pairs between
    consecutive stretches, exactly as ``TrafficCounts.of`` counts the
    per-fetch walk's concatenated region words."""
    seen = []
    fit = FrequencyEncoder.fit

    def recording_fit(self, words):
        seen.append(words)
        return fit(self, words)

    monkeypatch.setattr(FrequencyEncoder, "fit", recording_fit)
    program = assemble(generate_phased_program(seed))
    _, trace = run_program(program)
    selector = SchemeSelector(block_size=5)
    selector.run(program, trace, f"phased-{seed}")
    cfg = ControlFlowGraph.build(program)
    plans = plan_regions(
        cfg,
        profile_trace(cfg, trace),
        selector.block_size,
        tt_capacity=selector.tt_capacity,
        bbit_capacity=selector.bbit_capacity,
    )
    runs_by_header = _oracle_region_runs(cfg, plans, trace)
    base = program.text_base
    assert len(seen) == len(plans) > 1
    for counts, plan in zip(seen, plans):
        expected = TrafficCounts.of(
            [
                program.words[(pc - base) >> 2]
                for run in runs_by_header[plan.header]
                for pc in run
            ]
        )
        assert list(counts.words.items()) == list(expected.words.items())
        assert dict(counts.pairs) == dict(expected.pairs)


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


# ----------------------------------------------------------------------
# Corrupted bus codecs, costed through the (entry state, piece) memo
# ----------------------------------------------------------------------


def _oracle_or_error(selector, program, trace):
    try:
        return _oracle(selector, program, trace), None
    except EncodingError as error:
        return None, str(error)


def _assert_memo_verdict_matches_oracle(name="fir"):
    """Under a corruption, every region's candidates equal the per-fetch
    walk's (a cost, or ``None`` for a misdecode), or both raise the same
    error."""
    workload = build_workload(name)
    program = workload.assemble()
    _, trace = workload.run()
    selector = SchemeSelector(block_size=5)
    expected, expected_error = _oracle_or_error(selector, program, trace)
    if expected_error is not None:
        with pytest.raises(EncodingError) as raised:
            selector.run(program, trace, name)
        assert str(raised.value) == expected_error
        return None
    result = selector.run(program, trace, name)
    regions, _ = expected
    for choice in result.choices:
        assert choice.candidates == regions[choice.header][0], hex(choice.header)
    return result


@pytest.mark.parametrize(
    "mutation, target",
    (
        ("lowweight-codeword", None),
        ("bus-invert-decision", "repro.baselines.bus_invert:BusInvertEncoder"),
        ("t0-freeze", "repro.baselines.t0:T0Encoder"),
    ),
)
def test_corrupted_codec_verdict_matches_per_fetch_oracle(
    monkeypatch, mutation, target
):
    """The verify campaign's codec mutations, armed for this test only:
    the memoised piece costs must reproduce the whole-stretch verdict."""
    from importlib import import_module

    from repro.baselines import lowweight
    from repro.verify.mutation import MUTATIONS

    if target is None:
        monkeypatch.setattr(lowweight, "CODEWORDS", list(lowweight.CODEWORDS))
    else:
        module, _, cls = target.partition(":")
        owner = getattr(import_module(module), cls)
        monkeypatch.setattr(owner, "encode", owner.encode)
    MUTATIONS[mutation][1]()
    result = _assert_memo_verdict_matches_oracle()
    assert result is not None and result.choices


def test_lowweight_with_a_stale_inverse_is_disqualified(monkeypatch):
    """A low-weight decoder whose inverse table disagrees with its
    encode table misdecodes: ``None`` in every region, as per fetch."""
    from repro.baselines.lowweight import LowWeightCodeEncoder

    rebuild = LowWeightCodeEncoder._rebuild_inverse

    def stale_inverse(self):
        rebuild(self)
        inverse = self._inverse[0]
        first, second = self._tables[0][0], self._tables[0][1]
        inverse[first], inverse[second] = inverse[second], inverse[first]

    monkeypatch.setattr(LowWeightCodeEncoder, "_rebuild_inverse", stale_inverse)
    result = _assert_memo_verdict_matches_oracle()
    for choice in result.choices:
        assert choice.candidates["low-weight"] is None
        assert choice.scheme != "low-weight"


def test_lowweight_missing_codeword_raises_as_per_fetch(monkeypatch):
    """An invalid codeword on the bus raises the whole-stretch decode's
    error, first invalid codeword included."""
    from repro.baselines.lowweight import LowWeightCodeEncoder

    rebuild = LowWeightCodeEncoder._rebuild_inverse

    def missing_codeword(self):
        rebuild(self)
        del self._inverse[0][self._tables[0][1]]

    monkeypatch.setattr(
        LowWeightCodeEncoder, "_rebuild_inverse", missing_codeword
    )
    assert _assert_memo_verdict_matches_oracle() is None


class _ScriptedCodec:
    """A bus codec whose decode of each piece is scripted: ``"ok"``,
    ``"wrong"`` (misdecodes) or ``"raise"`` (an invalid codeword)."""

    def __init__(self, script):
        self.script = script

    def encode(self, words, state=None):
        from repro.baselines.protocol import EncodedStream

        return EncodedStream(
            "scripted", 32, list(words), entry=state, exit=words[-1]
        )

    def decode(self, stream, state=None):
        verdict = self.script[stream.driven[0]]
        if verdict == "raise":
            raise EncodingError("invalid codeword")
        if verdict == "wrong":
            return [word ^ 1 for word in stream.driven]
        return list(stream.driven)


@pytest.mark.parametrize(
    "script, stretch_starts, outcome",
    (
        # a misdecode, then an invalid codeword later in the same
        # stretch: the whole-stretch decode raises before comparing
        (("wrong", "raise"), (True, False), "raise"),
        # ... but in the next stretch it is never decoded
        (("wrong", "raise"), (True, True), None),
        (("ok", "ok"), (True, False), 1),
    ),
)
def test_codec_cost_verdict_is_per_stretch(script, stretch_starts, outcome):
    words = [0, 1]
    codec = _ScriptedCodec(dict(enumerate(script)))
    groups = [
        (starts, True, ((4 * i, 1),), 1) for i, starts in enumerate(stretch_starts)
    ]
    if outcome == "raise":
        with pytest.raises(EncodingError):
            _codec_cost(codec, groups, words, 0)
    else:
        assert _codec_cost(codec, groups, words, 0) == outcome


# ----------------------------------------------------------------------
# Costing per run group against the per-occurrence walk
# ----------------------------------------------------------------------

def _flat_codec_cost(encoder, occurrences, words, base):
    """The per-occurrence loop the grouped cost replaced: one memo
    lookup per piece fetched, in fetch order."""
    memo = {}
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


def _verdict(cost, *args):
    try:
        return cost(*args)
    except EncodingError as error:
        return str(error)


#: Word values at pcs 0, 4, 8, ...; the scripted codec's state is the
#: last word it carried and its verdict is keyed by a piece's first word.
X, Y, W, V = 0, 1, 3, 5
SCRIPT = {X: "ok", Y: "ok", W: "wrong", V: "raise"}


@pytest.mark.parametrize(
    "words, groups",
    (
        # a lap with a stretch start inside, met again (a memo hit)
        # after a misdecode: the flat walk stops at its second piece
        # before the invalid codeword after it
        (
            [X, Y, X, W, X, V],
            [
                (True, True, ((0, 1),), 1),
                (False, True, ((4, 1), (8, 1)), 1),
                (True, True, ((12, 1),), 1),
                (False, True, ((16, 1),), 1),
                (False, True, ((4, 1), (8, 1)), 1),
                (False, True, ((20, 1),), 1),
            ],
        ),
        # a lap that misdecodes in its last piece and leaves the state
        # it entered in: its repeat starts a stretch inside too
        (
            [X, Y, W, X, V],
            [
                (True, True, ((0, 1),), 1),
                (False, False, ((4, 1), (8, 2)), 2),
                (False, True, ((16, 1),), 1),
            ],
        ),
        # a misdecoding lap whose repeats each start a stretch
        (
            [W, X, V],
            [(True, True, ((0, 1),), 2), (False, True, ((8, 1),), 1)],
        ),
    ),
)
def test_codec_cost_skips_no_stretch_start_after_a_misdecode(words, groups):
    codec = _ScriptedCodec(SCRIPT)
    flat = _expand_groups(groups)
    assert _flat_codec_cost(codec, flat, words, 0) is None
    assert _codec_cost(codec, groups, words, 0) is None


STATEFUL = [
    scheme for scheme in registered_schemes() if make_encoder(scheme).budget().stateful
]


@pytest.mark.parametrize("name", BENCHMARK_ORDER + EXTENDED_WORKLOADS)
def test_grouped_codec_cost_matches_flat_walk_on_registry_programs(
    monkeypatch, name
):
    """Every ``_codec_cost`` call of a selector run costs what the
    per-occurrence walk of its expanded groups costs."""
    from repro.pipeline import selector as selector_module

    calls = []

    def recording(encoder, groups, words, base):
        cost = _codec_cost(encoder, groups, words, base)
        calls.append((encoder.scheme, cost, encoder, groups, words, base))
        return cost

    monkeypatch.setattr(selector_module, "_codec_cost", recording)
    workload = build_workload(name)
    _, trace = workload.run()
    SchemeSelector(block_size=5).run(workload.assemble(), trace, name)
    assert {scheme for scheme, *_ in calls} == set(STATEFUL)
    for scheme, cost, encoder, groups, words, base in calls:
        flat = _flat_codec_cost(encoder, _expand_groups(groups), words, base)
        assert cost is not None and cost == flat, (name, scheme)


class _CyclingCodec:
    """A bus codec whose state counts the words it has carried, modulo
    ``period``, and offsets what it drives by it: a group's repeats
    cycle only after several laps.  Decoding a piece is scripted by its
    first word, as for :class:`_ScriptedCodec`."""

    def __init__(self, script, period):
        self.script = script
        self.period = period

    def encode(self, words, state=None):
        from repro.baselines.protocol import EncodedStream

        offset = state or 0
        return EncodedStream(
            "cycling",
            32,
            [word + offset for word in words],
            entry=state,
            exit=(offset + len(words)) % self.period,
        )

    def decode(self, stream, state=None):
        words = [word - (state or 0) for word in stream.driven]
        verdict = self.script[words[0]]
        if verdict == "raise":
            raise EncodingError("invalid codeword")
        if verdict == "wrong":
            return [word ^ 1 for word in words]
        return words


@given(
    looping_pc_lists(TEXT, BASE, max_laps=9),
    st.lists(st.sampled_from((None, BASE, BASE + 12)), min_size=TEXT, max_size=TEXT),
    st.lists(
        st.sampled_from(("ok", "ok", "ok", "wrong", "raise")),
        min_size=TEXT,
        max_size=TEXT,
    ),
    st.integers(min_value=1, max_value=5),
)
def test_grouped_codec_cost_matches_flat_walk(pcs, headers, script, period):
    """Costs, misdecode verdicts and raised errors agree with the
    per-occurrence walk on every region of looping traces, for the
    zoo's bus codecs and for a scripted codec whose state cycles with
    ``period``."""
    header_of = {
        BASE + 4 * i: header for i, header in enumerate(headers) if header is not None
    }
    words = [0x9E3779B9 * (i + 1) & 0xFFFFFFFF for i in range(TEXT)]
    codecs = [(make_encoder(scheme).fit(words), words) for scheme in STATEFUL]
    # the cycling codec's words index its script
    codecs.append((_CyclingCodec(script, period), list(range(TEXT))))
    groups = _region_groups(FetchTrace.from_addresses(pcs), header_of)
    for codec, text in codecs:
        for region in groups.values():
            flat = _expand_groups(region)
            assert _verdict(_codec_cost, codec, region, text, BASE) == (
                _verdict(_flat_codec_cost, codec, flat, text, BASE)
            )
