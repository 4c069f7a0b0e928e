"""Tests for the run-group ``decode_trace`` walk.

``FetchDecoder.decode_trace`` decodes each distinct run of the trace
once and routes full basic-block occurrences through one word-major
bitplane scan each, in every decoder mode.  The per-fetch walk
(:meth:`FetchDecoder.fetch` over every PC) is its oracle: the contract
is *bit-identical observable behaviour* — same decoded words, same
counters, same exceptions, same recover-mode events —
across hot-loop revisits, partial occurrences, branchy interleavings,
passthrough gaps, truncation, corrupted images and corrupted tables.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.baselines.memoryless import MemorylessCodebookEncoder
from repro.core.program_codec import encode_basic_block
from repro.errors import (
    DecodeFault,
    ReproError,
    SchemeTagError,
    TableIntegrityError,
)
from repro.faults.models import (
    BBITDoubleBitFlip,
    BBITStalePC,
    RunState,
    TTDoubleBitFlip,
)
from repro.hw.bbit import BasicBlockIdentificationTable, BBITEntry
from repro.hw.fetch_decoder import (
    DEFAULT_RECOVERY_EVENT_CAPACITY,
    SCHEME_TTBBIT,
    FetchDecoder,
)
from repro.hw.tt import TransformationTable
from repro.sim.tracer import FetchTrace
from tests.strategies import rng_for, seeded_blocks, seeded_deployment

BLOCK_SIZES = (2, 4, 5, 7)
MODES = ("strict", "recover")


def _decoder_for(
    deployment, mode="strict", capacity=DEFAULT_RECOVERY_EVENT_CAPACITY
):
    return FetchDecoder(
        deployment.tt,
        deployment.bbit,
        deployment.block_size,
        encoded_region=deployment.encoded_region,
        mode=mode,
        recovery_event_capacity=capacity,
        golden_lookup=deployment.golden_lookup,
    )


def _stats(decoder):
    return {
        "decoded": decoder.decoded_instructions,
        "passthrough": decoder.passthrough_instructions,
        "scheme_decoded": decoder.scheme_decoded_instructions,
        "tt_reads": decoder.tt_reads,
    }


def _walk(deployment, trace, lookup, finalize, bulk, decoder=None):
    """Decode ``trace`` on ``decoder`` (a fresh strict one by default),
    through ``decode_trace`` (``bulk``) or one :meth:`FetchDecoder.fetch`
    at a time from a reset engine, as ``decode_trace`` starts."""
    decoder = decoder or _decoder_for(deployment)
    if bulk:
        words = decoder.decode_trace(trace, lookup, finalize=finalize).expand()
    else:
        decoder.reset()
        words = [decoder.fetch(pc, lookup(pc)) for pc in trace]
        if finalize:
            decoder.finalize()
    return words, decoder


def _both_paths(deployment, trace, lookup=None, finalize=False):
    """Run the bulk and scalar walks on fresh decoders; return
    ((words, stats), (words, stats))."""
    lookup = lookup or deployment.image.__getitem__
    results = []
    for bulk in (True, False):
        words, decoder = _walk(deployment, trace, lookup, finalize, bulk)
        results.append((words, _stats(decoder)))
    return results


def _golden(deployment, trace):
    return [deployment.golden_lookup(pc) for pc in trace]


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_sequential_blocks_match_scalar(block_size):
    deployment = seeded_deployment(f"seq:{block_size}", block_size)
    trace = [
        pc
        for which in range(len(deployment.bases))
        for pc in deployment.trace_for(which)
    ]
    (bulk, bulk_stats), (scalar, scalar_stats) = _both_paths(
        deployment, trace
    )
    assert bulk == _golden(deployment, trace)
    assert bulk == scalar
    assert bulk_stats == scalar_stats


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_hot_loop_revisits_use_memo(block_size):
    # The same block fetched many times: the memo serves repeats, and
    # the architectural counters still advance per occurrence.
    deployment = seeded_deployment(f"hot:{block_size}", block_size)
    once = deployment.trace_for(0)
    trace = once * 25
    (bulk, bulk_stats), (scalar, scalar_stats) = _both_paths(
        deployment, trace
    )
    assert bulk == scalar == _golden(deployment, trace)
    assert bulk_stats == scalar_stats
    assert bulk_stats["decoded"] == len(trace)


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_branchy_interleaving_matches_scalar(block_size):
    # Random walk over the deployed blocks: full runs, early exits
    # (taken branches), immediate re-entries.
    deployment = seeded_deployment(f"branchy:{block_size}", block_size, 4)
    rng = rng_for("branchy-trace", block_size)
    trace = []
    for _ in range(60):
        which = rng.randrange(len(deployment.bases))
        full = deployment.trace_for(which)
        cut = rng.randint(1, len(full))
        trace.extend(full[:cut])
    (bulk, bulk_stats), (scalar, scalar_stats) = _both_paths(
        deployment, trace
    )
    assert bulk == scalar
    assert bulk_stats == scalar_stats


def test_passthrough_gap_between_blocks():
    # Unencoded addresses between block runs take the passthrough
    # path on both walks; counters agree.
    deployment = seeded_deployment("gap", 5)
    outside = 0x700000
    image = dict(deployment.image)
    plain = {outside + 4 * i: 0x12345678 + i for i in range(3)}
    image.update(plain)
    trace = (
        deployment.trace_for(0)
        + sorted(plain)
        + deployment.trace_for(1)
    )
    (bulk, bulk_stats), (scalar, scalar_stats) = _both_paths(
        deployment, trace, lookup=image.__getitem__
    )
    assert bulk == scalar
    assert bulk_stats == scalar_stats
    assert bulk_stats["passthrough"] == len(plain)


def test_mid_block_entry_raises_on_both_paths():
    deployment = seeded_deployment("midblock", 4)
    # Enter at the second instruction: inside the encoded region but
    # with no BBIT hit.
    trace = deployment.trace_for(0)[1:]
    for bulk in (True, False):
        with pytest.raises(DecodeFault, match="mid-block entry"):
            _walk(deployment, trace, deployment.image.__getitem__, False, bulk)


def test_truncated_trace_finalize_parity():
    # A trace that ends mid-block: without finalize both paths return
    # the prefix; with finalize both raise the same truncation fault.
    deployment = seeded_deployment("trunc", 5)
    full = deployment.trace_for(0)
    assert len(full) >= 3
    trace = full[:-1]
    (bulk, bulk_stats), (scalar, scalar_stats) = _both_paths(
        deployment, trace
    )
    assert bulk == scalar == _golden(deployment, trace)
    assert bulk_stats == scalar_stats

    messages = []
    for bulk in (True, False):
        with pytest.raises(DecodeFault) as excinfo:
            _walk(deployment, trace, deployment.image.__getitem__, True, bulk)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("block_size", (4, 7))
def test_corrupted_image_decodes_identically(block_size):
    # A flipped stored bit yields *wrong* words — but the same wrong
    # words on both paths (the scan is a pure function of the image).
    deployment = seeded_deployment(f"corrupt:{block_size}", block_size)
    trace = deployment.trace_for(0)
    image = dict(deployment.image)
    victim = trace[len(trace) // 2]
    image[victim] ^= 1 << 13
    (bulk, bulk_stats), (scalar, scalar_stats) = _both_paths(
        deployment, trace, lookup=image.__getitem__
    )
    assert bulk == scalar
    assert bulk_stats == scalar_stats
    assert bulk != _golden(deployment, trace)


def test_reuse_across_traces_resets_cleanly():
    # decode_trace resets the engine: back-to-back calls on one
    # decoder behave like calls on fresh decoders.
    deployment = seeded_deployment("reuse", 5)
    decoder = _decoder_for(deployment)
    for which in (0, 1, 0, 2):
        trace = deployment.trace_for(which)
        assert decoder.decode_trace(
            trace, deployment.image.__getitem__
        ).expand() == _golden(deployment, trace)


# ----------------------------------------------------------------------
# Per-run decode over FetchTrace input: random walks over the blocks
# ----------------------------------------------------------------------


@st.composite
def block_walks(draw, num_blocks: int = 4):
    """(block size, [(block, fetched prefix length)]): a walk that
    revisits blocks, leaves some early and re-enters others."""
    block_size = draw(st.sampled_from(BLOCK_SIZES))
    pieces = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_blocks - 1),
                st.integers(min_value=1, max_value=24),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return block_size, pieces


_WALK_DEPLOYMENTS = {}


def _walk_deployment(block_size):
    if block_size not in _WALK_DEPLOYMENTS:
        _WALK_DEPLOYMENTS[block_size] = seeded_deployment(
            f"runs:{block_size}", block_size, 4
        )
    return _WALK_DEPLOYMENTS[block_size]


def _pcs(deployment, pieces):
    trace = []
    for which, cut in pieces:
        trace.extend(deployment.trace_for(which)[:cut])
    return trace


def _fresh_walk_deployment(block_size):
    """A new copy of :func:`_walk_deployment`'s tables and image."""
    return seeded_deployment(f"runs:{block_size}", block_size, 4)


#: The fault campaign's own table injectors, by fault shape.
_TABLE_FAULTS = {
    "tt_double_bit": TTDoubleBitFlip(),
    "bbit_double_bit": BBITDoubleBitFlip(),
    "stale_bbit_tag": BBITStalePC(),
}


def _inject(deployment, fault, seed):
    state = RunState(deployment.tt, deployment.bbit, [], [], set(), 0)
    assert _TABLE_FAULTS[fault].inject(state, random.Random(seed)).applicable


def _outcome(
    deployment,
    trace,
    finalize,
    bulk,
    mode="strict",
    capacity=DEFAULT_RECOVERY_EVENT_CAPACITY,
):
    """Output (or raised fault) of one walk on a fresh decoder: its
    words, ``stats()`` in full (recover-mode events included), and the
    BBIT's hits and parity checks and both tables' parity failures.
    The tables' counters are cumulative and a fault changes their rows,
    so give every walk its own ``deployment``."""
    decoder = _decoder_for(deployment, mode, capacity)
    try:
        words, _ = _walk(
            deployment, trace, deployment.image.__getitem__, finalize, bulk, decoder
        )
    except ReproError as err:
        return (type(err), str(err))
    return (
        words,
        decoder.stats(),
        deployment.bbit.hits,
        deployment.bbit.parity_checks,
        deployment.bbit.parity_failures,
        deployment.tt.parity_failures,
    )


@settings(max_examples=120, deadline=None)
@given(block_walks(), st.sampled_from(MODES))
def test_fetch_trace_decode_matches_per_fetch_walk(walk, mode):
    block_size, pieces = walk
    pcs = _pcs(_walk_deployment(block_size), pieces)
    trace = FetchTrace.from_addresses(pcs)
    bulk = _outcome(_fresh_walk_deployment(block_size), trace, False, True, mode)
    scalar = _outcome(_fresh_walk_deployment(block_size), pcs, False, False, mode)
    assert bulk == scalar
    assert bulk[0] == _golden(_walk_deployment(block_size), pcs)


@settings(max_examples=200, deadline=None)
@given(block_walks(), st.sampled_from(MODES), st.data())
def test_fetch_trace_decode_faults_match_per_fetch_walk(walk, mode, data):
    block_size, pieces = walk
    deployment = _walk_deployment(block_size)
    pcs = _pcs(deployment, pieces)
    which = data.draw(st.integers(min_value=0, max_value=3))
    full = deployment.trace_for(which)
    fault = data.draw(st.sampled_from(("mid_block", "truncated", *_TABLE_FAULTS)))
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    capacity = data.draw(st.sampled_from((DEFAULT_RECOVERY_EVENT_CAPACITY, 2)))
    if fault == "mid_block":
        # Enter a block at its second instruction (not straight after
        # its first, which would continue the block), then fetch it
        # whole.
        assume(pcs[-1] != full[0])
        pcs = pcs + full[1:] + full
    elif fault == "truncated":
        # End the stream one instruction short of a block's end.
        pcs = pcs + full[:-1]
    else:
        # Fetch every block once more, so the corrupted row is read.
        pcs = pcs + _pcs(deployment, [(block, 99) for block in range(4)])

    def deploy():
        fresh = _fresh_walk_deployment(block_size)
        if fault not in ("mid_block", "truncated"):
            _inject(fresh, fault, seed)
        return fresh

    trace = FetchTrace.from_addresses(pcs)
    bulk = _outcome(deploy(), trace, True, True, mode, capacity)
    scalar = _outcome(deploy(), pcs, True, False, mode, capacity)
    assert bulk == scalar
    if mode == "strict":
        if fault in ("mid_block", "truncated"):
            assert bulk[0] is DecodeFault
    else:
        # recover mode never raises on a corrupted block
        assert isinstance(bulk[0], list)
        if fault in ("mid_block", "truncated"):
            assert bulk[1]["recoveries"] > 0


def test_repeated_last_run_leaves_its_own_engine_state():
    # The trace ends on a repeat of its first run, after a different
    # run in between: the engine must finish in the state that repeat
    # leaves (one instruction short of the block's end), not in the
    # state of the last distinct run decoded.
    deployment = _walk_deployment(5)
    full = deployment.trace_for(0)
    pcs = full[:-1] + full[:1] + full[:-1]
    trace = FetchTrace.from_addresses(pcs)
    bulk = _outcome(_fresh_walk_deployment(5), trace, True, True)
    scalar = _outcome(_fresh_walk_deployment(5), pcs, True, False)
    assert bulk == scalar
    assert bulk[0] is DecodeFault
    assert "has 1 instruction(s) undecoded" in bulk[1]


@pytest.mark.parametrize("mode", ("recover",))
def test_fetch_after_decode_trace_continues_the_walk(mode):
    # The trace ends on a reused run that entered block 0 mid-way and
    # stopped one fetch short of its end: the engine must be left in
    # that run's state (in recover mode, inside its pass-through run),
    # so a following fetch() continues exactly as the per-fetch walk.
    deployment = _fresh_walk_deployment(5)
    full = deployment.trace_for(0)
    pcs = full[1:-1] + deployment.trace_for(1) + full[1:-1]
    results = []
    for bulk in (True, False):
        fresh = _fresh_walk_deployment(5)
        decoder = _decoder_for(fresh, mode)
        words, _ = _walk(fresh, pcs, fresh.image.__getitem__, False, bulk, decoder)
        words.append(decoder.fetch(full[-1], fresh.image[full[-1]]))
        results.append((words, decoder.stats()))
    assert results[0] == results[1]
    assert results[0][1]["recoveries"] > 0


def _retag(deployment, offset):
    """Move block 0's BBIT row to a tag ``offset`` bytes past its start,
    with the check word of its true tag: one SEC-DED-correctable bit
    for the offsets used here."""
    bbit, base = deployment.bbit, deployment.bases[0]
    entry = bbit._by_pc.pop(base)
    bbit._by_pc[base + offset] = BBITEntry(
        base + offset, entry.tt_index, entry.num_instructions
    )
    bbit._parity[base + offset] = bbit._parity.pop(base)


@pytest.mark.parametrize("mode", MODES)
def test_group_whose_occurrences_decode_differently(mode):
    # Block 0's tag sits one word into the block.  In a group of four
    # occurrences the first faults at the block's start, and its probe
    # one word on corrects the tag; the second decodes cleanly and the
    # last two reuse it.
    def deploy():
        deployment = _fresh_walk_deployment(5)
        _retag(deployment, 4)
        return deployment

    pcs = _walk_deployment(5).trace_for(0) * 4
    bulk = _outcome(deploy(), FetchTrace.from_addresses(pcs), True, True, mode)
    scalar = _outcome(deploy(), pcs, True, False, mode)
    assert bulk == scalar
    if mode == "recover":
        # once corrected, the block decodes cleanly
        tail = pcs[len(pcs) // 4 :]
        assert bulk[0][-len(tail) :] == _golden(_walk_deployment(5), tail)
        assert bulk[1]["ecc_corrections"] == 1


def test_decode_that_corrects_a_row_is_not_reused():
    # Block 0's tag sits on an unencoded word outside it.  The first
    # probe there corrects the tag (moving the row away) and finds
    # nothing, with no fault; later probes there check no row at all.
    def deploy():
        deployment = _fresh_walk_deployment(5)
        _retag(deployment, 0x800)
        deployment.image[deployment.bases[0] + 0x800] = 0x1234
        return deployment

    stale = _walk_deployment(5).bases[0] + 0x800
    pcs = [stale] * 3 + _walk_deployment(5).trace_for(0)
    for mode in MODES:
        bulk = _outcome(deploy(), FetchTrace.from_addresses(pcs), True, True, mode)
        scalar = _outcome(deploy(), pcs, True, False, mode)
        assert bulk == scalar
        assert bulk[1]["ecc_corrections"] == 1


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_quarantined_bbit_row_raises_identically(block_size):
    # Strict mode raises at the probe; recover mode records the event
    # at every probe of it.
    def deploy():
        deployment = seeded_deployment(f"quarantine:{block_size}", block_size, 3)
        deployment.bbit.quarantined.add(deployment.bases[2])
        return deployment

    deployment = deploy()
    pcs = (deployment.trace_for(0) + deployment.trace_for(1)) * 3
    pcs += (deployment.trace_for(2) + deployment.trace_for(0)) * 2
    for mode in MODES:
        bulk = _outcome(deploy(), FetchTrace.from_addresses(pcs), False, True, mode)
        scalar = _outcome(deploy(), pcs, False, False, mode)
        assert bulk == scalar
        if mode == "strict":
            assert bulk[0] is TableIntegrityError
        else:
            assert bulk[1]["recovery_events"][0]["kind"] == "bbit_integrity"


# ----------------------------------------------------------------------
# Mixed-scheme traces: TT/BBIT, zoo and plain code in one walk
# ----------------------------------------------------------------------


class _MixedDeployment:
    """One contiguous image holding, in address order, a TT/BBIT block,
    a region recoded by a fitted memoryless codebook, a second TT/BBIT
    block, a bus-invert region (stored raw, passed through) and
    unencoded code, so sequential runs cross every kind of boundary."""

    BASE = 0x400000

    def __init__(self, block_size: int):
        tt_a, zoo, tt_b, codec, plain = seeded_blocks(
            f"mixed:{block_size}", 5, min_words=3
        )
        self.block_size = block_size
        self.tt = TransformationTable(capacity=64, parity=True)
        self.bbit = BasicBlockIdentificationTable(capacity=4, parity=True)
        recoder = MemorylessCodebookEncoder().fit(zoo)
        self.decoders = {"memoryless": recoder.decode_word, "bus-invert": None}
        self.golden: dict[int, int] = {}
        self.stored: dict[int, int] = {}
        self.encoded_region: set[int] = set()
        self.region_schemes: dict[int, str] = {}
        #: (first pc, length, scheme tag or None) per segment
        self.segments: list[tuple[int, int, str | None]] = []
        pc = self.BASE
        for words, tag in (
            (tt_a, SCHEME_TTBBIT),
            (zoo, "memoryless"),
            (tt_b, SCHEME_TTBBIT),
            (codec, "bus-invert"),
            (plain, None),
        ):
            pcs = range(pc, pc + 4 * len(words), 4)
            if tag == SCHEME_TTBBIT:
                encoding = encode_basic_block(words, block_size)
                index = self.tt.allocate(encoding)
                self.bbit.install(
                    BBITEntry(pc=pc, tt_index=index, num_instructions=len(words))
                )
                stored = encoding.encoded_words
                self.encoded_region.update(pcs)
            elif tag == "memoryless":
                stored = [recoder.encode_word(word) for word in words]
            else:
                stored = words
            self.golden.update(zip(pcs, words))
            self.stored.update(zip(pcs, stored))
            if tag is not None:
                self.region_schemes.update(dict.fromkeys(pcs, tag))
            self.segments.append((pc, len(words), tag))
            pc += 4 * len(words)
        self.end = pc

    def decoder(
        self,
        region_schemes=None,
        mode="strict",
        capacity=DEFAULT_RECOVERY_EVENT_CAPACITY,
    ) -> FetchDecoder:
        schemes = region_schemes or self.region_schemes
        return FetchDecoder(
            self.tt,
            self.bbit,
            self.block_size,
            encoded_region=set(self.encoded_region),
            mode=mode,
            recovery_event_capacity=capacity,
            golden_lookup=self.golden.__getitem__,
            region_schemes=schemes,
            region_word_decoders={
                pc: (tag, self.decoders[tag])
                for pc, tag in schemes.items()
                if tag in self.decoders
            },
        )


_MIXED_DEPLOYMENTS = {}


def _mixed_deployment(block_size):
    if block_size not in _MIXED_DEPLOYMENTS:
        _MIXED_DEPLOYMENTS[block_size] = _MixedDeployment(block_size)
    return _MIXED_DEPLOYMENTS[block_size]


@st.composite
def mixed_walks(draw):
    """(deployment, PC list): sequential runs that start at a segment's
    first PC (or anywhere inside a zoo or plain segment) and run for a
    drawn length, possibly across segment boundaries."""
    deployment = _mixed_deployment(draw(st.sampled_from(BLOCK_SIZES)))
    pcs: list[int] = []
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        first, length, tag = draw(st.sampled_from(deployment.segments))
        if tag != SCHEME_TTBBIT:
            first += 4 * draw(st.integers(min_value=0, max_value=length - 1))
        span = (deployment.end - first) // 4
        count = draw(st.integers(min_value=1, max_value=span))
        pcs.extend(range(first, first + 4 * count, 4))
    return deployment, pcs


def _mixed_outcome(
    deployment,
    trace,
    bulk,
    finalize=False,
    region_schemes=None,
    mode="strict",
    capacity=DEFAULT_RECOVERY_EVENT_CAPACITY,
):
    """Output (or raised fault), counters, BBIT probes, recover-mode
    events and golden-served fetches of one walk."""
    decoder = deployment.decoder(region_schemes, mode, capacity)
    bbit = deployment.bbit
    lookups, hits = bbit.lookups, bbit.hits
    lookup = deployment.stored.__getitem__
    try:
        if bulk:
            words = decoder.decode_trace(trace, lookup, finalize=finalize).expand()
        else:
            words = [decoder.fetch(pc, lookup(pc)) for pc in trace]
            if finalize:
                decoder.finalize()
    except ReproError as err:
        return (type(err), str(err))
    return (
        words,
        _stats(decoder),
        bbit.lookups - lookups,
        bbit.hits - hits,
        decoder.recovery_events,
        decoder.recovery_events_dropped,
        decoder.golden_served_instructions,
    )


@settings(max_examples=120, deadline=None)
@given(mixed_walks(), st.booleans())
def test_mixed_scheme_decode_matches_per_fetch_walk(walk, finalize):
    deployment, pcs = walk
    trace = FetchTrace.from_addresses(pcs)
    bulk = _mixed_outcome(deployment, trace, True, finalize)
    scalar = _mixed_outcome(deployment, pcs, False, finalize)
    assert bulk == scalar
    if isinstance(bulk[0], list):
        assert bulk[0] == [deployment.golden[pc] for pc in pcs]
    else:
        # only a trace ending inside a TT/BBIT block may fault
        assert finalize and bulk[0] is DecodeFault


@settings(max_examples=90, deadline=None)
@given(mixed_walks(), st.sampled_from(MODES), st.data())
def test_unknown_scheme_tag_raises_at_the_same_fetch(walk, mode, data):
    # Strict mode raises at the first fetch under the unknown tag;
    # recover mode records it there and serves golden words
    # (recover mode an event per fetch, which can overflow a small ring).
    deployment, pcs = walk
    capacity = data.draw(st.sampled_from((DEFAULT_RECOVERY_EVENT_CAPACITY, 2)))
    victim = data.draw(
        st.sampled_from(
            [segment for segment in deployment.segments if segment[2]]
        )
    )
    first, length, _ = victim
    region_schemes = dict(deployment.region_schemes)
    region_schemes.update(
        dict.fromkeys(range(first, first + 4 * length, 4), "no-such-scheme")
    )
    pcs = pcs + [first]
    trace = FetchTrace.from_addresses(pcs)
    bulk = _mixed_outcome(
        deployment, trace, True, False, region_schemes, mode, capacity
    )
    scalar = _mixed_outcome(
        deployment, pcs, False, False, region_schemes, mode, capacity
    )
    assert bulk == scalar
    faulting = next(pc for pc in pcs if pc in range(first, first + 4 * length, 4))
    message = f"unknown region scheme tag 'no-such-scheme' at {faulting:#010x}"
    if mode == "strict":
        assert bulk[0] is SchemeTagError
        assert bulk[1] == message
    else:
        assert bulk[0] == [deployment.golden[pc] for pc in pcs]
        if not bulk[5]:
            assert bulk[4][0] == {
                "kind": "scheme_tag",
                "pc": faulting,
                "message": message,
            }


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_zoo_tag_inside_a_tt_block_matches_per_fetch_walk(block_size):
    # A zoo tag on the tail of a TT/BBIT block takes those fetches out
    # of the TT engine; the bulk walk must not decode the block whole.
    deployment = _mixed_deployment(block_size)
    first, length, _ = deployment.segments[0]
    region_schemes = dict(deployment.region_schemes)
    region_schemes.update(
        dict.fromkeys(range(first + 4 * (length - 2), first + 4 * length, 4), "bus-invert")
    )
    pcs = list(range(first, deployment.end, 4)) * 2
    bulk = _mixed_outcome(
        deployment, FetchTrace.from_addresses(pcs), True, region_schemes=region_schemes
    )
    scalar = _mixed_outcome(deployment, pcs, False, region_schemes=region_schemes)
    assert bulk == scalar
    assert bulk[1]["passthrough"] > 0


def test_run_overflowing_the_event_ring_matches_per_fetch_walk():
    # Under an unknown tag every fetch of the zoo region is a recover
    # event, so one run fires more events than a two-slot ring keeps;
    # its later occurrences must still count every event.
    deployment = _mixed_deployment(5)
    first, length, _ = deployment.segments[1]
    assert length > 2
    region = range(first, first + 4 * length, 4)
    region_schemes = dict(deployment.region_schemes)
    region_schemes.update(dict.fromkeys(region, "no-such-scheme"))
    pcs = list(region) * 3
    outcomes = [
        _mixed_outcome(
            deployment, pcs, bulk, False, region_schemes, "recover", capacity=2
        )
        for bulk in (True, False)
    ]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][5] == 3 * length - 2
