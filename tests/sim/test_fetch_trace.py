"""Properties of the grouped run-length :class:`FetchTrace` against
plain PC lists (the per-fetch oracle), of :class:`DecodedTrace`, of the
per-group :meth:`FetchTrace.matches` compare, and of the transition
counts read from a trace."""

from __future__ import annotations

from collections import Counter
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.sim.bus import count_trace_transitions, per_line_trace_transitions
from repro.sim.tracer import DecodedTrace, FetchTrace
from tests.strategies import fetch_pc_lists, looping_pc_lists

TEXT_WORDS = 48
PROGRAM = assemble(".text\nmain:\n" + "nop\n" * TEXT_WORDS)
BASE = PROGRAM.text_base

images = st.lists(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    min_size=TEXT_WORDS,
    max_size=TEXT_WORDS,
)

#: Branchy traces, and self-loop traces over a small text so that
#: stretches often repeat or continue each other.
pc_lists = st.one_of(
    fetch_pc_lists(TEXT_WORDS, BASE),
    looping_pc_lists(TEXT_WORDS, BASE),
    looping_pc_lists(6, BASE),
)


def _reference_transitions(trace: list[int], image: list[int]) -> int:
    """Per-fetch popcount of consecutive bus words."""
    words = [image[(pc - BASE) >> 2] for pc in trace]
    return sum(bin(a ^ b).count("1") for a, b in zip(words, words[1:]))


def _runs(pcs: list[int]) -> list[tuple[int, int]]:
    """The maximal sequential runs of ``pcs``, one per occurrence."""
    runs: list[list[int]] = []
    for pc in pcs:
        if runs and pc == runs[-1][0] + 4 * runs[-1][1]:
            runs[-1][1] += 1
        else:
            runs.append([pc, 1])
    return [tuple(run) for run in runs]


def _groups(pcs: list[int]) -> list[tuple[int, int, int]]:
    """``_runs`` with back-to-back repeats counted."""
    groups: list[list] = []
    for run in _runs(pcs):
        if groups and groups[-1][0] == run:
            groups[-1][1] += 1
        else:
            groups.append([run, 1])
    return [(start, length, times) for (start, length), times in groups]


def _entries(trace: FetchTrace) -> list[tuple[int, int, int]]:
    return list(zip(trace.starts, trace.lengths, trace.repeats))


# ----------------------------------------------------------------------
# The grouped trace


@given(pc_lists)
def test_round_trip(pcs):
    trace = FetchTrace.from_addresses(pcs)
    assert trace.expand() == pcs
    assert list(trace) == pcs
    assert len(trace) == len(pcs)
    assert sum(map(mul, trace.lengths, trace.repeats)) == len(pcs)
    assert sum(trace.run_counts().values()) == sum(trace.repeats) == len(_runs(pcs))


@given(pc_lists)
def test_runs_are_maximal_and_canonical(pcs):
    trace = FetchTrace.from_addresses(pcs)
    assert _entries(trace) == _groups(pcs)
    assert all(times >= 1 for times in trace.repeats)
    for i in range(1, len(trace.starts)):
        assert trace.starts[i] != trace.starts[i - 1] + 4 * trace.lengths[i - 1]
        assert (trace.starts[i], trace.lengths[i]) != (
            trace.starts[i - 1],
            trace.lengths[i - 1],
        )
    rebuilt = FetchTrace()
    for start, length in _runs(pcs):
        rebuilt.append_runs([start], [length], [1])
    assert rebuilt == trace


@given(pc_lists, st.data())
def test_split_and_append_equals_the_whole(pcs, data):
    # Cut anywhere, even inside an occurrence of a repeated run: the
    # appended half's first run continues the last occurrence of the
    # first half's last group, and may then repeat the merged run.
    cut = data.draw(st.integers(min_value=0, max_value=len(pcs)))
    trace = FetchTrace.from_addresses(pcs[:cut])
    tail = FetchTrace.from_addresses(pcs[cut:])
    trace.fetch_counts()  # appending must drop the cached counts
    trace.append_runs(tail.starts, tail.lengths, tail.repeats)
    whole = FetchTrace.from_addresses(pcs)
    assert trace == whole
    assert len(trace) == len(pcs)
    assert trace.fetch_counts() == Counter(pcs)


@pytest.mark.parametrize(
    "appended, entries",
    [
        # continues the last of three laps: two laps stay grouped
        ([(BASE + 8, 2, 1)], [(BASE, 2, 2), (BASE, 4, 1)]),
        # continues it, then the merged run repeats twice more
        (
            [(BASE + 8, 2, 1), (BASE, 4, 2)],
            [(BASE, 2, 2), (BASE, 4, 3)],
        ),
        # continues it with a repeated run: its later laps stay a group
        (
            [(BASE + 8, 2, 3)],
            [(BASE, 2, 2), (BASE, 4, 1), (BASE + 8, 2, 2)],
        ),
        # repeats the last run: the laps add up
        ([(BASE, 2, 4), (BASE + 40, 1, 1)], [(BASE, 2, 7), (BASE + 40, 1, 1)]),
    ],
)
def test_append_to_a_repeated_group(appended, entries):
    trace = FetchTrace.from_addresses([BASE, BASE + 4] * 3)
    assert _entries(trace) == [(BASE, 2, 3)]
    starts, lengths, repeats = (list(column) for column in zip(*appended))
    trace.append_runs(starts, lengths, repeats)
    assert _entries(trace) == entries
    pcs = [BASE, BASE + 4] * 3
    for start, length, times in appended:
        pcs += list(range(start, start + 4 * length, 4)) * times
    assert trace == FetchTrace.from_addresses(pcs)
    assert len(trace) == len(pcs)


@given(pc_lists, pc_lists)
def test_equality_is_per_fetch(a, b):
    assert (FetchTrace.from_addresses(a) == FetchTrace.from_addresses(b)) == (
        a == b
    )


@given(pc_lists)
def test_counts_match_per_fetch_counting(pcs):
    trace = FetchTrace.from_addresses(pcs)
    runs = _runs(pcs)
    assert trace.fetch_counts() == Counter(pcs)
    assert trace.edge_counts() == Counter(zip(pcs, pcs[1:]))
    assert trace.run_counts() == Counter(runs)
    # Key order is part of the contract: fits read the counts in it.
    assert list(trace.run_counts()) == list(dict.fromkeys(runs))
    sequential = [
        (pc, pc + 4)
        for start, length in dict.fromkeys(runs)
        for pc in range(start, start + 4 * (length - 1), 4)
    ]
    jumps = [
        (start + 4 * (length - 1), following)
        for (start, length), (following, _) in zip(runs, runs[1:])
    ]
    assert list(trace.edge_counts()) == list(dict.fromkeys(sequential + jumps))


@settings(max_examples=150)
@given(pc_lists, images)
def test_transitions_match_per_fetch_reference(pcs, image):
    assert count_trace_transitions(PROGRAM, pcs, image) == _reference_transitions(
        pcs, image
    )
    per_line = per_line_trace_transitions(PROGRAM, pcs, image)
    words = [image[(pc - BASE) >> 2] for pc in pcs]
    for bit, toggles in enumerate(per_line):
        assert toggles == sum(
            ((a ^ b) >> bit) & 1 for a, b in zip(words, words[1:])
        )


@given(
    fetch_pc_lists(TEXT_WORDS, BASE),
    st.sampled_from((BASE - 4, BASE + 4 * TEXT_WORDS, 0)),
    st.data(),
)
def test_out_of_text_address_raises(pcs, outside, data):
    at = data.draw(st.integers(min_value=0, max_value=len(pcs)))
    with pytest.raises(ValueError):
        count_trace_transitions(PROGRAM, pcs[:at] + [outside] + pcs[at:])


# ----------------------------------------------------------------------
# The decoded stream

entry_lists = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=3), max_size=4),
        st.integers(min_value=1, max_value=4),
    ),
    max_size=6,
)


def _decoded(entries) -> DecodedTrace:
    return DecodedTrace([list(w) for w, _ in entries], [t for _, t in entries])


@given(entry_lists)
def test_decoded_trace_per_fetch_views(entries):
    flat = [word for words, times in entries for _ in range(times) for word in words]
    decoded = _decoded(entries)
    assert decoded.expand() == flat
    assert list(decoded) == flat
    assert len(decoded) == len(flat)
    assert DecodedTrace([flat], [1]).expand() == flat
    assert decoded == DecodedTrace([flat], [1])


@given(entry_lists, entry_lists)
def test_decoded_trace_equality_is_per_fetch(a, b):
    assert (_decoded(a) == _decoded(b)) == (_decoded(a).expand() == _decoded(b).expand())


@pytest.mark.parametrize("repeats", ([0], [-1], [1, 2]))
def test_decoded_trace_rejects_bad_repeat_counts(repeats):
    with pytest.raises(ValueError):
        DecodedTrace([[1]], repeats)


# ----------------------------------------------------------------------
# matches: per group, with the per-fetch compare's verdict


def _per_fetch_verdict(trace: FetchTrace, decoded: DecodedTrace, image) -> bool:
    return decoded.expand() == [image[(pc - BASE) >> 2] for pc in trace]


def _strict_shape(trace: FetchTrace, image) -> DecodedTrace:
    """The decoded stream the strict walk returns for a clean image:
    one entry per group."""
    return DecodedTrace(
        [
            image[(start - BASE) >> 2 : ((start - BASE) >> 2) + length]
            for start, length in zip(trace.starts, trace.lengths)
        ],
        list(trace.repeats),
    )


def _regroup(flat: list[int], cuts: list[int]) -> DecodedTrace:
    """``flat`` cut at ``cuts``, adjacent equal pieces grouped."""
    pieces: list[list[int]] = []
    repeats: list[int] = []
    bounds = [0] + sorted(set(cuts)) + [len(flat)]
    for lo, hi in zip(bounds, bounds[1:]):
        piece = flat[lo:hi]
        if pieces and pieces[-1] == piece:
            repeats[-1] += 1
        elif piece:
            pieces.append(piece)
            repeats.append(1)
    return DecodedTrace(pieces, repeats)


@given(pc_lists, images, st.data())
def test_matches_per_group_with_the_strict_shape(pcs, image, data):
    # One entry per group, as the strict walk returns: a wrong word in
    # any group's entry (so in each of its occurrences) is caught.
    trace = FetchTrace.from_addresses(pcs)
    decoded = _strict_shape(trace, image)
    assert trace.matches(decoded, image, BASE)
    if pcs:
        group = data.draw(st.integers(min_value=0, max_value=len(trace.starts) - 1))
        words = decoded.words[group] = list(decoded.words[group])
        words[data.draw(st.integers(min_value=0, max_value=len(words) - 1))] ^= 1
        assert not trace.matches(decoded, image, BASE)
        assert not _per_fetch_verdict(trace, decoded, image)


@settings(max_examples=200)
@given(pc_lists, images, st.data())
def test_matches_equals_per_fetch_compare(pcs, image, data):
    # Any other grouping of a correct, corrupted, shortened or
    # lengthened stream.
    trace = FetchTrace.from_addresses(pcs)
    flat = _strict_shape(trace, image).expand()
    if flat and data.draw(st.booleans()):
        at = data.draw(st.integers(min_value=0, max_value=len(flat) - 1))
        flat[at] ^= 1 << data.draw(st.integers(min_value=0, max_value=31))
    edit = data.draw(st.sampled_from(("none", "drop", "extra")))
    if edit == "drop" and flat:
        del flat[data.draw(st.integers(min_value=0, max_value=len(flat) - 1))]
    elif edit == "extra":
        flat.insert(data.draw(st.integers(min_value=0, max_value=len(flat))), 7)
    cuts = data.draw(
        st.lists(st.integers(min_value=0, max_value=len(flat)), max_size=12)
    )
    decoded = _regroup(flat, cuts)
    assert trace.matches(decoded, image, BASE) == _per_fetch_verdict(
        trace, decoded, image
    )


#: Group ``A`` (3 words) x4, ``B`` (2 words) x1, ``A`` x2.
A = [BASE + 4 * i for i in range(3)]
B = [BASE + 40, BASE + 44]
LOOP = FetchTrace.from_addresses(A * 4 + B + A * 2)
IMAGE = [0x1000 + 17 * i for i in range(TEXT_WORDS)]


def _words(pcs):
    return [IMAGE[(pc - BASE) >> 2] for pc in pcs]


def _flip(words, at=1):
    out = list(words)
    out[at] ^= 1 << 9
    return out


WA, WB = _words(A), _words(B)

MATCHES_CASES = {
    "clean": (_decoded([(WA, 4), (WB, 1), (WA, 2)]), True),
    "split_but_equal": (_decoded([(WA, 1), (WA, 3), (WB, 1), (WA, 2)]), True),
    "one_flat_entry": (DecodedTrace([WA * 4 + WB + WA * 2], [1]), True),
    "corrupt_first_of_group": (
        _decoded([(_flip(WA), 1), (WA, 3), (WB, 1), (WA, 2)]),
        False,
    ),
    "corrupt_middle_of_group": (
        _decoded([(WA, 1), (_flip(WA), 1), (WA, 2), (WB, 1), (WA, 2)]),
        False,
    ),
    "corrupt_last_of_group": (
        _decoded([(WA, 3), (_flip(WA), 1), (WB, 1), (WA, 2)]),
        False,
    ),
    "corrupt_whole_group": (_decoded([(_flip(WA), 4), (WB, 1), (WA, 2)]), False),
    "corrupt_group_of_one": (_decoded([(WA, 4), (_flip(WB, 0), 1), (WA, 2)]), False),
    "corrupt_last_of_trace": (
        _decoded([(WA, 4), (WB, 1), (WA, 1), (_flip(WA, 2), 1)]),
        False,
    ),
    "wrong_repeat_count_same_length": (_decoded([(WA, 3), (WB, 1), (WA, 3)]), False),
    "wrong_repeat_count": (_decoded([(WA, 5), (WB, 1), (WA, 2)]), False),
    "one_fetch_too_many": (_decoded([(WA, 4), (WB, 1), (WA, 2), ([IMAGE[3]], 1)]), False),
    "one_fetch_too_few": (_decoded([(WA, 4), (WB, 1), (WA, 1), (WA[:2], 1)]), False),
    "misaligned_but_equal": (
        _decoded([(WA + WA[:1], 1), (WA[1:], 1), (WA, 2), (WB, 1), (WA, 2)]),
        True,
    ),
    "shifted_by_one": (
        _decoded([(WA + WB[:1], 1), (WA[1:], 3), (WB[1:], 1), (WA, 2)]),
        False,
    ),
}


@pytest.mark.parametrize("case", sorted(MATCHES_CASES))
def test_matches_cases(case):
    decoded, verdict = MATCHES_CASES[case]
    assert _per_fetch_verdict(LOOP, decoded, IMAGE) is verdict
    assert LOOP.matches(decoded, IMAGE, BASE) is verdict
