"""The zoo's fit and code paths count and code once per distinct value;
these tests hold them to the per-transfer definitions they replaced.

Each oracle below is the earlier per-fetch implementation, kept inline
so the comparison does not depend on the code under test:

* ``exact_assignment`` tries only code 0 for the first placed value
  (XOR translation preserves every pairwise distance).  It must return
  the *same dict* as the unrestricted search and a lexicographic brute
  force, not merely an equal cost: the tie-break decides the bundle
  bytes.
* ``LowWeightCodeEncoder.fit`` and ``MemorylessCodebookEncoder.fit``
  count distinct differences / word pairs; their ``to_config()`` must
  equal per-transfer counting on every stream, including the empty,
  one-word and all-equal streams and streams dense enough to take the
  memoryless greedy path.
* ``encode``/``decode`` memoise per distinct word, difference or
  codeword; their output must equal the per-word path, and an invalid
  low-weight codeword must raise the same error.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.gray import GrayEncoder
from repro.baselines.lowweight import (
    CHUNK_WIDTH,
    CODE_WIDTH,
    CODEWORDS,
    LowWeightCodeEncoder,
)
from repro.baselines.memoryless import (
    MemorylessCodebookEncoder,
    exact_assignment,
    greedy_assignment,
)
from repro.baselines.protocol import EncodedStream
from repro.errors import EncodingError

# ----------------------------------------------------------------------
# Oracles: the per-transfer definitions
# ----------------------------------------------------------------------


def _key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def oracle_exact_assignment(distinct, weights, code_space):
    """Unrestricted branch and bound: every code for every value."""
    n = len(distinct)
    pair_w = [
        [weights.get(_key(distinct[i], distinct[j]), 0) for j in range(n)]
        for i in range(n)
    ]
    best_cost = [float("inf")]
    best: list[list[int]] = [[]]
    chosen: list[int] = []
    used = [False] * code_space

    def walk(i: int, cost: int) -> None:
        if cost >= best_cost[0]:
            return
        if i == n:
            best_cost[0] = cost
            best[0] = list(chosen)
            return
        for code in range(code_space):
            if used[code]:
                continue
            step = cost
            for j in range(i):
                if pair_w[i][j]:
                    step += pair_w[i][j] * (code ^ chosen[j]).bit_count()
            if step >= best_cost[0]:
                continue
            used[code] = True
            chosen.append(code)
            walk(i + 1, step)
            chosen.pop()
            used[code] = False

    walk(0, 0)
    return dict(zip(distinct, best[0]))


def brute_force_assignment(distinct, weights, code_space):
    """First minimum over injective assignments in lexicographic order."""
    best_cost, best = None, None
    for codes in permutations(range(code_space), len(distinct)):
        cost = sum(
            weights.get(_key(distinct[i], distinct[j]), 0)
            * (codes[i] ^ codes[j]).bit_count()
            for i in range(len(distinct))
            for j in range(i)
        )
        if best_cost is None or cost < best_cost:
            best_cost, best = cost, codes
    return dict(zip(distinct, best))


def oracle_lowweight_config(words, width=32):
    """Per-transfer, per-position chunk counting."""
    enc = LowWeightCodeEncoder(width)
    diffs = enc._differences(words)[1:]
    size = 1 << CHUNK_WIDTH
    tables = []
    for pos in range(enc.num_chunks):
        counts = Counter(enc._chunks(d)[pos] for d in diffs)
        ranked = sorted(range(size), key=lambda v: (-counts[v], v))
        table = [0] * size
        for rank, value in enumerate(ranked):
            table[value] = CODEWORDS[rank]
        tables.append(table)
    return {"width": width, "tables": tables}


def oracle_memoryless_config(words, width=32, subbus_width=4, max_exact=5):
    """Per-transfer pair counting on each sub-bus's value sequence,
    solved by the unrestricted exact search."""
    enc = MemorylessCodebookEncoder(width, subbus_width, max_exact)
    size = 1 << subbus_width
    maps = []
    for bus in range(enc.num_subbuses):
        values = enc.subbus_values(words, bus)
        weights: dict[tuple[int, int], int] = {}
        for a, b in zip(values, values[1:]):
            if a != b:
                weights[_key(a, b)] = weights.get(_key(a, b), 0) + 1

        def incident(v: int) -> int:
            return sum(w for (a, b), w in weights.items() if v in (a, b))

        distinct = sorted(set(values), key=lambda v: (-incident(v), v))
        if len(distinct) <= max_exact:
            assignment = oracle_exact_assignment(distinct, weights, size)
        else:
            assignment = greedy_assignment(distinct, weights, size)
        leftovers = iter(c for c in range(size) if c not in assignment.values())
        maps.append(
            [assignment[v] if v in assignment else next(leftovers) for v in range(size)]
        )
    return {
        "width": width,
        "subbus_width": subbus_width,
        "max_exact": max_exact,
        "maps": maps,
    }


def oracle_lowweight_encode(enc, words):
    driven, out = 0, []
    for diff in enc._differences(words):
        driven ^= enc._codeword(diff)
        out.append(driven)
    return out


def oracle_lowweight_decode(enc, driven_values):
    out, prev, word = [], 0, 0
    code_mask = (1 << CODE_WIDTH) - 1
    for driven in driven_values:
        codeword = driven ^ prev
        diff = 0
        for pos in range(enc.num_chunks):
            code = (codeword >> (pos * CODE_WIDTH)) & code_mask
            try:
                value = enc._inverse[pos][code]
            except KeyError:
                raise EncodingError(
                    f"invalid low-weight codeword {code:#07b} at chunk {pos}"
                ) from None
            diff |= value << (pos * CHUNK_WIDTH)
        word ^= diff
        out.append(word)
        prev = driven
    return out


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------

#: fetch streams drawn from a small pool of words, so values repeat the
#: way a hot loop's fetches do; pools of more than 5 words usually give
#: some sub-bus more than 5 distinct values (the greedy path)
fetch_streams = st.lists(
    st.integers(min_value=0, max_value=(1 << 32) - 1), min_size=1, max_size=12
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=60))

EMPTY: list[int] = []
ONE_WORD = [0x8C420004]
ALL_EQUAL = [0x01AE0010] * 9
#: every value on every sub-bus: the greedy path on all eight
DENSE = [0x11111111 * v for v in range(16)] * 2


# ----------------------------------------------------------------------
# exact_assignment
# ----------------------------------------------------------------------


def _random_graph(rng: random.Random, code_space: int):
    n = rng.randint(0, 5)
    distinct = rng.sample(range(code_space), min(n, code_space))
    weights = {}
    for i in range(len(distinct)):
        for j in range(i):
            if rng.random() < 0.7:
                # small weights make ties, which exercise the tie-break
                weights[_key(distinct[i], distinct[j])] = rng.randint(1, 4)
    return distinct, weights


class TestExactAssignment:
    # the unrestricted search is slow on 16 codes; fewer graphs there
    @pytest.mark.parametrize("code_space,graphs", [(4, 300), (8, 300), (16, 60)])
    def test_same_map_as_unrestricted_search(self, code_space, graphs):
        rng = random.Random(f"exact-assignment:{code_space}")
        for _ in range(graphs):
            distinct, weights = _random_graph(rng, code_space)
            assert exact_assignment(distinct, weights, code_space) == (
                oracle_exact_assignment(distinct, weights, code_space)
            ), (distinct, weights)

    @pytest.mark.parametrize("code_space", [4, 8])
    def test_same_map_as_lexicographic_brute_force(self, code_space):
        rng = random.Random(f"exact-brute-force:{code_space}")
        for _ in range(150):
            distinct, weights = _random_graph(rng, code_space)
            assert exact_assignment(distinct, weights, code_space) == (
                brute_force_assignment(distinct, weights, code_space)
            ), (distinct, weights)

    def test_first_value_takes_code_zero(self):
        rng = random.Random("exact-first-code")
        for _ in range(100):
            distinct, weights = _random_graph(rng, 16)
            if distinct:
                assert exact_assignment(distinct, weights, 16)[distinct[0]] == 0


# ----------------------------------------------------------------------
# fits
# ----------------------------------------------------------------------


class TestFitsMatchPerTransferCounting:
    @settings(max_examples=120, deadline=None)
    @given(fetch_streams)
    @example(EMPTY)
    @example(ONE_WORD)
    @example(ALL_EQUAL)
    @example(DENSE)
    def test_lowweight_fit(self, words):
        assert LowWeightCodeEncoder().fit(words).to_config() == (
            oracle_lowweight_config(words)
        )

    @settings(max_examples=120, deadline=None)
    @given(fetch_streams)
    @example(EMPTY)
    @example(ONE_WORD)
    @example(ALL_EQUAL)
    @example(DENSE)
    def test_memoryless_fit(self, words):
        assert MemorylessCodebookEncoder().fit(words).to_config() == (
            oracle_memoryless_config(words)
        )

    def test_streams_reach_both_memoryless_paths(self):
        """The examples above cover the exact and the greedy path."""
        enc = MemorylessCodebookEncoder()
        small = {(w >> 4) & 0xF for w in ALL_EQUAL + ONE_WORD}
        dense = {(w >> 4) & 0xF for w in DENSE}
        assert len(small) <= enc.max_exact < len(dense)


# ----------------------------------------------------------------------
# memoised encode / decode
# ----------------------------------------------------------------------


class TestMemoisedCodeMatchesPerWord:
    @settings(max_examples=80, deadline=None)
    @given(fetch_streams, fetch_streams)
    @example(EMPTY, EMPTY)
    @example(ONE_WORD, DENSE)
    def test_stateless_recoders(self, profile, words):
        for enc in (MemorylessCodebookEncoder().fit(profile), GrayEncoder()):
            stream = enc.encode(words)
            assert stream.driven == [enc.encode_word(w) for w in words]
            assert enc.decode(stream) == [enc.decode_word(w) for w in stream.driven]

    @settings(max_examples=80, deadline=None)
    @given(fetch_streams, fetch_streams)
    @example(EMPTY, EMPTY)
    @example(ONE_WORD, DENSE)
    def test_lowweight(self, profile, words):
        enc = LowWeightCodeEncoder().fit(profile)
        stream = enc.encode(words)
        assert stream.driven == oracle_lowweight_encode(enc, words)
        assert enc.decode(stream) == oracle_lowweight_decode(enc, stream.driven)

    def test_lowweight_invalid_codeword_raises_the_same_error(self):
        enc = LowWeightCodeEncoder().fit([3, 5, 3, 5, 9])
        valid = enc.encode([3, 5, 3]).driven
        # two different invalid codewords; the first on the bus is reported
        bad = valid + [valid[-1] ^ (0b11111 << CODE_WIDTH), valid[-1] ^ 0b01111]
        with pytest.raises(EncodingError) as expected:
            oracle_lowweight_decode(enc, bad)
        with pytest.raises(EncodingError) as actual:
            enc.decode(EncodedStream(enc.scheme, 40, bad))
        assert str(actual.value) == str(expected.value)
