"""Memoryless minimum-transition codebook encoding.

After Chee, Colbourn & Ling, *Optimal Memoryless Encoding for Low
Power Off-Chip Data Buses* (arXiv:0712.2640): a memoryless code is a
fixed bijective remapping of bus values — no history, no extra lines —
chosen to minimise the expected number of transitions under the
observed word-pair distribution.  Finding the optimal remap for a full
32-bit bus is intractable, but the problem decomposes: the Hamming
distance of a 32-bit transfer is the sum of independent per-sub-bus
distances, so we split the bus into narrow sub-buses (4 lines by
default) and solve each one against its own transition graph.

Per sub-bus, ``fit`` counts how often each unordered pair of sub-bus
values appears on consecutive transfers (the weighted transition
graph), then assigns codewords:

* **exact** when at most ``max_exact`` distinct values occur — a
  branch-and-bound search over injective assignments of values to the
  ``2**subbus_width`` codewords, minimising
  ``sum(weight(u, v) * popcount(code(u) ^ code(v)))``.  This is the
  regime the paper's optimality result covers; the golden-vector tests
  cross-check it against brute force.  The symmetries of the Hamming
  distance (XOR translation, bit permutation) fix the first value at
  code 0 and leave the second only the codes ``2**w - 1``; a bound
  charging every unplaced pair its weight cuts the rest.  Neither cut
  changes which optimum is returned.
* **greedy** otherwise — the value with the heaviest incident weight
  goes first, at code 0; then the value most heavily coupled to the
  placed ones (a running total per value) takes the free codeword with
  the least weighted distance to its placed neighbours.

Values never seen in the profile get the leftover codewords in
deterministic order, so the map is always a bijection and the encoder
is deployable: stored words are rewritten in the image and each fetch
decodes independently through the inverse tables.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.baselines.protocol import (
    EncodedStream,
    Encoder,
    HardwareBudget,
    TrafficCounts,
    register_encoder,
    register_reference_counter,
)
from repro.core.transitions import word_transitions
from repro.errors import EncodingError


def _key(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a < b else (b, a)


def exact_assignment(
    distinct: Sequence[int],
    weights: Dict[Tuple[int, int], int],
    code_space: int,
) -> Dict[int, int]:
    """Optimal injective value->codeword map by branch and bound.

    ``distinct`` fixes the placement order; candidate codewords are
    tried in ascending order and a branch is cut only when it cannot
    beat the best cost found so far, so the result is the
    lexicographically first optimum.  The bound charges every pair not
    yet placed its weight: its two codes differ, so it costs at least
    that.

    On a power-of-two ``code_space`` two symmetries of the Hamming
    distance shrink the first two levels without losing that optimum.
    XOR-translating every codeword by one constant keeps every
    distance, so translating the optimum by its first codeword gives
    one no later in the order: the first value takes code 0.  Permuting
    bit positions keeps every distance and code 0, and can move the
    second value's code, of weight ``w``, onto ``2**w - 1``, the least
    code of that weight: the second value tries only 1, 3, 7, ...
    """
    n = len(distinct)
    # edges[i]: value i's nonzero weights to the values placed before it
    edges: list[list[tuple[int, int]]] = []
    for i, value in enumerate(distinct):
        row = [(j, weights.get(_key(value, distinct[j]), 0)) for j in range(i)]
        edges.append([(j, w) for j, w in row if w])
    # rest[i]: the least cost of the pairs whose later value is i or after
    rest = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        rest[i] = rest[i + 1] + sum(w for _, w in edges[i])
    if code_space & (code_space - 1) == 0:
        width = code_space.bit_length() - 1
        first_codes = [(0,), [(2 << b) - 1 for b in range(width)]]
    else:
        first_codes = [range(code_space)] * 2
    best_cost = rest[0] * code_space.bit_length() + 1  # above every cost
    best: list[int] = []
    chosen = [0] * n
    used = [False] * code_space

    def walk(i: int, cost: int) -> None:
        nonlocal best_cost, best
        if i == n:
            best_cost, best = cost, chosen[:]
            return
        for code in first_codes[i] if i < 2 else range(code_space):
            if used[code]:
                continue
            step = cost + rest[i + 1]
            for j, w in edges[i]:
                step += w * (code ^ chosen[j]).bit_count()
            if step >= best_cost:
                continue
            used[code] = True
            chosen[i] = code
            walk(i + 1, step - rest[i + 1])
            used[code] = False

    walk(0, 0)
    return dict(zip(distinct, best))


def greedy_assignment(
    distinct: Sequence[int],
    weights: Dict[Tuple[int, int], int],
    code_space: int,
) -> Dict[int, int]:
    """Heuristic value->codeword map for dense transition graphs.

    ``weights`` holds pairs ``(u, v)``, ``u < v``, of ``distinct``
    values, as ``fit`` builds them.  The first value of ``distinct``
    takes code 0.  Each next value is the one most heavily coupled to
    the values already placed (the lower value on a tie) and takes the
    lowest free code with the least weighted distance to its placed
    neighbours.  Couplings are running totals, raised along each placed
    value's adjacency list."""
    adjacency: Dict[int, list[tuple[int, int]]] = {v: [] for v in distinct}
    for (u, v), w in weights.items():
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    coupling = dict.fromkeys(distinct, 0)
    assignment: Dict[int, int] = {}
    free_codes = list(range(code_space))
    remaining = list(distinct)
    while remaining:
        if assignment:
            value = min(remaining, key=lambda v: (-coupling[v], v))
        else:
            value = remaining[0]
        remaining.remove(value)
        neighbours = [
            (assignment[u], w) for u, w in adjacency[value] if u in assignment
        ]
        best_code, best_cost = None, None
        for code in free_codes:
            cost = 0
            for placed_code, w in neighbours:
                cost += w * (code ^ placed_code).bit_count()
            if best_cost is None or cost < best_cost:
                best_code, best_cost = code, cost
        assignment[value] = best_code  # type: ignore[assignment]
        free_codes.remove(best_code)  # type: ignore[arg-type]
        for u, w in adjacency[value]:
            if u not in assignment:
                coupling[u] += w
    return assignment


@register_encoder
class MemorylessCodebookEncoder(Encoder):
    """Per-sub-bus bijective remapping minimising weighted transitions."""

    scheme = "memoryless"
    deployable = True

    def __init__(
        self,
        width: int = 32,
        subbus_width: int = 4,
        max_exact: int = 5,
    ) -> None:
        if width % subbus_width != 0:
            raise EncodingError(
                f"width {width} is not a multiple of sub-bus width {subbus_width}"
            )
        self.width = width
        self.subbus_width = subbus_width
        self.max_exact = max_exact
        self._mask = (1 << width) - 1
        self._sub_mask = (1 << subbus_width) - 1
        self.num_subbuses = width // subbus_width
        size = 1 << subbus_width
        self._maps: list[list[int]] = [list(range(size)) for _ in range(self.num_subbuses)]
        self._inverse: list[list[int]] = [list(range(size)) for _ in range(self.num_subbuses)]

    # -- fitting -------------------------------------------------------
    def subbus_values(self, words: Sequence[int], bus: int) -> list[int]:
        shift = bus * self.subbus_width
        return [(w >> shift) & self._sub_mask for w in words]

    def fit(
        self, words: Sequence[int] | TrafficCounts
    ) -> "MemorylessCodebookEncoder":
        # project the consecutive word-pair counts onto every sub-bus
        counts = TrafficCounts.of(words)
        word_pairs, distinct_words = counts.pairs, counts.words
        size = 1 << self.subbus_width
        for bus in range(self.num_subbuses):
            shift = bus * self.subbus_width
            weights: Dict[Tuple[int, int], int] = {}
            for (a, b), count in word_pairs.items():
                u = (a >> shift) & self._sub_mask
                v = (b >> shift) & self._sub_mask
                if u == v:
                    continue  # zero distance under any bijection
                key = (u, v) if u < v else (v, u)
                weights[key] = weights.get(key, 0) + count
            incident = dict.fromkeys(
                {(w >> shift) & self._sub_mask for w in distinct_words}, 0
            )
            for (u, v), w in weights.items():
                incident[u] += w
                incident[v] += w
            distinct = sorted(incident, key=lambda v: (-incident[v], v))
            if len(distinct) <= self.max_exact:
                assignment = exact_assignment(distinct, weights, size)
            else:
                assignment = greedy_assignment(distinct, weights, size)
            used = set(assignment.values())
            leftovers = iter(c for c in range(size) if c not in used)
            table = [0] * size
            for value in range(size):
                table[value] = assignment.get(value, -1)
            for value in range(size):
                if table[value] < 0:
                    table[value] = next(leftovers)
            self._set_tables(bus, table)
        return self

    def _set_tables(self, bus: int, table: list[int]) -> None:
        size = 1 << self.subbus_width
        inverse = [0] * size
        for value, code in enumerate(table):
            inverse[code] = value
        self._maps[bus] = table
        self._inverse[bus] = inverse

    # -- stateless word recoding ---------------------------------------
    def encode_word(self, word: int) -> int:
        word &= self._mask
        out = 0
        for bus in range(self.num_subbuses):
            shift = bus * self.subbus_width
            out |= self._maps[bus][(word >> shift) & self._sub_mask] << shift
        return out

    def decode_word(self, word: int) -> int:
        word &= self._mask
        out = 0
        for bus in range(self.num_subbuses):
            shift = bus * self.subbus_width
            out |= self._inverse[bus][(word >> shift) & self._sub_mask] << shift
        return out

    def encode(self, words: Sequence[int]) -> EncodedStream:
        table = {w: self.encode_word(w) for w in set(words)}
        return EncodedStream(self.scheme, self.width, [table[w] for w in words])

    def decode(self, stream: EncodedStream) -> list[int]:
        table = {w: self.decode_word(w) for w in set(stream.driven)}
        return [table[w] for w in stream.driven]

    # -- metadata ------------------------------------------------------
    def budget(self) -> HardwareBudget:
        size = 1 << self.subbus_width
        return HardwareBudget(
            table_bits=self.num_subbuses * size * self.subbus_width * 2,
            extra_lines=0,
            stateful=False,
        )

    def to_config(self) -> dict:
        return {
            "width": self.width,
            "subbus_width": self.subbus_width,
            "max_exact": self.max_exact,
            "maps": [list(t) for t in self._maps],
        }

    @classmethod
    def from_config(cls, config: dict) -> "MemorylessCodebookEncoder":
        enc = cls(
            width=int(config.get("width", 32)),
            subbus_width=int(config.get("subbus_width", 4)),
            max_exact=int(config.get("max_exact", 5)),
        )
        maps = config.get("maps")
        if maps is not None:
            if len(maps) != enc.num_subbuses:
                raise EncodingError("memoryless config has wrong sub-bus count")
            size = 1 << enc.subbus_width
            for bus, table in enumerate(maps):
                table = [int(c) for c in table]
                if sorted(table) != list(range(size)):
                    raise EncodingError(
                        f"memoryless sub-bus {bus} map is not a bijection"
                    )
                enc._set_tables(bus, table)
        return enc


@register_reference_counter("memoryless")
def _memoryless_reference(encoder: Encoder, words: Sequence[int]) -> int:
    """Sub-bus-by-sub-bus recount: the Hamming distance of the packed
    stream must equal the sum of per-sub-bus mapped distances."""
    total = 0
    for bus in range(encoder.num_subbuses):
        values = encoder.subbus_values(words, bus)
        mapped = [encoder._maps[bus][v] for v in values]
        total += word_transitions(mapped)
    return total
