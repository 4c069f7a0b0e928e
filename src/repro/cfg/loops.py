"""Natural-loop detection via dominators and back edges.

A back edge ``u -> v`` (where ``v`` dominates ``u``) defines a natural
loop: ``v`` (the header) plus every node that can reach ``u`` without
passing through ``v``.  Loops sharing a header are merged, matching
the usual convention.  These are the "major application loops" the
paper's encoding targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.dominators import dominates, immediate_dominators
from repro.cfg.graph import ControlFlowGraph


@dataclass
class NaturalLoop:
    """A natural loop: header block plus body block addresses."""

    header: int
    body: set[int] = field(default_factory=set)  # includes the header

    def __contains__(self, block_start: int) -> bool:
        return block_start in self.body

    def __len__(self) -> int:
        return len(self.body)

    def is_nested_in(self, other: "NaturalLoop") -> bool:
        return self is not other and self.body <= other.body

    def __repr__(self) -> str:
        return f"NaturalLoop(header={self.header:#010x}, blocks={len(self.body)})"


def find_back_edges(cfg: ControlFlowGraph) -> list[tuple[int, int]]:
    """Edges ``u -> v`` with ``v`` dominating ``u``."""
    idom = immediate_dominators(cfg.succ, cfg.entry)
    return [
        (u, v)
        for u, targets in cfg.succ.items()
        for v in targets
        if u in idom and v in idom and dominates(idom, v, u)
    ]


def find_natural_loops(cfg: ControlFlowGraph) -> list[NaturalLoop]:
    """All natural loops, loops with the same header merged, sorted by
    header address."""
    loops: dict[int, NaturalLoop] = {}
    for tail, header in find_back_edges(cfg):
        body = {header, tail}
        stack = [tail]
        while stack:
            node = stack.pop()
            if node == header:
                continue
            for predecessor in cfg.pred[node]:
                if predecessor not in body:
                    body.add(predecessor)
                    stack.append(predecessor)
        loop = loops.setdefault(header, NaturalLoop(header=header))
        loop.body |= body
    return [loops[h] for h in sorted(loops)]


def blocks_in_any_loop(loops: list[NaturalLoop]) -> set[int]:
    """Union of all loop bodies."""
    result: set[int] = set()
    for loop in loops:
        result |= loop.body
    return result

