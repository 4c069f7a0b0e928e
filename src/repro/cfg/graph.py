"""Control-flow graph: basic blocks plus dict-of-lists adjacency."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.basic_blocks import BasicBlock, build_basic_blocks
from repro.isa.assembler import Program


@dataclass
class ControlFlowGraph:
    """A program's CFG: blocks keyed by start address, plus successor
    and predecessor lists per block (edges deduplicated, in block
    order)."""

    program: Program
    blocks: dict[int, BasicBlock]
    succ: dict[int, list[int]]
    pred: dict[int, list[int]]
    entry: int

    @classmethod
    def build(cls, program: Program) -> "ControlFlowGraph":
        blocks = build_basic_blocks(program)
        succ = {start: list(dict.fromkeys(b.successors)) for start, b in blocks.items()}
        pred: dict[int, list[int]] = {start: [] for start in blocks}
        for start, targets in succ.items():
            for target in targets:
                pred[target].append(start)
        entry = program.entry if program.entry in blocks else program.text_base
        return cls(program=program, blocks=blocks, succ=succ, pred=pred, entry=entry)

    def block_of(self, address: int) -> BasicBlock:
        """The basic block containing an instruction address."""
        starts = sorted(self.blocks)
        lo, hi = 0, len(starts) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            block = self.blocks[starts[mid]]
            if address < block.start:
                hi = mid - 1
            elif address >= block.end:
                lo = mid + 1
            else:
                return block
        raise KeyError(f"address {address:#010x} not in any block")

    def __len__(self) -> int:
        return len(self.blocks)
