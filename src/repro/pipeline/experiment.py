"""Parameter-sweep experiment runner.

Crosses any set of workloads with block sizes, TT capacities and
strategies.  Each workload is simulated once and its trace reused for
every configuration; every grid point runs the full
:class:`~repro.pipeline.flow.EncodingFlow`, decode check included.
The grid feeds the Figure 6/7 reports (:mod:`repro.pipeline.report`)
and exports to CSV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.core.transformations import OPTIMAL_SET, Transformation
from repro.pipeline.flow import EncodingFlow, FlowResult
from repro.runtime import atomic_write_text
from repro.workloads.registry import build_workload


@dataclass(frozen=True)
class SweepPoint:
    """One configuration of the sweep grid."""

    workload: str
    block_size: int
    tt_capacity: int
    strategy: str

    def label(self) -> str:
        return (
            f"{self.workload}/k{self.block_size}"
            f"/tt{self.tt_capacity}/{self.strategy}"
        )


@dataclass
class SweepResult:
    """The full grid of flow results, keyed by sweep point."""

    points: dict[SweepPoint, FlowResult] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)

    def by_workload(self) -> dict[str, dict[int, FlowResult]]:
        """``{workload: {block size: result}}``: the layout the Figure
        6/7 reports (:mod:`repro.pipeline.report`) take, for a sweep
        over one TT capacity and strategy."""
        grid: dict[str, dict[int, FlowResult]] = {}
        for point, result in self.points.items():
            grid.setdefault(point.workload, {})[point.block_size] = result
        return grid

    def to_csv(self) -> str:
        lines = [
            "workload,block_size,tt_capacity,strategy,"
            "baseline_transitions,encoded_transitions,reduction_percent,"
            "tt_entries_used,blocks_encoded,hot_coverage,trace_length"
        ]
        for point in sorted(
            self.points,
            key=lambda p: (p.workload, p.block_size, p.tt_capacity, p.strategy),
        ):
            result = self.points[point]
            lines.append(
                f"{point.workload},{point.block_size},{point.tt_capacity},"
                f"{point.strategy},{result.baseline_transitions},"
                f"{result.encoded_transitions},"
                f"{result.reduction_percent:.4f},{result.tt_entries_used},"
                f"{len(result.selected_blocks)},{result.hot_coverage:.4f},"
                f"{result.trace_length}"
            )
        return "\n".join(lines)

    def write_csv(self, path: str | Path) -> Path:
        """Atomic CSV export (never a truncated artifact)."""
        target = Path(path)
        atomic_write_text(target, self.to_csv() + "\n")
        return target


def run_sweep(
    workloads: Sequence[str] | dict[str, dict],
    block_sizes: Sequence[int] = (4, 5, 6, 7),
    tt_capacities: Sequence[int] = (16,),
    strategies: Sequence[str] = ("greedy",),
    transformations: Sequence[Transformation] = OPTIMAL_SET,
    verify_decode: bool = True,
    max_steps: int = 500_000_000,
) -> SweepResult:
    """Run the full cross product; each workload simulates once.

    ``workloads`` is a sequence of names or a ``{name: params}``
    mapping for size overrides.
    """
    if isinstance(workloads, dict):
        items = list(workloads.items())
    else:
        items = [(name, {}) for name in workloads]

    sweep = SweepResult()
    for name, params in items:
        cpu, trace = build_workload(name, **params).run(max_steps)
        for block_size in block_sizes:
            for tt_capacity in tt_capacities:
                for strategy in strategies:
                    point = SweepPoint(name, block_size, tt_capacity, strategy)
                    flow = EncodingFlow(
                        block_size=block_size,
                        tt_capacity=tt_capacity,
                        transformations=transformations,
                        strategy=strategy,
                        verify_decode=verify_decode,
                    )
                    sweep.points[point] = flow.run(
                        cpu.program, trace, point.label()
                    )
    return sweep
