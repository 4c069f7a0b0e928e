"""Parameter-sweep experiment runner.

Research-grade studies over the flow: cross any set of workloads with
block sizes, TT capacities, transformation sets and strategies; each
trace is simulated once and reused across every configuration.  The
result grid exports to CSV for external analysis.

Resilience: pass ``wal_path`` to journal every finished grid point to
a JSONL write-ahead log (:mod:`repro.runtime.checkpoint`); with
``resume=True`` a sweep killed mid-run replays the log, skips finished
points (a workload whose whole grid is already journaled is not even
re-simulated), and produces an identical CSV.  Replayed points come
back as :class:`SweepRecord` — the deterministic metric row of a
point, which is also exactly what the CSV export uses.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.core.transformations import OPTIMAL_SET, Transformation
from repro.pipeline.flow import EncodingFlow, FlowResult
from repro.runtime import CheckpointLog, atomic_write_text
from repro.sim.cpu import run_program
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


@dataclass(frozen=True)
class SweepRecord:
    """The deterministic metrics of one finished grid point — the
    exact row the CSV export emits, and the unit the write-ahead log
    journals (a full :class:`FlowResult` carries programs and traces;
    the record carries only numbers)."""

    reduction_percent: float
    baseline_transitions: int
    encoded_transitions: int
    tt_entries_used: int
    blocks_encoded: int
    hot_coverage: float
    trace_length: int

    @classmethod
    def from_flow_result(cls, result: FlowResult) -> "SweepRecord":
        return cls(
            reduction_percent=result.reduction_percent,
            baseline_transitions=result.baseline_transitions,
            encoded_transitions=result.encoded_transitions,
            tt_entries_used=result.tt_entries_used,
            blocks_encoded=len(result.selected_blocks),
            hot_coverage=result.hot_coverage,
            trace_length=result.trace_length,
        )

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "SweepRecord":
        return cls(
            reduction_percent=float(data["reduction_percent"]),
            baseline_transitions=int(data["baseline_transitions"]),
            encoded_transitions=int(data["encoded_transitions"]),
            tt_entries_used=int(data["tt_entries_used"]),
            blocks_encoded=int(data["blocks_encoded"]),
            hot_coverage=float(data["hot_coverage"]),
            trace_length=int(data["trace_length"]),
        )


def _as_record(result) -> SweepRecord:
    if isinstance(result, SweepRecord):
        return result
    return SweepRecord.from_flow_result(result)


@dataclass
class SweepResult:
    """The full grid of results, keyed by sweep point.  Values are
    :class:`FlowResult` for freshly computed points or
    :class:`SweepRecord` for points replayed from a write-ahead log;
    both expose the sweep metrics."""

    points: dict[SweepPoint, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)

    def best_for(self, workload: str) -> tuple[SweepPoint, object]:
        """The configuration with the highest reduction for a workload."""
        candidates = [
            (point, result)
            for point, result in self.points.items()
            if point.workload == workload
        ]
        if not candidates:
            raise KeyError(f"no results for workload {workload!r}")
        return max(candidates, key=lambda item: item[1].reduction_percent)

    def filter(self, **criteria) -> list[tuple[SweepPoint, object]]:
        """Results whose point matches every given attribute."""
        out = []
        for point, result in self.points.items():
            if all(getattr(point, key) == value for key, value in criteria.items()):
                out.append((point, result))
        return out

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
            record = _as_record(self.points[point])
            lines.append(
                f"{point.workload},{point.block_size},{point.tt_capacity},"
                f"{point.strategy},{record.baseline_transitions},"
                f"{record.encoded_transitions},"
                f"{record.reduction_percent:.4f},{record.tt_entries_used},"
                f"{record.blocks_encoded},{record.hot_coverage:.4f},"
                f"{record.trace_length}"
            )
        return "\n".join(lines)

    def write_csv(self, path: str | Path) -> Path:
        """Atomic CSV export (never a truncated artifact)."""
        target = Path(path)
        atomic_write_text(target, self.to_csv() + "\n")
        return target


def _sweep_run_key(
    items: list[tuple[str, dict]],
    block_sizes: Sequence[int],
    tt_capacities: Sequence[int],
    strategies: Sequence[str],
    transformations: Sequence[Transformation],
) -> str:
    """WAL identity: which grid is being swept (not how it executes)."""
    identity = {
        "workloads": [[name, params] for name, params in items],
        "block_sizes": list(block_sizes),
        "tt_capacities": list(tt_capacities),
        "strategies": list(strategies),
        "transformations": [t.name for t in transformations],
    }
    blob = json.dumps(identity, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_sweep(
    workloads: Sequence[str] | dict[str, dict],
    block_sizes: Sequence[int] = (4, 5, 6, 7),
    tt_capacities: Sequence[int] = (16,),
    strategies: Sequence[str] = ("greedy",),
    transformations: Sequence[Transformation] = OPTIMAL_SET,
    verify_decode: bool = True,
    max_steps: int = 500_000_000,
    wal_path: str | Path | None = None,
    resume: bool = False,
) -> SweepResult:
    """Run the full cross product; each workload simulates once.

    ``workloads`` is a sequence of names or a ``{name: params}``
    mapping for size overrides.  ``wal_path``/``resume`` journal and
    replay finished grid points (see the module docstring).
    """
    if isinstance(workloads, dict):
        items = list(workloads.items())
    else:
        items = [(name, {}) for name in workloads]

    checkpoint: CheckpointLog | None = None
    completed: dict[str, dict] = {}
    if wal_path is not None:
        checkpoint, completed = CheckpointLog.open_run(
            wal_path,
            _sweep_run_key(
                items, block_sizes, tt_capacities, strategies, transformations
            ),
            resume,
        )

    grid = [
        SweepPoint(name, block_size, tt_capacity, strategy)
        for name, _ in items
        for block_size in block_sizes
        for tt_capacity in tt_capacities
        for strategy in strategies
    ]
    pending = {point for point in grid if point.label() not in completed}

    sweep = SweepResult()
    try:
        for name, params in items:
            workload_points = [p for p in grid if p.workload == name]
            for point in workload_points:
                if point not in pending:
                    sweep.points[point] = SweepRecord.from_dict(
                        completed[point.label()]
                    )
            if not any(p in pending for p in workload_points):
                continue  # whole grid journaled: skip the simulation
            workload = build_workload(name, **params)
            program = workload.assemble()
            cpu, trace = run_program(program, max_steps=max_steps)
            if workload.verify is not None:
                workload.verify(cpu)
            for point in workload_points:
                if point not in pending:
                    continue
                flow = EncodingFlow(
                    block_size=point.block_size,
                    tt_capacity=point.tt_capacity,
                    transformations=transformations,
                    strategy=point.strategy,
                    verify_decode=verify_decode,
                )
                result = flow.run(program, trace, point.label())
                sweep.points[point] = result
                if checkpoint is not None:
                    checkpoint.record(
                        point.label(),
                        SweepRecord.from_flow_result(result).to_dict(),
                    )
    finally:
        if checkpoint is not None:
            checkpoint.close()
    return sweep
