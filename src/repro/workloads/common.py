"""Shared helpers for the benchmark workloads."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.isa.assembler import Program, assemble
from repro.sim.cpu import Cpu


@dataclass(frozen=True)
class Workload:
    """A runnable benchmark: source, metadata and a result checker."""

    name: str
    description: str
    source: str
    params: dict = field(default_factory=dict)
    verify: Callable[[Cpu], None] | None = None

    def assemble(self) -> Program:
        return assemble(self.source)

    def run(self, max_steps: int = 200_000_000, with_trace: bool = True):
        """Assemble, execute, verify; returns (cpu, trace), the program
        being ``cpu.program``.  The one simulate step of every flow."""
        from repro.obs import OBS
        from repro.sim.cpu import run_program

        program = self.assemble()
        with OBS.tracer.span("flow.simulate", workload=self.name):
            cpu, trace = run_program(program, max_steps, with_trace)
            if self.verify is not None:
                self.verify(cpu)
        return cpu, trace


def format_doubles(values: Sequence[float], per_line: int = 8) -> str:
    """Render a ``.double`` initialiser block."""
    lines = []
    for i in range(0, len(values), per_line):
        chunk = ", ".join(repr(v) for v in values[i : i + per_line])
        lines.append(f"        .double {chunk}")
    return "\n".join(lines)


def read_doubles(cpu: Cpu, label: str, count: int) -> list[float]:
    """Read ``count`` doubles starting at a data label."""
    address = cpu.program.address_of(label)
    return list(struct.unpack(f"<{count}d", cpu.memory.read_bytes(address, 8 * count)))


def pseudo_values(count: int, seed: int = 0, scale: float = 3.0) -> list[float]:
    """Deterministic, compiler-independent test values in [-3, 3]."""
    return [
        (((i * 31 + seed * 17 + 7) % 19) - 9) / scale for i in range(count)
    ]


def assert_close(
    measured: Sequence[float],
    expected: Sequence[float],
    tolerance: float = 1e-9,
    what: str = "result",
) -> None:
    """Element-wise comparison with a helpful failure message."""
    if len(measured) != len(expected):
        raise AssertionError(
            f"{what}: length mismatch {len(measured)} != {len(expected)}"
        )
    for i, (m, e) in enumerate(zip(measured, expected)):
        if abs(m - e) > tolerance * max(1.0, abs(e)):
            raise AssertionError(
                f"{what}[{i}]: measured {m!r}, expected {e!r}"
            )
