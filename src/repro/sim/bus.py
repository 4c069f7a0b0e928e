"""Instruction-bus transition and energy model.

Power on a bus line is proportional to its toggle count times the line
capacitance (the paper's premise, after [1]).  This module counts bit
transitions over a fetch trace for an arbitrary memory image — the
baseline image or the power-encoded one.  Any memoryless image toggles
the same lines every time the same pair of addresses is fetched back
to back, so a trace's transitions are
``sum(count(a, b) * popcount(w[a] ^ w[b]))`` over its distinct
consecutive pairs (:meth:`~repro.sim.tracer.FetchTrace.edge_counts`):
a few dozen pairs per trace instead of one XOR per fetch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.isa.assembler import Program
from repro.sim.tracer import FetchTrace


def _pair_toggles(
    program: Program,
    addresses: Iterable[int],
    image: Sequence[int] | None,
) -> list[tuple[int, int]]:
    """``(occurrences, w[a] ^ w[b])`` for each distinct consecutive
    fetch pair ``(a, b)``.

    ``image`` overrides the program's stored words (same layout); use
    it for the power-encoded memory image.
    """
    trace = FetchTrace.of(addresses)
    words = image if image is not None else program.words
    base = program.text_base
    size = len(words)
    for start, length in trace.run_counts():
        first = (start - base) >> 2
        if first < 0 or first + length > size:
            raise ValueError("trace contains addresses outside the text image")
    return [
        (times, words[(a - base) >> 2] ^ words[(b - base) >> 2])
        for (a, b), times in trace.edge_counts().items()
    ]


def count_trace_transitions(
    program: Program,
    addresses: Iterable[int],
    image: Sequence[int] | None = None,
) -> int:
    """Total bit transitions on the instruction bus over a trace."""
    total = sum(
        times * toggles.bit_count()
        for times, toggles in _pair_toggles(program, addresses, image)
    )
    from repro.obs import OBS

    if OBS.enabled:
        which = "baseline" if image is None else "patched"
        OBS.registry.counter(
            "bus.measurements", "transition-count evaluations", image=which
        ).inc()
        OBS.registry.counter(
            "bus.transitions_measured",
            "bit transitions counted across all measurements",
            image=which,
        ).inc(total)
    return total


def per_line_trace_transitions(
    program: Program,
    addresses: Iterable[int],
    image: Sequence[int] | None = None,
    width: int = 32,
) -> list[int]:
    """Per-bus-line transition counts over a trace."""
    per_line = [0] * width
    for times, toggles in _pair_toggles(program, addresses, image):
        for bit in range(width):
            if toggles >> bit & 1:
                per_line[bit] += times
    return per_line


@dataclass(frozen=True)
class BusModel:
    """A simple energy model: ``E = C_line * V^2 * toggles`` per line.

    Defaults model an on-chip bus; pass a larger ``line_capacitance``
    (tens of pF) for the off-chip / external-flash case the paper
    highlights as even more transition-sensitive.
    """

    line_capacitance: float = 0.5e-12  # farads, per line
    supply_voltage: float = 1.8  # volts
    width: int = 32

    def energy_joules(self, transitions: int) -> float:
        """Dynamic energy for a transition count (0.5 C V^2 per toggle)."""
        return 0.5 * self.line_capacitance * self.supply_voltage**2 * transitions
