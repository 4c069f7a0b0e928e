"""In-order functional processor simulator (SimpleScalar substitute).

``memory`` is a paged byte-addressable store; ``cpu`` an in-order
interpreter matching the paper's baseline ("a typical embedded
processor front-end, which fetches and executes instructions in order
and one at a time") that compiles and executes one basic block at a
time; ``tracer`` holds the fetch stream as a run-length
:class:`FetchTrace` of maximal sequential runs grouped by back-to-back
repeats, with per-address, per-edge and per-run counts, and a decoded
stream in the same groups (:class:`DecodedTrace`); and ``bus`` turns those counts plus memory
images into bit-transition and energy numbers.
"""

from repro.sim.memory import Memory
from repro.sim.cpu import Cpu, CpuError, run_program
from repro.sim.tracer import DecodedTrace, FetchTrace
from repro.sim.bus import BusModel, count_trace_transitions

__all__ = [
    "Memory",
    "Cpu",
    "CpuError",
    "run_program",
    "FetchTrace",
    "DecodedTrace",
    "BusModel",
    "count_trace_transitions",
]
