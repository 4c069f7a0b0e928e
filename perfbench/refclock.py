"""A reference clock for a host whose speed drifts.

The benchmark runs on shared VMs whose CPU speed swings by up to 1.7x
over minutes (a fixed pure-Python loop pinned to one vCPU ran in 27 ms
and in 47 ms within one minute on the 2-vCPU development VM).  Medians
over passes cannot remove a swing that lasts longer than a run.

So every timed operation is bracketed by :func:`measure`, a fixed
pure-Python kernel that touches nothing in ``repro``: a change to the
program cannot change its time, only the host can.  A wall time is
adjusted to the host speed at which the kernel takes
:data:`NOMINAL_S`::

    adjusted = wall * NOMINAL_S / kernel time around the operation

On a host running at that speed the adjusted time equals the wall
time.  The raw wall times are kept in the run record.
"""

from __future__ import annotations

import time

#: Kernel time that defines the reference speed: its median on the
#: development VM (Python 3.11.7), so adjusted values read close to
#: wall-clock values there.
NOMINAL_S = 0.008

_STEPS = 40_000


def _kernel() -> int:
    """Interpreter-style work like the simulator's: dispatch on an
    opcode, integer arithmetic, list and dict traffic."""
    regs = [0] * 8
    mem = list(range(256))
    seen: dict[int, int] = {}
    acc = 0
    for step in range(_STEPS):
        op = step & 7
        word = mem[step & 255]
        if op < 3:
            regs[op] = (regs[op] + word) & 0xFFFFFFFF
        elif op < 5:
            regs[op] = (regs[op - 3] ^ (word << 1)) & 0xFFFFFFFF
        elif op == 5:
            mem[word & 255] = regs[1] & 0xFFFF
        elif op == 6:
            seen[word & 63] = seen.get(word & 63, 0) + 1
        else:
            acc = (acc + regs[step & 3]) & 0xFFFFFFFF
    return acc + len(seen)


def measure() -> float:
    """Wall seconds of one run of the kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
