"""The block-compiled interpreter against the per-instruction oracle.

:meth:`Cpu.run` executes one generated function per basic block and
records one run per stretch of sequential fetches; :meth:`Cpu.step`
executes one instruction through its own closure.  Every program here
runs both ways and must leave the same fetch stream, registers, FP
registers, hi/lo, condition flag, memory pages, output, step count and
PC — on clean exits and on every kind of fault.
"""

from __future__ import annotations

import math
import operator
import struct

import pytest

from repro.isa.assembler import assemble
from repro.minicc.kernels import COMPILED_BUILDERS, compiled_workload
from repro.sim import cpu as cpu_module
from repro.sim.cpu import Cpu, CpuError
from repro.sim.tracer import FetchTrace
from repro.workloads import registry
from tests.strategies import generate_program, rng_for

WORKLOADS = ("mmul", "sor", "ej", "fft", "tri", "lu", "fir", "iir", "conv2d")

#: Sizes perfbench's ``encode_flow`` draws at ``--seed 1``; the other
#: programs run at their registry defaults there.
SEED_1_SIZES = {"sor": {"sweeps": 5}, "ej": {"sweeps": 7}, "tri": {"sweeps": 19}}


def _step_run(program, max_steps: int):
    """The oracle: :meth:`Cpu.step` until exit, recording each fetch
    the way :meth:`Cpu.run` does (after the step limit and the text
    bounds check)."""
    cpu = Cpu(program)
    trace: list[int] = []
    error = None
    try:
        while cpu.running:
            if cpu.steps >= max_steps:
                raise CpuError(f"exceeded {max_steps} steps")
            if program.text_base <= cpu.pc < program.text_end and not cpu.pc & 3:
                trace.append(cpu.pc)
            cpu.step()
    except (CpuError, ArithmeticError, ValueError) as err:
        error = err
    return cpu, trace, error


def _block_run(program, max_steps: int):
    cpu = Cpu(program)
    trace = FetchTrace()
    error = None
    try:
        cpu.run(max_steps=max_steps, trace=trace)
    except (CpuError, ArithmeticError, ValueError) as err:
        error = err
    return cpu, trace, error


def _state(cpu: Cpu, trace, error) -> dict:
    return {
        "trace": list(trace),
        "regs": cpu.regs,
        "fregs": cpu.fregs,
        "hi_lo": (cpu.hi, cpu.lo),
        "fcc": cpu.fcc,
        "pages": {n: bytes(p) for n, p in cpu.memory._pages.items()},
        "output": cpu.output,
        "steps": cpu.steps,
        "pc": cpu.pc,
        "running": cpu.running,
        "error": None if error is None else (type(error), str(error)),
    }


def _assert_same(program, max_steps: int = 50_000_000):
    block_cpu, block_trace, block_error = _block_run(program, max_steps)
    step_cpu, step_trace, step_error = _step_run(program, max_steps)
    block = _state(block_cpu, block_trace, block_error)
    oracle = _state(step_cpu, step_trace, step_error)
    assert block.keys() == oracle.keys()
    for key in block:
        assert block[key] == oracle[key], key
    # The recorded runs are maximal: no run continues the one before.
    ends = [s + 4 * n for s, n in zip(block_trace.starts, block_trace.lengths)]
    assert all(start != end for start, end in zip(block_trace.starts[1:], ends))
    # ... and grouped as the per-fetch stream's runs are.
    assert block_trace == FetchTrace.from_addresses(step_trace)
    return block_cpu, block_trace


@pytest.fixture
def raising_fp(monkeypatch):
    """Give ``sqrt.d`` and ``div.d`` Python's raising semantics in both
    paths, so a program can fault at any instruction of a block on a
    value it computes.  No instruction faults mid-block by itself, but
    an MMIO handler can."""
    monkeypatch.setattr(cpu_module, "_fsqrt", math.sqrt)
    monkeypatch.setattr(cpu_module, "_fdiv", operator.truediv)


@pytest.mark.parametrize("name", WORKLOADS)
def test_registry_workloads_default_sizes(name):
    workload = registry.build_workload(name)
    cpu, _ = _assert_same(workload.assemble())
    workload.verify(cpu)


@pytest.mark.parametrize("name", sorted(SEED_1_SIZES))
def test_registry_workloads_perfbench_seed_1_sizes(name):
    workload = registry.build_workload(name, **SEED_1_SIZES[name])
    cpu, _ = _assert_same(workload.assemble())
    workload.verify(cpu)


@pytest.mark.parametrize("opt_level", (0, 1))
@pytest.mark.parametrize("name", sorted(COMPILED_BUILDERS))
def test_minicc_kernels(name, opt_level):
    kernel, verify = compiled_workload(name, opt_level=opt_level)
    cpu, _ = _assert_same(kernel.assemble())
    verify(cpu)


@pytest.mark.parametrize("seed", range(12))
def test_random_branchy_programs(seed):
    _assert_same(assemble(generate_program(seed)))


#: Register values at the signed/unsigned boundaries, where a wrong
#: comparison or sign extension shows.
EDGE_VALUES = (0, 1, 2, 31, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFF)
MIX_REGS = ("$zero", "$t0", "$t1", "$t2", "$t3", "$t4")


def _instruction_mix(seed: int, length: int = 60) -> str:
    """Straight-line integer code over edge-valued registers, with
    forward branches of every flavour, ending in exit."""
    rng = rng_for("mix", seed)
    lines = [".text", "main:"]
    for reg in MIX_REGS[1:]:
        lines.append(f"li {reg}, {rng.choice(EDGE_VALUES)}")
    for i in range(length):
        a, b, c = (rng.choice(MIX_REGS) for _ in range(3))
        kind = rng.randrange(6)
        if kind == 0:
            op = rng.choice(
                ("addu", "subu", "and", "or", "xor", "nor", "slt", "sltu",
                 "sllv", "srlv", "srav")
            )
            lines.append(f"{op} {a}, {b}, {c}")
        elif kind == 1:
            op = rng.choice(("sll", "srl", "sra"))
            lines.append(f"{op} {a}, {b}, {rng.randrange(32)}")
        elif kind == 2:
            op = rng.choice(("addiu", "slti", "sltiu"))
            lines.append(f"{op} {a}, {b}, {rng.choice((-32768, -1, 0, 1, 32767))}")
        elif kind == 3:
            op = rng.choice(("andi", "ori", "xori", "lui"))
            imm = rng.choice((0, 1, 0x7FFF, 0x8000, 0xFFFF))
            lines.append(f"lui {a}, {imm}" if op == "lui" else f"{op} {a}, {b}, {imm}")
        elif kind == 4:
            op = rng.choice(("mult", "multu", "div", "divu"))
            lines.append(f"{op} {b}, {c}")
            lines.append(f"{rng.choice(('mfhi', 'mflo'))} {a}")
        else:
            op = rng.choice(("beq", "bne", "blez", "bgtz", "bltz", "bgez"))
            operands = f"{b}, {c}" if op in ("beq", "bne") else b
            lines.append(f"{op} {operands}, skip{i}")
            lines.append(f"addiu {a}, {a}, 1")
            lines.append(f"skip{i}:")
    lines += ["li $v0, 10", "syscall"]
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(40))
def test_random_instruction_mix_at_edge_values(seed):
    _assert_same(assemble(_instruction_mix(seed)))


# ----------------------------------------------------------------------
# Fault parity: trace prefix, pc and steps stop where the oracle stops
# ----------------------------------------------------------------------

LOOP = """
.text
main: li $t0, 5
      li $t1, 0
loop: addiu $t1, $t1, 3
      xor $t2, $t1, $t0
      addiu $t0, $t0, -1
      bnez $t0, loop
      li $v0, 10
      syscall
"""


@pytest.mark.parametrize("max_steps", list(range(0, 26)) + [1000])
def test_step_limit_landing_mid_block(max_steps):
    _assert_same(assemble(LOOP), max_steps=max_steps)


@pytest.mark.parametrize("max_steps", (1, 7, 1000, 4321))
def test_step_limit_on_a_registry_workload(max_steps):
    _assert_same(registry.build_workload("fir").assemble(), max_steps=max_steps)


@pytest.mark.parametrize(
    "source",
    (
        ".text\nmain: li $t0, 3\nli $t1, 4\njr $zero\n",
        ".text\nmain: li $t0, 3\naddiu $t0, $t0, 1\n",  # falls off the end
        ".text\nmain: li $t0, 6\njr $t0\n",  # unaligned target
    ),
    ids=("jump-below-text", "fall-off-end", "unaligned"),
)
def test_pc_out_of_text(source):
    cpu, trace = _assert_same(assemble(source))
    assert len(trace) == cpu.steps


def test_unknown_syscall_mid_block():
    source = ".text\nmain: li $t0, 1\nli $t1, 2\nli $v0, 77\nsyscall\nli $t2, 9\n"
    cpu, trace = _assert_same(assemble(source))
    # The syscall was fetched but did not complete.
    assert len(trace) == cpu.steps + 1
    assert cpu.pc == trace.expand()[-1]


@pytest.mark.usefixtures("raising_fp")
def test_sqrt_of_negative_mid_block():
    source = (
        ".data\nd: .double -4.0\n.text\n"
        "main: la $t0, d\nl.d $f2, 0($t0)\nsqrt.d $f4, $f2\n"
        "li $t1, 1\nli $v0, 10\nsyscall\n"
    )
    cpu, trace = _assert_same(assemble(source))
    assert len(trace) == cpu.steps + 1


def test_run_resumes_after_a_step_limit():
    # A second run() continues where the first stopped; its first run
    # merges into the trace's last one.
    program = assemble(LOOP)
    cpu = Cpu(program)
    trace = FetchTrace()
    with pytest.raises(CpuError, match="exceeded"):
        cpu.run(max_steps=5, trace=trace)
    cpu.run(trace=trace)
    _, oracle, _ = _step_run(program, 10_000)
    assert trace.expand() == oracle
    assert cpu.steps == len(oracle)


# ----------------------------------------------------------------------
# Self-looping blocks: a block whose taken branch re-enters its own
# start iterates inside its generated function
# ----------------------------------------------------------------------


def _compiled_blocks(program, max_steps: int = 10_000) -> dict:
    """Entry PC -> (block function, instruction count, self-loop?) of
    every block a run compiled."""
    cpu = Cpu(program)
    try:
        cpu.run(max_steps=max_steps)
    except (CpuError, ArithmeticError, ValueError):
        pass
    return cpu._blocks


def _assert_self_loop(program, label: str = "loop") -> None:
    """The block at ``label`` was compiled as a self-loop."""
    _, _, loops = _compiled_blocks(program)[program.address_of(label)]
    assert loops


def _fp_fault_loop(op: str, start: float) -> str:
    """A self-loop entered at its head whose ``$f2`` drops by 1.0 per
    iteration from ``start``; ``op`` faults once ``$f2`` reaches its
    domain edge."""
    return f"""
.data
start: .double {start!r}
one: .double 1.0
.text
main: la $t0, start
      l.d $f2, 0($t0)
      l.d $f6, 8($t0)
      li $t1, 100
      li $t2, 0
      j loop
loop: addiu $t2, $t2, 1
      {op}
      sub.d $f2, $f2, $f6
      addiu $t1, $t1, -1
      bnez $t1, loop
      li $v0, 10
      syscall
"""


@pytest.mark.usefixtures("raising_fp")
@pytest.mark.parametrize("iteration", (1, 2, 7))
def test_self_loop_sqrt_of_negative_in_iteration(iteration):
    # $f2 goes negative in the given iteration.
    program = assemble(_fp_fault_loop("sqrt.d $f4, $f2", iteration - 1.5))
    _assert_self_loop(program)
    cpu, trace = _assert_same(program)
    assert cpu.regs[10] == iteration  # $t2 counts started iterations
    assert len(trace) == cpu.steps + 1


@pytest.mark.usefixtures("raising_fp")
@pytest.mark.parametrize("iteration", (1, 2, 7))
def test_self_loop_divide_by_zero_in_iteration(iteration):
    # $f2 reaches 0.0 in the given iteration.
    program = assemble(_fp_fault_loop("div.d $f4, $f6, $f2", iteration - 1.0))
    _assert_self_loop(program)
    cpu, trace = _assert_same(program)
    assert cpu.regs[10] == iteration
    assert len(trace) == cpu.steps + 1


INF, NAN = math.inf, math.nan
INVALID = 0x7FFFFFFF  # the MIPS invalid-conversion result, 2**31 - 1

#: ``instruction -> [(a, b, result)]``: what each FP instruction writes
#: for operands ``a`` in ``$f2`` and ``b`` in ``$f4``, including the
#: cases where Python's operators raise.  ``mfc1``'s result is the
#: integer it writes.
IEEE_CASES = {
    "div.d $f6, $f2, $f4": [
        (1.0, 0.0, INF), (1.0, -0.0, -INF), (-2.5, 0.0, -INF),
        (-2.5, -0.0, INF), (INF, -0.0, -INF), (0.0, 0.0, NAN),
        (-0.0, -0.0, NAN), (NAN, 0.0, NAN), (3.0, 2.0, 1.5),
    ],
    "sqrt.d $f6, $f2": [
        (-4.0, 0.0, NAN), (-INF, 0.0, NAN), (NAN, 0.0, NAN),
        (-0.0, 0.0, -0.0), (16.0, 0.0, 4.0), (INF, 0.0, INF),
    ],
    "cvt.w.d $f6, $f2": [
        (INF, 0.0, float(INVALID)), (-INF, 0.0, float(INVALID)),
        (NAN, 0.0, float(INVALID)), (-7.9, 0.0, -7.0), (7.9, 0.0, 7.0),
        (1e10, 0.0, float(INVALID)), (-1e10, 0.0, float(INVALID)),
        (2147483647.9, 0.0, 2147483647.0), (2147483648.0, 0.0, float(INVALID)),
        (-2147483648.9, 0.0, -2147483648.0), (-2147483649.0, 0.0, float(INVALID)),
    ],
    "mfc1 $t3, $f2": [
        (INF, 0.0, INVALID), (-INF, 0.0, INVALID), (NAN, 0.0, INVALID),
        (-7.9, 0.0, 0xFFFFFFF9), (7.9, 0.0, 7),
        (1e10, 0.0, INVALID), (-1e10, 0.0, INVALID),
        (2147483647.9, 0.0, 0x7FFFFFFF), (2147483648.0, 0.0, INVALID),
        (-2147483648.9, 0.0, 0x80000000), (-2147483649.0, 0.0, INVALID),
    ],
}


def _ieee_source(op: str, cases) -> str:
    """A self-loop applying ``op`` to each case's operands and storing
    its result (``$f6``, or ``$t3`` for ``mfc1``) to ``out``; the FP
    registers are cleared at exit, since NaN != NaN in a register
    compare."""
    operands = ", ".join(f"{a!r}, {b!r}" for a, b, _ in cases)
    store = "sw $t3, 0($t1)" if op.startswith("mfc1") else "s.d $f6, 0($t1)"
    return f"""
.data
ops: .double {operands}
out: .space {8 * len(cases)}
.text
main: la $t0, ops
      la $t1, out
      li $t2, {len(cases)}
      j loop
loop: l.d $f2, 0($t0)
      l.d $f4, 8($t0)
      {op}
      {store}
      addiu $t0, $t0, 16
      addiu $t1, $t1, 8
      addiu $t2, $t2, -1
      bnez $t2, loop
      mtc1 $zero, $f2
      mtc1 $zero, $f4
      mtc1 $zero, $f6
      li $v0, 10
      syscall
"""


def _same_double(measured: float, expected: float) -> bool:
    if math.isnan(expected):
        return math.isnan(measured)
    return measured == expected and math.copysign(1, measured) == math.copysign(1, expected)


@pytest.mark.parametrize("op", sorted(IEEE_CASES))
def test_fp_edge_operands_write_ieee_and_mips_results(op):
    cases = IEEE_CASES[op]
    program = assemble(_ieee_source(op, cases))
    _assert_self_loop(program)
    cpu, _ = _assert_same(program)
    assert cpu.running is False and cpu.regs[10] == 0
    out = cpu.memory.read_bytes(program.address_of("out"), 8 * len(cases))
    for k, (a, b, expected) in enumerate(cases):
        if op.startswith("mfc1"):
            assert struct.unpack_from("<I", out, 8 * k)[0] == expected, (a, b)
        else:
            measured = struct.unpack_from("<d", out, 8 * k)[0]
            assert _same_double(measured, expected), (a, b, measured)


@pytest.mark.parametrize("op", sorted(IEEE_CASES))
def test_fp_edge_operands_straight_line(op):
    # The same operands through plain (non-loop) blocks and Cpu.step.
    lines = [".data", "ops: .double " + ", ".join(
        f"{a!r}, {b!r}" for a, b, _ in IEEE_CASES[op])]
    lines += [".text", "main: la $t0, ops"]
    for k in range(len(IEEE_CASES[op])):
        lines += [f"l.d $f2, {16 * k}($t0)", f"l.d $f4, {16 * k + 8}($t0)", op,
                  f"s.d $f6, {16 * k}($t0)", f"sw $t3, {16 * k + 8}($t0)"]
    lines += ["mtc1 $zero, $f2", "mtc1 $zero, $f4", "mtc1 $zero, $f6",
              "li $v0, 10", "syscall"]
    cpu, _ = _assert_same(assemble("\n".join(lines)))
    assert cpu.running is False


@pytest.mark.parametrize(
    "value, stored",
    ((1e300, math.inf), (-1e300, -math.inf), (3.4028235e38, 3.4028234663852886e38)),
)
def test_swc1_beyond_single_range_stores_a_signed_infinity(value, stored):
    # IEEE 754 rounds a finite double past the single range to an
    # infinity of its sign (one just past FLT_MAX still rounds down).
    program = assemble(
        f".data\nbig: .double {value!r}\nout: .float 0.0\n"
        ".text\nmain: la $t0, big\nl.d $f0, 0($t0)\nswc1 $f0, 8($t0)\n"
        "li $v0, 10\nsyscall\n"
    )
    cpu, _ = _assert_same(program)
    assert cpu.running is False
    assert cpu.memory.read_f32(program.address_of("out")) == stored


@pytest.mark.parametrize("iterations", (1, 2, 7))
def test_jr_out_of_text_after_a_self_loop(iterations):
    source = f"""
.text
main: li $t1, {iterations}
      li $t2, 0
      j loop
loop: addiu $t2, $t2, 3
      xor $t3, $t2, $t1
      addiu $t1, $t1, -1
      bnez $t1, loop
      jr $zero
"""
    program = assemble(source)
    _assert_self_loop(program)
    cpu, trace = _assert_same(program)
    assert cpu.regs[10] == 3 * iterations
    assert cpu.pc == 0
    assert len(trace) == cpu.steps


#: Three instructions before a five-instruction self-loop of 10
#: iterations.
SELF_LOOP = """
.text
main: li $t0, 10
      li $t1, 0
      j loop
loop: addiu $t1, $t1, 3
      xor $t2, $t1, $t0
      sll $t3, $t2, 2
      addiu $t0, $t0, -1
      bnez $t0, loop
      li $v0, 10
      syscall
"""


@pytest.mark.parametrize("max_steps", list(range(0, 3 + 3 * 5 + 2)) + [52, 53, 54])
def test_step_limit_landing_in_a_self_loop(max_steps):
    # Every instruction of the first three iterations, and the last
    # iteration's edges.
    program = assemble(SELF_LOOP)
    _assert_self_loop(program)
    _assert_same(program, max_steps=max_steps)


def test_self_loop_resumes_after_a_step_limit():
    # A limit that lands mid-iteration leaves the loop resumable: the
    # second run() finishes it, and the trace is the oracle's.
    program = assemble(SELF_LOOP)
    cpu = Cpu(program)
    trace = FetchTrace()
    with pytest.raises(CpuError, match="exceeded"):
        cpu.run(max_steps=3 + 2 * 5 + 3, trace=trace)
    cpu.run(trace=trace)
    _, oracle, _ = _step_run(program, 10_000)
    assert trace.expand() == oracle
    assert cpu.steps == len(oracle)


def _self_loop_mix(seed: int, length: int = 30, iterations: int = 6) -> str:
    """A self-loop whose body is straight-line integer code over
    edge-valued registers ($zero writes included), plus FP moves and
    arithmetic, so every register the loop keeps in a local is read,
    written and stored back."""
    rng = rng_for("loop-mix", seed)
    lines = [".data", "one: .double 1.5", ".text", "main:"]
    for reg in MIX_REGS[1:]:
        lines.append(f"li {reg}, {rng.choice(EDGE_VALUES)}")
    lines += ["la $s1, one", "l.d $f2, 0($s1)", f"li $s0, {iterations}"]
    lines += ["j loop", "loop:"]
    for _ in range(length):
        a, b, c = (rng.choice(MIX_REGS) for _ in range(3))
        kind = rng.randrange(6)
        if kind == 0:
            op = rng.choice(
                ("addu", "subu", "and", "or", "xor", "nor", "slt", "sltu", "srav")
            )
            lines.append(f"{op} {a}, {b}, {c}")
        elif kind == 1:
            op = rng.choice(("sll", "srl", "sra"))
            lines.append(f"{op} {a}, {b}, {rng.randrange(32)}")
        elif kind == 2:
            op = rng.choice(("addiu", "slti", "sltiu", "andi", "ori", "xori"))
            if op in ("andi", "ori", "xori"):
                imm = rng.choice((0, 1, 0x7FFF))
            else:
                imm = rng.choice((-32768, -1, 0, 1, 32767))
            lines.append(f"{op} {a}, {b}, {imm}")
        elif kind == 3:
            op = rng.choice(("mult", "multu", "div", "divu"))
            lines.append(f"{op} {b}, {c}")
            lines.append(f"{rng.choice(('mfhi', 'mflo'))} {a}")
        elif kind == 4:
            lines.append(f"mtc1 {b}, $f4")
            lines.append(f"{rng.choice(('add.d', 'sub.d', 'mul.d'))} $f6, $f4, $f2")
            lines.append(f"mfc1 {a}, $f6" if rng.random() < 0.5 else "mov.d $f2, $f6")
        else:
            lines.append("s.d $f2, 8($s1)")
            lines.append("l.d $f8, 8($s1)")
    lines += ["addiu $s0, $s0, -1", "bnez $s0, loop", "li $v0, 10", "syscall"]
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(20))
def test_random_self_loops_at_edge_values(seed):
    program = assemble(_self_loop_mix(seed))
    _assert_self_loop(program)
    _assert_same(program)


# ----------------------------------------------------------------------
# Leader-bounded blocks: a generated block ends just before the next
# basic-block leader and falls through to it
# ----------------------------------------------------------------------


def _block_sizes(program, max_steps: int = 10_000) -> dict[int, int]:
    """Entry PC -> instruction count of every block a run compiled."""
    blocks = _compiled_blocks(program, max_steps)
    return {pc: count for pc, (_, count, _) in blocks.items()}


#: Two instructions that fall through into a five-instruction self-loop
#: of 10 iterations (no jump to its head, unlike SELF_LOOP).
FALL_INTO_LOOP = """
.text
main: li $t0, 10
      li $t1, 0
loop: addiu $t1, $t1, 3
      xor $t2, $t1, $t0
      sll $t3, $t2, 2
      addiu $t0, $t0, -1
      bnez $t0, loop
      li $v0, 10
      syscall
"""


def test_block_falls_through_into_a_self_loop_head():
    program = assemble(FALL_INTO_LOOP)
    _assert_self_loop(program)
    head = program.address_of("loop")
    sizes = _block_sizes(program)
    assert sizes[program.entry] == 2  # ends just before the loop head
    assert sizes[head] == 5
    cpu, trace = _assert_same(program)
    assert cpu.regs[9] == 30
    # The entry block's fall-through merges into the first lap's run.
    assert trace.starts[0] == program.entry
    assert trace.lengths[0] == 2 + 5


@pytest.mark.parametrize("max_steps", list(range(0, 2 + 2 * 5 + 2)) + [51, 52, 53])
def test_step_limit_around_a_fall_through_leader(max_steps):
    # max_steps 1 stops on the last instruction before the loop head
    # (the entry block's prefix), 2 on the head itself (the whole entry
    # block, then the limit); the rest land across the first laps and
    # the last one.
    _assert_same(assemble(FALL_INTO_LOOP), max_steps=max_steps)


#: ``jr`` into ``mid``, which no branch or jump names, so it is not a
#: leader; ``top`` (after the ``jr``) and ``tail`` (a branch target)
#: are.  The run enters at ``mid`` once and at ``top`` on every later
#: lap.
JR_INTO_BLOCK = """
.text
main: la $t0, mid
      li $t1, 0
      jr $t0
top:  addiu $t1, $t1, 1
mid:  addiu $t1, $t1, 2
      addiu $t1, $t1, 4
tail: addiu $t1, $t1, 8
      slti $t2, $t1, 60
      bnez $t2, top
      bltz $t1, tail
      li $v0, 10
      syscall
"""


def test_jr_into_the_middle_of_a_basic_block():
    program = assemble(JR_INTO_BLOCK)
    top, mid, tail = (program.address_of(l) for l in ("top", "mid", "tail"))
    sizes = _block_sizes(program)
    assert sizes[mid] == 2  # stops just before the leader at tail
    assert sizes[top] == 3
    assert sizes[tail] == 3
    cpu, _ = _assert_same(program)
    assert cpu.regs[9] == 14 + 4 * 15  # one pass from mid, four from top


@pytest.mark.parametrize("max_steps", range(0, 16))
def test_step_limit_after_a_jr_into_a_block(max_steps):
    _assert_same(assemble(JR_INTO_BLOCK), max_steps=max_steps)


def _fault_before_leader(op: str) -> str:
    """``op`` is the last instruction before ``next``, a leader the
    block falls through to; ``$f2`` drops by 1.0 per lap from 2.0."""
    return f"""
.data
start: .double 2.0
one: .double 1.0
.text
main: la $t0, start
      l.d $f2, 0($t0)
      l.d $f6, 8($t0)
      li $t1, 0
top:  addiu $t1, $t1, 1
      sub.d $f2, $f2, $f6
      {op}
next: addiu $t1, $t1, 16
      slti $t2, $t1, 200
      bnez $t2, top
      beq $zero, $zero, next
"""


@pytest.mark.usefixtures("raising_fp")
@pytest.mark.parametrize(
    "op, laps",
    (("div.d $f4, $f6, $f2", 2), ("sqrt.d $f4, $f2", 3)),
    ids=("div-by-zero", "sqrt-of-negative"),
)
def test_fault_in_the_instruction_just_before_a_leader(op, laps):
    # $f2 reaches 0.0 on the second lap and -1.0 on the third.
    program = assemble(_fault_before_leader(op))
    top, after = program.address_of("top"), program.address_of("next")
    assert _block_sizes(program)[top] == 3
    cpu, trace = _assert_same(program)
    assert cpu.pc == after - 4  # the faulting instruction
    assert cpu.regs[9] == laps + 16 * (laps - 1)
    assert len(trace) == cpu.steps + 1


#: Small sizes of the minicc kernels, so their multi-block loops (none
#: of which is a self-loop) run few laps.
SMALL_COMPILED = {
    "mmul": {"n": 3},
    "sor": {"n": 5, "sweeps": 2},
    "ej": {"n": 5, "sweeps": 2},
    "fft": {"n": 8},
    "tri": {"n": 6, "sweeps": 2},
    "lu": {"n": 4},
}


@pytest.mark.parametrize("opt_level", (0, 1))
@pytest.mark.parametrize("name", sorted(SMALL_COMPILED))
def test_small_minicc_kernels(name, opt_level):
    kernel, verify = compiled_workload(name, opt_level=opt_level, **SMALL_COMPILED[name])
    cpu, _ = _assert_same(kernel.assemble())
    verify(cpu)


@pytest.mark.parametrize("name", WORKLOADS)
def test_each_text_address_is_compiled_once(name):
    # Blocks end at leaders, so no two compiled blocks share an address:
    # a block entered above a loop head stops at it instead of
    # compiling the loop body a second time.
    program = registry.build_workload(name).assemble()
    covered: dict[int, int] = {}
    for start, count in _block_sizes(program, max_steps=50_000_000).items():
        for pc in range(start, start + 4 * count, 4):
            assert pc not in covered, (hex(pc), hex(start), hex(covered[pc]))
            covered[pc] = start
