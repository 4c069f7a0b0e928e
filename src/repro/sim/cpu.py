"""In-order functional CPU interpreter, compiled per basic block.

The paper's baseline is "a typical embedded processor front-end, which
fetches and executes instructions in order and one at a time"; this
interpreter models exactly that, but executes a basic block at a time.
The first time control reaches an address, the straight-line stretch
from there to the next control transfer, syscall, or basic-block
leader (:func:`repro.cfg.basic_blocks.find_leaders`, the encoder's
definition of a block) is generated as one Python function: the
block's instructions as plain statements on the register lists,
ending in a ``return`` of the next PC.  A block that stops just before
a leader returns that leader's PC, so a loop body entered from above
is not generated a second time; a ``jr`` into the middle of a block
compiles from there to the next leader.  Dispatch is one dict lookup
per block (a miss is the text-bounds check), and the fetch trace grows
by one ``(entry_pc, length, repeats)`` group per maximal sequential
run repeated back to back (:class:`~repro.sim.tracer.FetchTrace`), not
one PC per fetch.

A block whose taken branch re-enters its own start (a self-loop, the
innermost loop of most kernels) is generated as a ``for`` loop around
the body instead: one call runs as many iterations as the branch takes,
capped so the step limit still lands where it would, and returns the
iteration count; :meth:`Cpu.run` records the iterations between the
first and the last as one run group.
The loop keeps the registers it uses in local variables and stores them
back when it exits.  A fault in iteration *j* is placed by the
iteration counter and the line number it leaves on the block frame.

A block body indexes native-order views of the program's data segment,
one flat buffer (:meth:`~repro.sim.memory.Memory.map_segment`), for
``ldc1``/``sdc1`` and ``lw``/``sw`` at aligned addresses inside it; any
other access calls the :class:`Memory` method, which carries the MMIO
routing, as do all accesses on a big-endian host and the other widths.
A block function binds only the register lists, memory accessors and
helpers its body names, which keeps ``compile()`` of its header short.

:meth:`Cpu.step` executes one instruction through a per-instruction
closure.  It shares no code with the block compiler and is the oracle
the differential tests hold :meth:`Cpu.run` to.

Architectural simplifications (documented in DESIGN.md): no branch
delay slots (``jal`` links to ``pc + 4``), and each FP register holds
one double-precision value.

System calls follow SPIM conventions: ``$v0`` selects the service
(1 = print int in ``$a0``, 3 = print double in ``$f12``, 4 = print
string at ``$a0``, 11 = print char, 10 = exit).
"""

from __future__ import annotations

import math
import re
import sys
from typing import Callable

from repro.cfg.basic_blocks import find_leaders
from repro.isa.assembler import STACK_TOP, Program
from repro.isa.instruction import Instruction
from repro.isa.registers import A0, GP, RA, SP, V0
from repro.sim.memory import Memory
from repro.sim.tracer import FetchTrace

MASK32 = 0xFFFFFFFF


def _signed(value: int) -> int:
    return value - 0x100000000 if value & 0x80000000 else value


def _fdiv(a: float, b: float) -> float:
    """IEEE 754 ``a / b``, which Python refuses for a zero ``b``."""
    if b:
        return a / b
    return math.nan if not a or a != a else math.copysign(math.inf, a) * math.copysign(1, b)


def _fsqrt(x: float) -> float:
    """IEEE 754 square root, which Python refuses below -0.0."""
    return math.sqrt(x) if x >= 0.0 else math.nan


def _trunc(x: float) -> int:
    """Truncate toward zero; NaN and values outside int32 give 2**31 - 1 (MIPS invalid)."""
    return int(x) if -2147483649.0 < x < 2147483648.0 else 0x7FFFFFFF


class CpuError(RuntimeError):
    """Raised for runtime faults (bad PC, step overrun, bad syscall)."""


class Cpu:
    """A single MIPS-like core bound to a program and a memory."""

    def __init__(self, program: Program, memory: Memory | None = None):
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.regs: list[int] = [0] * 32
        self.fregs: list[float] = [0.0] * 32
        self.hi = 0
        self.lo = 0
        self.fcc = False
        self.pc = program.entry
        self.running = True
        self.steps = 0
        self.output: list[str] = []
        self.regs[SP] = STACK_TOP
        self.regs[GP] = (program.data_base + 0x8000) & MASK32
        #: ``(base, double view, word view)`` of the data segment that
        #: generated blocks index, or None without one
        mapped = None
        if _LITTLE_ENDIAN_HOST:
            mapped = self.memory.map_segment(program.data_base, len(program.data_image))
        self.segment = mapped and (mapped[0], mapped[1].cast("d"), mapped[1].cast("I"))
        self.memory.write_bytes(program.data_base, bytes(program.data_image))
        # Keep a copy of the text image in memory too, so indirect
        # reads of code (rare, but legal) behave.
        for i, word in enumerate(program.words):
            self.memory.write_u32(program.text_base + 4 * i, word)
        #: entry PC -> (block function, instruction count, self-loop?)
        self._blocks: dict[int, tuple[Callable, int, bool]] = {}
        #: addresses that begin basic blocks; a generated block stops
        #: just before the next one
        self._leaders = find_leaders(program)
        #: per-instruction closures for :meth:`step`, built on first use
        self._compiled: list[Callable[["Cpu"], None]] | None = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        max_steps: int = 100_000_000,
        trace: FetchTrace | None = None,
    ) -> int:
        """Run until exit; returns the executed instruction count.

        ``trace``, when given, receives the fetch stream as run groups:
        one ``(entry_pc, length, repeats)`` entry per maximal stretch of
        sequential fetches repeated back to back — the raw material for
        the bus transition measurements.  A self-loop's iterations after
        the first and before the last are one group.  On a fault the
        trace, :attr:`steps` and :attr:`pc` stop at the faulting
        instruction, as :meth:`step` would leave them.
        """
        blocks = self._blocks
        starts: list[int] = []
        lengths: list[int] = []
        repeats: list[int] = []

        def close(start: int, length: int, times: int) -> None:
            # Append ``times`` occurrences of a finished run.
            if starts and start == starts[-1] and length == lengths[-1]:
                repeats[-1] += times
            else:
                starts.append(start)
                lengths.append(length)
                repeats.append(times)

        pc = run_start = run_end = self.pc
        run_length = steps = count = 0
        block = None
        try:
            while self.running:
                if steps >= max_steps:
                    raise CpuError(f"exceeded {max_steps} steps")
                entry = blocks.get(pc)
                if entry is None:
                    entry = blocks[pc] = self._compile_block(pc)
                if steps + entry[1] > max_steps:
                    # The limit lands inside this block: run its prefix.
                    entry = self._compile_block(pc, max_steps - steps)
                block, count, loops = entry
                if pc != run_end:
                    if run_length:
                        close(run_start, run_length, 1)
                    run_start = pc
                    run_length = 0
                run_length += count
                run_end = pc + 4 * count
                steps += count
                if loops:
                    # A self-loop runs as many iterations as the step
                    # limit allows; each one after the first is its own
                    # run starting at the block's entry, and all but the
                    # last (which later fetches may continue) are one
                    # group.
                    laps_left = (max_steps - steps) // count + 1
                    head = pc
                    pc, laps = block(laps_left)
                    if laps > 1:
                        steps += count * (laps - 1)
                        close(run_start, run_length, 1)
                        if laps > 2:
                            close(head, count, laps - 2)
                        run_start, run_length = head, count
                else:
                    pc = block()
                block = None
        except BaseException as err:
            if block is not None:
                # The fault came from inside the block: the faulting
                # instruction was fetched but did not complete.
                laps, done = _completed_before_fault(err, block)
                if laps:  # iterations of a self-loop completed first
                    steps += count * laps
                    close(run_start, run_length, 1)
                    if laps > 1:
                        close(pc, count, laps - 1)
                    run_start, run_length = pc, count
                undone = count - done
                steps -= undone
                run_length -= undone - 1
                pc += 4 * done
            raise
        finally:
            if run_length:
                close(run_start, run_length, 1)
            if trace is not None:
                trace.append_runs(starts, lengths, repeats)
            self.pc = pc
            self.steps += steps
        return steps

    def step(self) -> None:
        """Execute a single instruction (the oracle for :meth:`run`)."""
        base = self.program.text_base
        if self.pc < base or self.pc >= self.program.text_end or self.pc & 3:
            raise CpuError(f"PC out of text: {self.pc:#010x}")
        if self._compiled is None:
            self._compiled = [
                self._compile(inst) for inst in self.program.instructions
            ]
        self._compiled[(self.pc - base) >> 2](self)
        self.steps += 1

    def _compile_block(
        self, pc: int, limit: int | None = None
    ) -> tuple[Callable, int, bool]:
        """The block function entered at ``pc`` (at most ``limit``
        instructions), its instruction count, and whether it is a
        self-loop: a block whose taken branch re-enters ``pc``.  The
        block ends at a control transfer, a syscall, or just before the
        next leader, whose PC it returns as its fall-through exit.

        A plain block takes no argument and returns the next PC.  A
        self-loop takes an iteration cap and returns ``(next PC,
        iterations run)``; it stops at the cap with the branch taken."""
        program = self.program
        base = program.text_base
        if pc < base or pc >= program.text_end or pc & 3:
            raise CpuError(f"PC out of text: {pc:#010x}")
        first = (pc - base) >> 2
        last = len(program.instructions)
        if limit is not None:
            last = min(last, first + limit)
        body: list[str] = []
        #: body line -> offset of the instruction it belongs to
        owners: list[int] = []
        exit_pc = ""
        for index in range(first, last):
            inst = program.instructions[index]
            statements, exit_pc = _emit(inst, base + 4 * index, self.segment)
            body.extend(statements)
            owners.extend([index - first] * len(statements))
            if exit_pc or base + 4 * index + 4 in self._leaders:
                break
        count = index - first + 1
        loops = (
            inst.name in _CONDITIONS
            and base + 4 * index + 4 + 4 * inst.simm == pc
        )
        if loops:
            condition = _condition_src(inst)
            block = _build_loop(self, body, owners, count, pc, condition)
        else:
            exit_pc = exit_pc or str(pc + 4 * count)
            block = _build_block(self, body, owners, count, exit_pc)
        return block, count, loops

    # ------------------------------------------------------------------
    # System calls
    # ------------------------------------------------------------------

    def _syscall(self) -> None:
        service = self.regs[V0]
        if service == 1:
            self.output.append(str(_signed(self.regs[A0])))
        elif service == 3:
            self.output.append(repr(self.fregs[12]))
        elif service == 4:
            self.output.append(self.memory.read_cstring(self.regs[A0]))
        elif service == 11:
            self.output.append(chr(self.regs[A0] & 0xFF))
        elif service == 10:
            self.running = False
        else:
            raise CpuError(f"unknown syscall {service} at {self.pc:#010x}")

    # ------------------------------------------------------------------
    # Instruction compilation
    # ------------------------------------------------------------------

    def _compile(self, inst: Instruction) -> Callable[["Cpu"], None]:
        name = inst.name
        rd, rs, rt = inst.get("rd"), inst.get("rs"), inst.get("rt")
        fd, fs, ft = inst.get("fd"), inst.get("fs"), inst.get("ft")
        shamt = inst.get("shamt")
        imm_u = inst.get("imm")
        imm_s = inst.simm
        target = inst.get("target")

        def wreg(builder):
            """Wrap a register-writing closure so $zero stays zero."""
            if builder is None:
                return None
            if rd == 0 and name not in ("jalr",):
                def discard(c, b=builder):
                    b(c)
                    c.regs[0] = 0
                return discard
            return builder

        # --- R-type ALU -----------------------------------------------
        if name in ("add", "addu"):
            def op(c):
                c.regs[rd] = (c.regs[rs] + c.regs[rt]) & MASK32
                c.pc += 4
            return wreg(op)
        if name in ("sub", "subu"):
            def op(c):
                c.regs[rd] = (c.regs[rs] - c.regs[rt]) & MASK32
                c.pc += 4
            return wreg(op)
        if name == "and":
            def op(c):
                c.regs[rd] = c.regs[rs] & c.regs[rt]
                c.pc += 4
            return wreg(op)
        if name == "or":
            def op(c):
                c.regs[rd] = c.regs[rs] | c.regs[rt]
                c.pc += 4
            return wreg(op)
        if name == "xor":
            def op(c):
                c.regs[rd] = c.regs[rs] ^ c.regs[rt]
                c.pc += 4
            return wreg(op)
        if name == "nor":
            def op(c):
                c.regs[rd] = ~(c.regs[rs] | c.regs[rt]) & MASK32
                c.pc += 4
            return wreg(op)
        if name == "slt":
            def op(c):
                c.regs[rd] = 1 if _signed(c.regs[rs]) < _signed(c.regs[rt]) else 0
                c.pc += 4
            return wreg(op)
        if name == "sltu":
            def op(c):
                c.regs[rd] = 1 if c.regs[rs] < c.regs[rt] else 0
                c.pc += 4
            return wreg(op)
        if name == "sll":
            def op(c):
                c.regs[rd] = (c.regs[rt] << shamt) & MASK32
                c.pc += 4
            return wreg(op)
        if name == "srl":
            def op(c):
                c.regs[rd] = c.regs[rt] >> shamt
                c.pc += 4
            return wreg(op)
        if name == "sra":
            def op(c):
                c.regs[rd] = (_signed(c.regs[rt]) >> shamt) & MASK32
                c.pc += 4
            return wreg(op)
        if name == "sllv":
            def op(c):
                c.regs[rd] = (c.regs[rt] << (c.regs[rs] & 31)) & MASK32
                c.pc += 4
            return wreg(op)
        if name == "srlv":
            def op(c):
                c.regs[rd] = c.regs[rt] >> (c.regs[rs] & 31)
                c.pc += 4
            return wreg(op)
        if name == "srav":
            def op(c):
                c.regs[rd] = (_signed(c.regs[rt]) >> (c.regs[rs] & 31)) & MASK32
                c.pc += 4
            return wreg(op)
        if name in ("mult", "multu"):
            signed = name == "mult"
            def op(c):
                a = _signed(c.regs[rs]) if signed else c.regs[rs]
                b = _signed(c.regs[rt]) if signed else c.regs[rt]
                product = a * b
                c.lo = product & MASK32
                c.hi = (product >> 32) & MASK32
                c.pc += 4
            return op
        if name in ("div", "divu"):
            signed = name == "div"
            def op(c):
                a = _signed(c.regs[rs]) if signed else c.regs[rs]
                b = _signed(c.regs[rt]) if signed else c.regs[rt]
                if b == 0:
                    c.lo = 0
                    c.hi = 0
                else:
                    quotient = int(a / b)  # trunc toward zero, MIPS-style
                    c.lo = quotient & MASK32
                    c.hi = (a - quotient * b) & MASK32
                c.pc += 4
            return op
        if name == "mfhi":
            def op(c):
                c.regs[rd] = c.hi
                c.pc += 4
            return wreg(op)
        if name == "mflo":
            def op(c):
                c.regs[rd] = c.lo
                c.pc += 4
            return wreg(op)
        if name == "mthi":
            def op(c):
                c.hi = c.regs[rs]
                c.pc += 4
            return op
        if name == "mtlo":
            def op(c):
                c.lo = c.regs[rs]
                c.pc += 4
            return op
        if name == "jr":
            def op(c):
                c.pc = c.regs[rs]
            return op
        if name == "jalr":
            link = rd if rd else RA
            def op(c):
                c.regs[link] = (c.pc + 4) & MASK32
                c.pc = c.regs[rs]
            return op
        if name == "syscall":
            def op(c):
                c._syscall()
                c.pc += 4
            return op

        # --- I-type ----------------------------------------------------
        if name in ("addi", "addiu"):
            def op(c):
                c.regs[rt] = (c.regs[rs] + imm_s) & MASK32
                c.pc += 4
            return self._wrt(op, rt)
        if name == "slti":
            def op(c):
                c.regs[rt] = 1 if _signed(c.regs[rs]) < imm_s else 0
                c.pc += 4
            return self._wrt(op, rt)
        if name == "sltiu":
            def op(c):
                c.regs[rt] = 1 if c.regs[rs] < (imm_s & MASK32) else 0
                c.pc += 4
            return self._wrt(op, rt)
        if name == "andi":
            def op(c):
                c.regs[rt] = c.regs[rs] & imm_u
                c.pc += 4
            return self._wrt(op, rt)
        if name == "ori":
            def op(c):
                c.regs[rt] = c.regs[rs] | imm_u
                c.pc += 4
            return self._wrt(op, rt)
        if name == "xori":
            def op(c):
                c.regs[rt] = c.regs[rs] ^ imm_u
                c.pc += 4
            return self._wrt(op, rt)
        if name == "lui":
            value = (imm_u << 16) & MASK32
            def op(c):
                c.regs[rt] = value
                c.pc += 4
            return self._wrt(op, rt)
        if name == "lw":
            def op(c):
                c.regs[rt] = c.memory.read_u32((c.regs[rs] + imm_s) & MASK32)
                c.pc += 4
            return self._wrt(op, rt)
        if name == "sw":
            def op(c):
                c.memory.write_u32((c.regs[rs] + imm_s) & MASK32, c.regs[rt])
                c.pc += 4
            return op
        if name == "lb":
            def op(c):
                c.regs[rt] = c.memory.read_s8((c.regs[rs] + imm_s) & MASK32) & MASK32
                c.pc += 4
            return self._wrt(op, rt)
        if name == "lbu":
            def op(c):
                c.regs[rt] = c.memory.read_u8((c.regs[rs] + imm_s) & MASK32)
                c.pc += 4
            return self._wrt(op, rt)
        if name == "lh":
            def op(c):
                c.regs[rt] = c.memory.read_s16((c.regs[rs] + imm_s) & MASK32) & MASK32
                c.pc += 4
            return self._wrt(op, rt)
        if name == "lhu":
            def op(c):
                c.regs[rt] = c.memory.read_u16((c.regs[rs] + imm_s) & MASK32)
                c.pc += 4
            return self._wrt(op, rt)
        if name == "sb":
            def op(c):
                c.memory.write_u8((c.regs[rs] + imm_s) & MASK32, c.regs[rt])
                c.pc += 4
            return op
        if name == "sh":
            def op(c):
                c.memory.write_u16((c.regs[rs] + imm_s) & MASK32, c.regs[rt])
                c.pc += 4
            return op
        if name == "beq":
            offset = 4 + 4 * imm_s
            def op(c):
                c.pc += offset if c.regs[rs] == c.regs[rt] else 4
            return op
        if name == "bne":
            offset = 4 + 4 * imm_s
            def op(c):
                c.pc += offset if c.regs[rs] != c.regs[rt] else 4
            return op
        if name == "blez":
            offset = 4 + 4 * imm_s
            def op(c):
                c.pc += offset if _signed(c.regs[rs]) <= 0 else 4
            return op
        if name == "bgtz":
            offset = 4 + 4 * imm_s
            def op(c):
                c.pc += offset if _signed(c.regs[rs]) > 0 else 4
            return op
        if name == "bltz":
            offset = 4 + 4 * imm_s
            def op(c):
                c.pc += offset if _signed(c.regs[rs]) < 0 else 4
            return op
        if name == "bgez":
            offset = 4 + 4 * imm_s
            def op(c):
                c.pc += offset if _signed(c.regs[rs]) >= 0 else 4
            return op
        if name == "j":
            destination = target << 2
            def op(c):
                c.pc = destination
            return op
        if name == "jal":
            destination = target << 2
            def op(c):
                c.regs[RA] = (c.pc + 4) & MASK32
                c.pc = destination
            return op

        # --- FP loads/stores --------------------------------------------
        if name == "ldc1":
            def op(c):
                c.fregs[ft] = c.memory.read_f64((c.regs[rs] + imm_s) & MASK32)
                c.pc += 4
            return op
        if name == "sdc1":
            def op(c):
                c.memory.write_f64((c.regs[rs] + imm_s) & MASK32, c.fregs[ft])
                c.pc += 4
            return op
        if name == "lwc1":
            def op(c):
                c.fregs[ft] = c.memory.read_f32((c.regs[rs] + imm_s) & MASK32)
                c.pc += 4
            return op
        if name == "swc1":
            def op(c):
                c.memory.write_f32((c.regs[rs] + imm_s) & MASK32, c.fregs[ft])
                c.pc += 4
            return op

        # --- FP arithmetic -----------------------------------------------
        if name == "add.d":
            def op(c):
                c.fregs[fd] = c.fregs[fs] + c.fregs[ft]
                c.pc += 4
            return op
        if name == "sub.d":
            def op(c):
                c.fregs[fd] = c.fregs[fs] - c.fregs[ft]
                c.pc += 4
            return op
        if name == "mul.d":
            def op(c):
                c.fregs[fd] = c.fregs[fs] * c.fregs[ft]
                c.pc += 4
            return op
        if name == "div.d":
            def op(c):
                c.fregs[fd] = _fdiv(c.fregs[fs], c.fregs[ft])
                c.pc += 4
            return op
        if name == "sqrt.d":
            def op(c):
                c.fregs[fd] = _fsqrt(c.fregs[fs])
                c.pc += 4
            return op
        if name == "abs.d":
            def op(c):
                c.fregs[fd] = abs(c.fregs[fs])
                c.pc += 4
            return op
        if name == "mov.d":
            def op(c):
                c.fregs[fd] = c.fregs[fs]
                c.pc += 4
            return op
        if name == "neg.d":
            def op(c):
                c.fregs[fd] = -c.fregs[fs]
                c.pc += 4
            return op
        if name == "cvt.w.d":
            def op(c):
                c.fregs[fd] = float(_trunc(c.fregs[fs]))
                c.pc += 4
            return op
        if name == "cvt.d.w":
            def op(c):
                c.fregs[fd] = float(c.fregs[fs])
                c.pc += 4
            return op
        if name == "c.eq.d":
            def op(c):
                c.fcc = c.fregs[fs] == c.fregs[ft]
                c.pc += 4
            return op
        if name == "c.lt.d":
            def op(c):
                c.fcc = c.fregs[fs] < c.fregs[ft]
                c.pc += 4
            return op
        if name == "c.le.d":
            def op(c):
                c.fcc = c.fregs[fs] <= c.fregs[ft]
                c.pc += 4
            return op
        if name == "bc1t":
            offset = 4 + 4 * imm_s
            def op(c):
                c.pc += offset if c.fcc else 4
            return op
        if name == "bc1f":
            offset = 4 + 4 * imm_s
            def op(c):
                c.pc += offset if not c.fcc else 4
            return op
        if name == "mfc1":
            def op(c):
                c.regs[rt] = _trunc(c.fregs[fs]) & MASK32
                c.pc += 4
            return self._wrt(op, rt)
        if name == "mtc1":
            def op(c):
                c.fregs[fs] = float(_signed(c.regs[rt]))
                c.pc += 4
            return op

        raise CpuError(f"no handler for instruction {name!r}")

    @staticmethod
    def _wrt(builder: Callable[["Cpu"], None], rt: int):
        """Wrap an rt-writing closure so $zero stays zero."""
        if rt != 0:
            return builder

        def discard(c, b=builder):
            b(c)
            c.regs[0] = 0

        return discard


def run_program(
    program: Program,
    max_steps: int = 100_000_000,
    with_trace: bool = True,
) -> tuple[Cpu, FetchTrace]:
    """Assemble-and-go helper: run ``program`` and return the CPU state
    plus its fetch trace (empty when ``with_trace`` is false)."""
    from repro.obs import OBS

    cpu = Cpu(program)
    trace = FetchTrace()
    with OBS.tracer.span("sim.run", instructions=len(program.words)) as span:
        cpu.run(max_steps=max_steps, trace=trace if with_trace else None)
        span.set(steps=cpu.steps)
    if OBS.enabled:
        OBS.registry.counter(
            "sim.instructions", "instructions executed by the functional CPU"
        ).inc(cpu.steps)
        OBS.registry.counter(
            "sim.fetches", "fetch addresses captured into traces"
        ).inc(len(trace))
    return cpu, trace


# ----------------------------------------------------------------------
# Block compilation
# ----------------------------------------------------------------------

def _bindings(cpu: Cpu) -> dict:
    """The names a block body may use and what they stand for.  A block
    function takes the ones its body uses as defaults, so the body
    reads them as locals.  ``M`` and ``W`` are the data segment's double
    and word views."""
    mem = cpu.memory
    _, doubles, words = cpu.segment or (None, None, None)
    return {
        "c": cpu, "R": cpu.regs, "F": cpu.fregs, "M": doubles, "W": words,
        "sqrt": _fsqrt, "fdiv": _fdiv, "trunc": _trunc,
        "rd8": mem.read_u8, "rds8": mem.read_s8,
        "rd16": mem.read_u16, "rds16": mem.read_s16, "rd32": mem.read_u32,
        "wr8": mem.write_u8, "wr16": mem.write_u16, "wr32": mem.write_u32,
        "rdf32": mem.read_f32, "wrf32": mem.write_f32,
        "rdf64": mem.read_f64, "wrf64": mem.write_f64,
    }


#: 1-based source line of a block function's first body statement (the
#: ``def`` line is the first)
_FIRST_BODY_LINE = 2

#: The segment's views are native order and memory is little-endian,
#: so a :class:`Cpu` maps the segment only on a little-endian host.
_LITTLE_ENDIAN_HOST = sys.byteorder == "little"


def _build_block(
    cpu: Cpu, body: list[str], owners: list[int], count: int, exit_pc: str
) -> Callable[[], int]:
    """A plain block's function.  ``owners`` maps each body line to the
    offset of the instruction it belongs to; it becomes the function's
    line -> instruction map, which a fault reads."""
    lines = [f"    {line}\n" for line in body] + [f"    return {exit_pc}\n"]
    block = _define(cpu, "", lines)
    block.owners = owners + [count - 1]
    return block


def _build_loop(
    cpu: Cpu,
    body: list[str],
    owners: list[int],
    count: int,
    head: int,
    condition: str,
) -> Callable[[int], tuple[int, int]]:
    """A self-loop's function.  ``lap`` counts the iterations completed
    before the current one, which is what a fault reads off the frame.
    The registers the loop uses live in locals (``R[5]`` is ``r5``,
    ``F[2]`` is ``f2``) from entry to exit, and the ``finally`` clause
    stores them back, on a fault too."""
    body = [_REGISTER.sub(_local, line) for line in body]
    condition = _REGISTER.sub(_local, condition)
    used = sorted(set(_LOCAL.findall(" ".join(body + [condition]))))
    load = "; ".join(f"{name} = {_register(name)}" for name in used) or "pass"
    store = "; ".join(f"{_register(name)} = {name}" for name in used) or "pass"
    lines = [
        f"    {load}\n",
        "    try:\n",
        "        for lap in range(cap):\n",
        *(f"            {line}\n" for line in body),
        f"            if not ({condition}): return {head + 4 * count}, lap + 1\n",
        f"        return {head}, cap\n",
        "    finally:\n",
        f"        {store}\n",
    ]
    block = _define(cpu, "cap", lines)
    block.owners = [0] * 3 + owners + [count - 1] * 4
    return block


#: A register reference in emitted code, and its local-variable form
_REGISTER = re.compile(r"\b([RF])\[(\d+)\]")
_LOCAL = re.compile(r"\b[rf]\d+\b")


def _local(match: re.Match) -> str:
    return match[1].lower() + match[2]


def _register(local: str) -> str:
    return f"{local[0].upper()}[{local[1:]}]"


def _define(cpu: Cpu, argument: str, lines: list[str]) -> Callable:
    """Compile ``def block(argument, <bindings>):`` over ``lines``."""
    body = "".join(lines)
    names = set(re.findall(r"[A-Za-z_]\w*", body))
    namespace = {k: v for k, v in _bindings(cpu).items() if k in names}
    params = ([argument] if argument else []) + [f"{k}={k}" for k in namespace]
    source = f"def block({', '.join(params)}):\n{body}"
    exec(compile(source, "<basic block>", "exec"), namespace)
    return namespace["block"]


def _completed_before_fault(err: BaseException, block: Callable) -> tuple[int, int]:
    """How many iterations of ``block`` completed before ``err`` was
    raised inside it (0 unless it is a self-loop), and how many of the
    faulting iteration's instructions, read off the block frame."""
    tb = err.__traceback__
    while tb is not None and tb.tb_frame.f_code is not block.__code__:
        tb = tb.tb_next
    if tb is None:
        return 0, 0
    laps = tb.tb_frame.f_locals.get("lap", 0)
    return laps, block.owners[tb.tb_lineno - _FIRST_BODY_LINE]


def _signed_src(reg: int) -> str:
    return f"((R[{reg}] ^ 0x80000000) - 0x80000000)"


def _address_src(rs: int, imm: int) -> str:
    return f"(R[{rs}] + {imm}) & 0xFFFFFFFF" if imm else f"R[{rs}]"


#: ``name -> expression`` for ALU results written to ``rd``
_R_ALU = {
    "add": "(R[{rs}] + R[{rt}]) & 0xFFFFFFFF",
    "addu": "(R[{rs}] + R[{rt}]) & 0xFFFFFFFF",
    "sub": "(R[{rs}] - R[{rt}]) & 0xFFFFFFFF",
    "subu": "(R[{rs}] - R[{rt}]) & 0xFFFFFFFF",
    "and": "R[{rs}] & R[{rt}]",
    "or": "R[{rs}] | R[{rt}]",
    "xor": "R[{rs}] ^ R[{rt}]",
    "nor": "~(R[{rs}] | R[{rt}]) & 0xFFFFFFFF",
    "slt": "1 if (R[{rs}] ^ 0x80000000) < (R[{rt}] ^ 0x80000000) else 0",
    "sltu": "1 if R[{rs}] < R[{rt}] else 0",
    "sll": "(R[{rt}] << {shamt}) & 0xFFFFFFFF",
    "srl": "R[{rt}] >> {shamt}",
    "sra": "({srt} >> {shamt}) & 0xFFFFFFFF",
    "sllv": "(R[{rt}] << (R[{rs}] & 31)) & 0xFFFFFFFF",
    "srlv": "R[{rt}] >> (R[{rs}] & 31)",
    "srav": "({srt} >> (R[{rs}] & 31)) & 0xFFFFFFFF",
    "mfhi": "c.hi",
    "mflo": "c.lo",
}

#: ``name -> expression`` for immediate-form results written to ``rt``
_I_ALU = {
    "addi": "(R[{rs}] + {imm_s}) & 0xFFFFFFFF",
    "addiu": "(R[{rs}] + {imm_s}) & 0xFFFFFFFF",
    "slti": "1 if (R[{rs}] ^ 0x80000000) < {imm_biased} else 0",
    "sltiu": "1 if R[{rs}] < {imm_wrapped} else 0",
    "andi": "R[{rs}] & {imm_u}",
    "ori": "R[{rs}] | {imm_u}",
    "xori": "R[{rs}] ^ {imm_u}",
    "lui": "{upper}",
    "lb": "rds8({addr}) & 0xFFFFFFFF",
    "lbu": "rd8({addr})",
    "lh": "rds16({addr}) & 0xFFFFFFFF",
    "lhu": "rd16({addr})",
    "mfc1": "trunc(F[{fs}]) & 0xFFFFFFFF",
}

#: ``name -> statement`` for everything that writes no integer register
_STATEMENTS = {
    "mthi": "c.hi = R[{rs}]",
    "mtlo": "c.lo = R[{rs}]",
    "sb": "wr8({addr}, R[{rt}])",
    "sh": "wr16({addr}, R[{rt}])",
    "lwc1": "F[{ft}] = rdf32({addr})",
    "swc1": "wrf32({addr}, F[{ft}])",
    "add.d": "F[{fd}] = F[{fs}] + F[{ft}]",
    "sub.d": "F[{fd}] = F[{fs}] - F[{ft}]",
    "mul.d": "F[{fd}] = F[{fs}] * F[{ft}]",
    "div.d": "F[{fd}] = F[{fs}] / F[{ft}] if F[{ft}] else fdiv(F[{fs}], F[{ft}])",
    "sqrt.d": "F[{fd}] = sqrt(F[{fs}])",
    "abs.d": "F[{fd}] = abs(F[{fs}])",
    "mov.d": "F[{fd}] = F[{fs}]",
    "neg.d": "F[{fd}] = -F[{fs}]",
    "cvt.w.d": "F[{fd}] = float(trunc(F[{fs}]))",
    "cvt.d.w": "F[{fd}] = float(F[{fs}])",
    "c.eq.d": "c.fcc = F[{fs}] == F[{ft}]",
    "c.lt.d": "c.fcc = F[{fs}] < F[{ft}]",
    "c.le.d": "c.fcc = F[{fs}] <= F[{ft}]",
    "mtc1": "F[{fs}] = float({srt})",
}

#: ``name -> condition`` for conditional branches
_CONDITIONS = {
    "beq": "R[{rs}] == R[{rt}]",
    "bne": "R[{rs}] != R[{rt}]",
    "blez": "(R[{rs}] ^ 0x80000000) <= 0x80000000",
    "bgtz": "(R[{rs}] ^ 0x80000000) > 0x80000000",
    "bltz": "R[{rs}] >= 0x80000000",
    "bgez": "R[{rs}] < 0x80000000",
    "bc1t": "c.fcc",
    "bc1f": "not c.fcc",
}


def _condition_src(inst: Instruction) -> str:
    return _CONDITIONS[inst.name].format(rs=inst.get("rs"), rt=inst.get("rt"))


#: ``name -> (register, view, log2 of the width, method)`` for the loads
#: and stores that index the data segment's views
_SEGMENT_ACCESS = {
    "lw": ("R[{rt}]", "W", 2, "rd32"), "sw": ("R[{rt}]", "W", 2, "wr32"),
    "ldc1": ("F[{ft}]", "M", 3, "rdf64"), "sdc1": ("F[{ft}]", "M", 3, "wrf64"),
}


def _segment_src(name: str, fields: dict, segment) -> list[str]:
    """A load or store of :data:`_SEGMENT_ACCESS`: ``i = R[rs] + imm - base``
    indexes the view when ``i & (-size | width - 1)`` is 0, that is for an
    aligned address in the segment (a sum that wraps 32 bits misses)."""
    register, view, shift, method = _SEGMENT_ACCESS[name]
    value, store = register.format(**fields), method.startswith("wr")
    call = f"{method}({fields['addr']}{', ' + value if store else ''})"
    if segment is None:
        return [call if store else f"{value} = {call}"]
    offset, mask = segment[0] - fields["imm_s"], -segment[1].nbytes | (1 << shift) - 1
    hit = f"not (i := R[{fields['rs']}] - {offset}) & {mask}"
    if store:
        return [f"if {hit}: {view}[i >> {shift}] = {value}", f"else: {call}"]
    return [f"{value} = {view}[i >> {shift}] if {hit} else {call}"]


def _emit(inst: Instruction, pc: int, segment) -> tuple[list[str], str]:
    """Python statements for one instruction at ``pc``, plus the
    next-PC expression when it ends the block ("" when it falls
    through).  ``segment`` is :attr:`Cpu.segment`."""
    name = inst.name
    rd, rs, rt = inst.get("rd"), inst.get("rs"), inst.get("rt")
    imm_u = inst.get("imm")
    imm_s = inst.simm
    fields = {
        "rd": rd,
        "rs": rs,
        "rt": rt,
        "fd": inst.get("fd"),
        "fs": inst.get("fs"),
        "ft": inst.get("ft"),
        "shamt": inst.get("shamt"),
        "imm_u": imm_u,
        "imm_s": imm_s,
        "imm_biased": imm_s + 0x80000000,
        "imm_wrapped": imm_s & MASK32,
        "upper": (imm_u << 16) & MASK32,
        "srt": _signed_src(rt),
        "addr": _address_src(rs, imm_s),
    }
    if name in _R_ALU:
        lines = [f"R[{rd}] = " + _R_ALU[name].format(**fields)]
        return (lines + ["R[0] = 0"] if rd == 0 else lines), ""
    if name in _I_ALU:
        lines = [f"R[{rt}] = " + _I_ALU[name].format(**fields)]
        return (lines + ["R[0] = 0"] if rt == 0 else lines), ""
    if name in _STATEMENTS:
        return [_STATEMENTS[name].format(**fields)], ""
    if name in _SEGMENT_ACCESS:
        lines = _segment_src(name, fields, segment)
        return (lines + ["R[0] = 0"] if name == "lw" and rt == 0 else lines), ""
    if name in ("mult", "multu"):
        a, b = (_signed_src(rs), _signed_src(rt)) if name == "mult" else (f"R[{rs}]", f"R[{rt}]")
        return [
            f"p = {a} * {b}",
            "c.lo = p & 0xFFFFFFFF",
            "c.hi = (p >> 32) & 0xFFFFFFFF",
        ], ""
    if name in ("div", "divu"):
        a, b = (_signed_src(rs), _signed_src(rt)) if name == "div" else (f"R[{rs}]", f"R[{rt}]")
        return [
            f"a = {a}",
            f"b = {b}",
            "if b == 0: c.lo = c.hi = 0",
            "else: q = int(a / b); c.lo = q & 0xFFFFFFFF; c.hi = (a - q * b) & 0xFFFFFFFF",
        ], ""
    if name == "syscall":
        return [f"c.pc = {pc}", "c._syscall()"], str(pc + 4)
    if name in _CONDITIONS:
        taken = pc + 4 + 4 * imm_s
        return [], f"{taken} if {_condition_src(inst)} else {pc + 4}"
    if name == "j":
        return [], str(inst.get("target") << 2)
    if name == "jal":
        return [f"R[{RA}] = {(pc + 4) & MASK32}"], str(inst.get("target") << 2)
    if name == "jr":
        return [], f"R[{rs}]"
    if name == "jalr":
        link = rd if rd else RA
        return [f"R[{link}] = {(pc + 4) & MASK32}"], f"R[{rs}]"
    raise CpuError(f"no handler for instruction {name!r}")
