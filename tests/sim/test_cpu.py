"""Tests for the CPU interpreter, one behaviour at a time."""

import pytest

from repro.isa.assembler import STACK_TOP, assemble
from repro.sim.cpu import Cpu, CpuError, run_program


def run_asm(body: str, max_steps: int = 100_000):
    """Assemble a .text body (with exit appended) and run it."""
    source = f".text\nmain:\n{body}\nli $v0, 10\nsyscall\n"
    program = assemble(source)
    cpu = Cpu(program)
    cpu.run(max_steps=max_steps)
    return cpu


class TestArithmetic:
    def test_addu_wraps(self):
        cpu = run_asm("li $t0, 0x7FFFFFFF\nli $t1, 1\naddu $t2, $t0, $t1\n")
        assert cpu.regs[10] == 0x80000000

    def test_subu_wraps(self):
        cpu = run_asm("li $t0, 0\nli $t1, 1\nsubu $t2, $t0, $t1\n")
        assert cpu.regs[10] == 0xFFFFFFFF

    def test_logic_ops(self):
        cpu = run_asm(
            "li $t0, 0x0F0F\nli $t1, 0x00FF\n"
            "and $t2, $t0, $t1\nor $t3, $t0, $t1\n"
            "xor $t4, $t0, $t1\nnor $t5, $t0, $t1\n"
        )
        assert cpu.regs[10] == 0x000F
        assert cpu.regs[11] == 0x0FFF
        assert cpu.regs[12] == 0x0FF0
        assert cpu.regs[13] == 0xFFFFF000

    def test_slt_signed(self):
        cpu = run_asm("li $t0, -1\nli $t1, 1\nslt $t2, $t0, $t1\nsltu $t3, $t0, $t1\n")
        assert cpu.regs[10] == 1  # -1 < 1 signed
        assert cpu.regs[11] == 0  # 0xFFFFFFFF > 1 unsigned

    def test_shifts(self):
        cpu = run_asm(
            "li $t0, -8\nsra $t1, $t0, 1\nsrl $t2, $t0, 1\nsll $t3, $t0, 1\n"
        )
        assert cpu.regs[9] == 0xFFFFFFFC  # -4
        assert cpu.regs[10] == 0x7FFFFFFC
        assert cpu.regs[11] == 0xFFFFFFF0

    def test_variable_shifts(self):
        cpu = run_asm("li $t0, 1\nli $t1, 5\nsllv $t2, $t0, $t1\n")
        assert cpu.regs[10] == 32

    def test_mult_hi_lo(self):
        cpu = run_asm(
            "li $t0, 0x10000\nli $t1, 0x10000\nmult $t0, $t1\n"
            "mfhi $t2\nmflo $t3\n"
        )
        assert cpu.regs[10] == 1
        assert cpu.regs[11] == 0

    def test_mult_signed(self):
        cpu = run_asm("li $t0, -2\nli $t1, 3\nmult $t0, $t1\nmflo $t2\nmfhi $t3\n")
        assert cpu.regs[10] == 0xFFFFFFFA  # -6
        assert cpu.regs[11] == 0xFFFFFFFF  # sign extension

    def test_div_truncates_toward_zero(self):
        cpu = run_asm("li $t0, -7\nli $t1, 2\ndiv $t0, $t1\nmflo $t2\nmfhi $t3\n")
        assert cpu.regs[10] == 0xFFFFFFFD  # -3, not -4
        assert cpu.regs[11] == 0xFFFFFFFF  # remainder -1

    def test_div_by_zero_is_quiet(self):
        cpu = run_asm("li $t0, 5\nli $t1, 0\ndiv $t0, $t1\nmflo $t2\n")
        assert cpu.regs[10] == 0

    def test_zero_register_immutable(self):
        cpu = run_asm("li $t0, 7\naddu $zero, $t0, $t0\naddiu $zero, $t0, 1\n")
        assert cpu.regs[0] == 0


class TestMemoryOps:
    def test_lw_sw(self):
        cpu = run_asm(
            ".data\nv: .word 0\n.text\n"
            "la $t0, v\nli $t1, 1234\nsw $t1, 0($t0)\nlw $t2, 0($t0)\n",
        )
        assert cpu.regs[10] == 1234

    def test_byte_ops_sign(self):
        cpu = run_asm(
            ".data\nb: .byte 0xFF\n.text\n"
            "la $t0, b\nlb $t1, 0($t0)\nlbu $t2, 0($t0)\n",
        )
        assert cpu.regs[9] == 0xFFFFFFFF
        assert cpu.regs[10] == 0xFF

    def test_half_ops(self):
        cpu = run_asm(
            ".data\nh: .half 0x8001\n.text\n"
            "la $t0, h\nlh $t1, 0($t0)\nlhu $t2, 0($t0)\n",
        )
        assert cpu.regs[9] == 0xFFFF8001
        assert cpu.regs[10] == 0x8001

    def test_sb_sh(self):
        cpu = run_asm(
            ".data\nv: .word 0\n.text\n"
            "la $t0, v\nli $t1, 0x1234ABCD\nsb $t1, 0($t0)\nsh $t1, 2($t0)\nlw $t2, 0($t0)\n",
        )
        assert cpu.regs[10] == 0xABCD00CD


class TestControlFlow:
    def test_loop_counts(self):
        cpu = run_asm(
            "li $t0, 0\nli $t1, 10\nloop: addiu $t0, $t0, 1\nbne $t0, $t1, loop\n"
        )
        assert cpu.regs[8] == 10

    def test_jal_jr(self):
        cpu = run_asm(
            "jal func\nb done\nfunc: li $t0, 99\njr $ra\ndone: nop\n"
        )
        assert cpu.regs[8] == 99

    def test_branch_flavours(self):
        cpu = run_asm(
            """
            li $t0, -5
            li $t5, 0
            bltz $t0, a
            li $t5, 1
            a: bgez $t0, bad
            blez $t0, b
            li $t5, 2
            b: li $t1, 5
            bgtz $t1, c
            li $t5, 3
            c: nop
            bad: nop
            """
        )
        assert cpu.regs[13] == 0

    def test_runaway_guard(self):
        source = ".text\nmain: b main\n"
        program = assemble(source)
        cpu = Cpu(program)
        with pytest.raises(CpuError, match="exceeded"):
            cpu.run(max_steps=100)

    def test_pc_out_of_text(self):
        source = ".text\nmain: jr $zero\n"
        program = assemble(source)
        cpu = Cpu(program)
        with pytest.raises(CpuError, match="PC out of text"):
            cpu.run(max_steps=10)


class TestFloatingPoint:
    def test_arithmetic(self):
        cpu = run_asm(
            ".data\nd: .double 3.0, 2.0\nout: .double 0.0\n.text\n"
            "la $t0, d\nl.d $f2, 0($t0)\nl.d $f4, 8($t0)\n"
            "mul.d $f6, $f2, $f4\nadd.d $f6, $f6, $f2\n"
            "div.d $f6, $f6, $f4\nsub.d $f6, $f6, $f4\n"
            "s.d $f6, 16($t0)\n",
        )
        # ((3*2 + 3) / 2) - 2 = 2.5
        out = cpu.program.address_of("out")
        assert cpu.memory.read_f64(out) == 2.5

    def test_sqrt_abs_neg_mov(self):
        cpu = run_asm(
            ".data\nd: .double 16.0\nout: .space 32\n.text\n"
            "la $t0, d\nl.d $f2, 0($t0)\nsqrt.d $f4, $f2\n"
            "neg.d $f6, $f4\nabs.d $f8, $f6\nmov.d $f10, $f8\n"
            "s.d $f4, 8($t0)\ns.d $f6, 16($t0)\ns.d $f10, 24($t0)\n",
        )
        base = cpu.program.address_of("d")
        assert cpu.memory.read_f64(base + 8) == 4.0
        assert cpu.memory.read_f64(base + 16) == -4.0
        assert cpu.memory.read_f64(base + 24) == 4.0

    def test_compare_and_branch(self):
        cpu = run_asm(
            ".data\nd: .double 1.0, 2.0\n.text\n"
            "la $t0, d\nl.d $f2, 0($t0)\nl.d $f4, 8($t0)\n"
            "li $t5, 0\n"
            "c.lt.d $f2, $f4\nbc1t yes\nli $t5, 1\n"
            "yes: c.eq.d $f2, $f4\nbc1f no\nli $t5, 2\n"
            "no: nop\n",
        )
        assert cpu.regs[13] == 0

    def test_mtc1_converts(self):
        cpu = run_asm(
            ".data\nout: .double 0.0\n.text\n"
            "li $t0, -7\nmtc1 $t0, $f2\nla $t1, out\ns.d $f2, 0($t1)\n",
        )
        assert cpu.memory.read_f64(cpu.program.address_of("out")) == -7.0


class TestSyscalls:
    def test_print_int(self):
        cpu = run_asm("li $a0, -42\nli $v0, 1\nsyscall\n")
        assert cpu.output == ["-42"]

    def test_print_string(self):
        cpu = run_asm(
            '.data\nmsg: .asciiz "hey"\n.text\nla $a0, msg\nli $v0, 4\nsyscall\n'
        )
        assert cpu.output == ["hey"]

    def test_print_char(self):
        cpu = run_asm("li $a0, 65\nli $v0, 11\nsyscall\n")
        assert cpu.output == ["A"]

    def test_unknown_syscall(self):
        source = ".text\nmain: li $v0, 77\nsyscall\n"
        program = assemble(source)
        cpu = Cpu(program)
        with pytest.raises(CpuError, match="unknown syscall"):
            cpu.run(max_steps=10)


class TestInitialState:
    def test_stack_and_gp(self):
        program = assemble(".text\nmain: li $v0, 10\nsyscall\n")
        cpu = Cpu(program)
        assert cpu.regs[29] == STACK_TOP
        assert cpu.regs[28] == program.data_base + 0x8000

    def test_text_visible_in_memory(self):
        program = assemble(".text\nmain: addu $t0, $t1, $t2\nli $v0, 10\nsyscall\n")
        cpu = Cpu(program)
        assert cpu.memory.read_u32(program.text_base) == 0x012A4021


class TestTrace:
    def test_trace_matches_execution(self):
        source = """
        .text
        main: li $t0, 3
        loop: addiu $t0, $t0, -1
        bnez $t0, loop
        li $v0, 10
        syscall
        """
        program = assemble(source)
        cpu, trace = run_program(program)
        assert len(trace) == cpu.steps
        assert trace.expand()[0] == program.entry
        # loop body (2 instructions) runs 3 times
        loop = program.address_of("loop")
        assert trace.expand().count(loop) == 3
