"""Tests for the paged memory, and for the block compiler's FP loads
and stores through its per-page double views."""

import struct
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.sim import cpu as cpu_module
from repro.sim.cpu import Cpu
from repro.sim.memory import PAGE_SIZE, Memory
from tests.sim.test_block_interpreter import _assert_same


class TestScalarAccess:
    def test_u8(self):
        mem = Memory()
        mem.write_u8(100, 0xAB)
        assert mem.read_u8(100) == 0xAB

    def test_u32_little_endian(self):
        mem = Memory()
        mem.write_u32(0, 0x12345678)
        assert mem.read_u8(0) == 0x78
        assert mem.read_u8(3) == 0x12
        assert mem.read_u32(0) == 0x12345678

    def test_u16(self):
        mem = Memory()
        mem.write_u16(10, 0xBEEF)
        assert mem.read_u16(10) == 0xBEEF

    def test_signed_reads(self):
        mem = Memory()
        mem.write_u8(0, 0xFF)
        assert mem.read_s8(0) == -1
        mem.write_u16(2, 0x8000)
        assert mem.read_s16(2) == -0x8000

    def test_f64(self):
        mem = Memory()
        mem.write_f64(8, 3.141592653589793)
        assert mem.read_f64(8) == 3.141592653589793

    def test_f32(self):
        mem = Memory()
        mem.write_f32(4, 1.5)
        assert mem.read_f32(4) == 1.5

    def test_default_zero(self):
        mem = Memory()
        assert mem.read_u32(0xDEAD0000) == 0


class TestPageBoundaries:
    def test_u32_across_page(self):
        mem = Memory()
        address = PAGE_SIZE - 2
        mem.write_u32(address, 0xCAFEBABE)
        assert mem.read_u32(address) == 0xCAFEBABE

    def test_bytes_across_pages(self):
        mem = Memory()
        data = bytes(range(256)) * 20  # > one page
        mem.write_bytes(PAGE_SIZE - 100, data)
        assert mem.read_bytes(PAGE_SIZE - 100, len(data)) == data

    def test_f64_across_page(self):
        mem = Memory()
        address = PAGE_SIZE - 4
        mem.write_f64(address, -2.5)
        assert mem.read_f64(address) == -2.5

    def test_page_allocation_is_lazy(self):
        mem = Memory()
        assert mem.allocated_pages == 0
        mem.write_u8(0, 1)
        mem.write_u8(10 * PAGE_SIZE, 1)
        assert mem.allocated_pages == 2


class TestCString:
    def test_read(self):
        mem = Memory()
        mem.write_bytes(50, b"hello\x00world")
        assert mem.read_cstring(50) == "hello"

    def test_limit(self):
        mem = Memory()
        mem.write_bytes(0, b"x" * 100)
        assert len(mem.read_cstring(0, limit=10)) == 10


class TestProperties:
    @given(
        st.integers(min_value=0, max_value=(1 << 24)),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    def test_u32_roundtrip(self, address, value):
        mem = Memory()
        mem.write_u32(address, value)
        assert mem.read_u32(address) == value

    @given(st.floats(allow_nan=False), st.integers(min_value=0, max_value=1 << 20))
    def test_f64_roundtrip(self, value, address):
        mem = Memory()
        mem.write_f64(address, value)
        assert mem.read_f64(address) == value


#: Bit patterns a double must survive unchanged: -0.0, +inf, -inf, two
#: quiet NaNs with payloads, the smallest and largest subnormals, and
#: an ordinary value.
SPECIAL_BITS = (
    0x8000000000000000,
    0x7FF0000000000000,
    0xFFF0000000000000,
    0x7FF80000DEADBEEF,
    0xFFF8000000001234,
    0x0000000000000001,
    0x000FFFFFFFFFFFFF,
    0x400921FB54442D18,
)


def _double(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def _bits(value: float) -> int:
    return int.from_bytes(struct.pack("<d", value), "little")


class TestDoubleViews:
    def test_every_page_has_a_view_of_itself(self):
        mem = Memory()
        mem.write_u8(3 * PAGE_SIZE + 5, 1)
        mem.read_f64(7 * PAGE_SIZE - 4)  # allocates two pages
        assert mem._pages.keys() == {3, 6, 7}
        assert mem._doubles.keys() == {3 * PAGE_SIZE, 6 * PAGE_SIZE, 7 * PAGE_SIZE}
        mem.write_u32(6 * PAGE_SIZE + 16, 0x12345678)
        mem.write_u32(6 * PAGE_SIZE + 20, 0x9ABCDEF0)
        view = mem._doubles[6 * PAGE_SIZE]
        assert _bits(view[2]) == 0x9ABCDEF012345678

    @pytest.mark.skipif(sys.byteorder != "little", reason="views are native order")
    @pytest.mark.parametrize("bits", SPECIAL_BITS, ids=hex)
    def test_view_and_methods_agree_bit_for_bit(self, bits):
        mem = Memory()
        mem.write_f64(PAGE_SIZE + 8, _double(bits))
        view = mem._doubles[PAGE_SIZE]
        assert _bits(view[1]) == bits
        view[2] = view[1]
        assert _bits(mem.read_f64(PAGE_SIZE + 16)) == bits
        assert mem.read_bytes(PAGE_SIZE + 16, 8) == bits.to_bytes(8, "little")


#: One self-loop of FP loads and stores over a table of addresses:
#: aligned on an allocated page, unaligned in-page, page-crossing, and
#: first touches of each kind (the store at +0x1000 lands on a page the
#: loop has not touched yet for the first two addresses).
FP_ADDRESSES = """
.data
vals: .double 1.5, -2.25, 0.001, 7.0
addrs: .word 0x10000000, 0x10000004, 0x10000ffc, 0x10010000
       .word 0x10020004, 0x10030ffc, 0x10010008, 0x10040ff4
.text
main: la $s0, addrs
      li $s1, 8
      j loop
loop: lw $t0, 0($s0)
      l.d $f2, 0($t0)
      add.d $f4, $f4, $f2
      s.d $f4, 8($t0)
      l.d $f6, 8($t0)
      add.d $f8, $f8, $f6
      s.d $f8, 0x1000($t0)
      addiu $s0, $s0, 4
      addiu $s1, $s1, -1
      bnez $s1, loop
      li $v0, 10
      syscall
"""


def _round_trip_source() -> str:
    words = ", ".join(
        f"{bits & 0xFFFFFFFF:#x}, {bits >> 32:#x}" for bits in SPECIAL_BITS
    )
    size = 8 * len(SPECIAL_BITS)
    return f"""
.data
src: .word {words}
.align 3
dst: .space {size}
udst: .space {size + 8}
back: .space {size}
.text
main: la $s0, src
      la $s1, dst
      la $s2, udst
      la $s3, back
      li $s4, {len(SPECIAL_BITS)}
      j loop
loop: l.d $f2, 0($s0)
      s.d $f2, 0($s1)
      s.d $f2, 4($s2)
      l.d $f4, 4($s2)
      s.d $f4, 0($s3)
      addiu $s0, $s0, 8
      addiu $s1, $s1, 8
      addiu $s2, $s2, 8
      addiu $s3, $s3, 8
      addiu $s4, $s4, -1
      bnez $s4, loop
      mtc1 $zero, $f2
      mtc1 $zero, $f4
      li $v0, 10
      syscall
"""


def _loop_uses_views(cpu: Cpu, program) -> bool:
    block, _, loops = cpu._blocks[program.address_of("loop")]
    assert loops
    return "get" in block.__code__.co_names


class TestBlockFpAccess:
    """``ldc1``/``sdc1`` in generated blocks against :meth:`Cpu.step`."""

    def test_unaligned_crossing_and_first_touch_in_a_loop(self):
        program = assemble(FP_ADDRESSES)
        cpu, _ = _assert_same(program)
        assert _loop_uses_views(cpu, program) == (sys.byteorder == "little")
        assert cpu.fregs[4] != 0.0 and cpu.fregs[8] != 0.0

    def test_special_values_round_trip_bit_exactly(self):
        program = assemble(_round_trip_source())
        cpu, _ = _assert_same(program)
        assert _loop_uses_views(cpu, program) == (sys.byteorder == "little")
        expected = b"".join(bits.to_bytes(8, "little") for bits in SPECIAL_BITS)
        size = len(expected)
        mem = cpu.memory
        assert mem.read_bytes(program.address_of("dst"), size) == expected
        assert mem.read_bytes(program.address_of("udst") + 4, size) == expected
        assert mem.read_bytes(program.address_of("back"), size) == expected

    @pytest.mark.parametrize("source", ("addresses", "round-trip"))
    def test_big_endian_host_keeps_the_method_calls(self, monkeypatch, source):
        monkeypatch.setattr(cpu_module, "_LITTLE_ENDIAN_HOST", False)
        text = FP_ADDRESSES if source == "addresses" else _round_trip_source()
        program = assemble(text)
        cpu, _ = _assert_same(program)
        assert not _loop_uses_views(cpu, program)
