"""Tests for the paged memory and its flat data segment, and for the
block compiler's loads and stores through the segment's views."""

import struct
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.assembler import DATA_BASE, assemble
from repro.sim import cpu as cpu_module
from repro.sim.cpu import Cpu
from repro.sim.memory import PAGE_SIZE, Memory, MmioRegion
from repro.workloads.common import read_doubles
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
        mem.write_u32(5 * PAGE_SIZE + 8, 0xAB)  # copied into the buffer
        mem.write_u8(9 * PAGE_SIZE, 1)  # outside it
        base, buffer = mem.map_segment(4 * PAGE_SIZE + 16, 2 * PAGE_SIZE)
        assert (base, len(buffer)) == (4 * PAGE_SIZE, 4 * PAGE_SIZE)
        assert mem._pages.keys() == {4, 5, 6, 7, 9}
        for number in range(4, 8):
            page = mem._pages[number]
            assert isinstance(page, memoryview) and page.obj is buffer.obj
        assert buffer[PAGE_SIZE + 8] == 0xAB
        mem.write_u32(6 * PAGE_SIZE + 16, 0x12345678)
        mem.write_u32(6 * PAGE_SIZE + 20, 0x9ABCDEF0)
        view = memoryview(buffer).cast("d")
        assert _bits(view[2 * PAGE_SIZE // 8 + 2]) == 0x9ABCDEF012345678
        mem.read_f64(8 * PAGE_SIZE - 4)  # crosses out of the buffer
        assert 8 in mem._pages and isinstance(mem._pages[8], bytearray)

    @pytest.mark.skipif(sys.byteorder != "little", reason="views are native order")
    @pytest.mark.parametrize("bits", SPECIAL_BITS, ids=hex)
    def test_view_and_methods_agree_bit_for_bit(self, bits):
        mem = Memory()
        _, buffer = mem.map_segment(PAGE_SIZE, PAGE_SIZE)
        mem.write_f64(PAGE_SIZE + 8, _double(bits))
        view = memoryview(buffer).cast("d")
        assert _bits(view[1]) == bits
        view[2] = view[1]
        assert _bits(mem.read_f64(PAGE_SIZE + 16)) == bits
        assert mem.read_bytes(PAGE_SIZE + 16, 8) == bits.to_bytes(8, "little")


class TestSegment:
    @pytest.mark.parametrize(
        "address, length, size",
        (
            (DATA_BASE, 1, PAGE_SIZE),
            (DATA_BASE, PAGE_SIZE, PAGE_SIZE),
            (DATA_BASE + 16, PAGE_SIZE, 2 * PAGE_SIZE),
            (DATA_BASE, 3 * PAGE_SIZE, 4 * PAGE_SIZE),
            (DATA_BASE, 16_400, 32 * 1024),
        ),
    )
    def test_size_is_the_next_power_of_two_from_the_page(self, address, length, size):
        base, buffer = Memory().map_segment(address, length)
        assert base == DATA_BASE and len(buffer) == size

    def test_no_empty_second_or_too_high_segment(self):
        mem = Memory()
        assert mem.map_segment(DATA_BASE, 0) is None
        assert mem.map_segment(0xFFFFF000, 2 * PAGE_SIZE) is None
        assert mem.map_segment(DATA_BASE, 100) is not None
        assert mem.map_segment(DATA_BASE, 100) is None
        assert not mem._pages.keys() - {DATA_BASE >> 12}
        assert Cpu(assemble(".text\nmain: nop\n")).segment is None

    def test_no_segment_over_an_mmio_window(self):
        mem = Memory()
        mem.add_mmio(MmioRegion(DATA_BASE + 0x800, 0x10))
        assert mem.map_segment(DATA_BASE, 100) is None

    def test_add_mmio_refuses_a_window_over_the_segment(self):
        mem = Memory()
        mem.map_segment(DATA_BASE, 100)
        with pytest.raises(ValueError, match="overlaps 0x10000000"):
            mem.add_mmio(MmioRegion(DATA_BASE + PAGE_SIZE - 4, 0x10))
        with pytest.raises(ValueError, match="overlaps 0x10000000"):
            mem.add_mmio(MmioRegion(DATA_BASE - 4, 0x10))
        mem.add_mmio(MmioRegion(DATA_BASE + PAGE_SIZE, 0x10))
        mem.add_mmio(MmioRegion(DATA_BASE - 0x10, 0x10))


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
    """The self-loop at ``loop`` indexes the segment's double view."""
    block, _, loops = cpu._blocks[program.address_of("loop")]
    assert loops
    return "M" in block.__code__.co_varnames


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


#: The segment of :data:`EDGES` is one page at ``DATA_BASE``.
SEGMENT_END = DATA_BASE + PAGE_SIZE

#: Base-register values for :data:`EDGES`.  With its offsets they put
#: each access at the segment's last aligned slot, the first address
#: past it, one slot below it, an unaligned address inside it, and at
#: sums that wrap past 2**32 or below 0.
EDGE_BASES = (
    SEGMENT_END - 16, SEGMENT_END - 12, SEGMENT_END - 8, SEGMENT_END - 4,
    SEGMENT_END, SEGMENT_END + 4, SEGMENT_END + 8, DATA_BASE - 16,
    DATA_BASE - 8, DATA_BASE, DATA_BASE + 2, DATA_BASE + 0x204,
    DATA_BASE + 0x100, 0xFFFFFFF8, 0xFFFFFFFC, 0, 4,
)

#: ``(mnemonic, offset)`` of each load and store in :data:`EDGES`' loop
EDGE_ACCESSES = (("l.d", 8), ("s.d", -8), ("lw", 4), ("sw", -4))

EDGES = f"""
.data
pad: .space 64
bases: .word {", ".join(hex(value) for value in EDGE_BASES)}
.text
main: la $s0, bases
      li $s1, {len(EDGE_BASES)}
      j loop
loop: lw $t0, 0($s0)
      l.d $f2, 8($t0)
      s.d $f2, -8($t0)
      lw $t1, 4($t0)
      sw $t1, -4($t0)
      addiu $s0, $s0, 4
      addiu $s1, $s1, -1
      bnez $s1, loop
      mtc1 $zero, $f2
      li $v0, 10
      syscall
"""


class _Recording(Memory):
    """A memory that records the addresses its word and double methods
    are called with."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple[str, int]] = []

    def read_u32(self, address):
        self.calls.append(("lw", address))
        return super().read_u32(address)

    def write_u32(self, address, value):
        self.calls.append(("sw", address))
        super().write_u32(address, value)

    def read_f64(self, address):
        self.calls.append(("l.d", address))
        return super().read_f64(address)

    def write_f64(self, address, value):
        self.calls.append(("s.d", address))
        super().write_f64(address, value)


def _in_view(address: int, width: int) -> bool:
    """An unwrapped ``R + imm`` the view serves: aligned, in the segment."""
    return DATA_BASE <= address < SEGMENT_END and not address % width


@pytest.mark.skipif(sys.byteorder != "little", reason="views are native order")
class TestSegmentEdges:
    """``lw``/``sw``/``ldc1``/``sdc1`` at the edges of the segment."""

    def test_block_run_matches_step(self):
        program = assemble(EDGES)
        cpu, _ = _assert_same(program)
        assert cpu.segment[0] == DATA_BASE and cpu.segment[1].nbytes == PAGE_SIZE
        assert _loop_uses_views(cpu, program)
        assert "W" in cpu._blocks[program.address_of("loop")][0].__code__.co_varnames

    def test_only_addresses_off_the_view_call_the_methods(self):
        program = assemble(EDGES)
        cpu = Cpu(program, _Recording())
        cpu.memory.calls.clear()
        cpu.run()
        expected = [
            (name, (base + offset) & 0xFFFFFFFF)
            for base in EDGE_BASES
            for name, offset in EDGE_ACCESSES
            if not _in_view(base + offset, 8 if name[-1] == "d" else 4)
        ]
        assert cpu.memory.calls == expected
        wraps = [
            (name, (base + offset) & 0xFFFFFFFF)
            for base in EDGE_BASES
            for name, offset in EDGE_ACCESSES
            if not 0 <= base + offset < 1 << 32
        ]
        assert len(wraps) == 6 and set(wraps) <= set(expected)

    def test_a_passed_in_memory_keeps_its_bytes(self):
        source = """
.data
word: .word 7
.text
main: la $t0, word
      lw $t1, 0x800($t0)
      l.d $f2, 0x808($t0)
      sw $t1, 0x810($t0)
      s.d $f2, 0x818($t0)
      li $v0, 10
      syscall
"""
        program = assemble(source)
        results = []
        for run in (Cpu.run, _step_to_exit):
            memory = Memory()
            memory.write_u32(DATA_BASE, 0xFFFFFFFF)  # under the image
            memory.write_u32(DATA_BASE + 0x800, 0x12345678)
            memory.write_f64(DATA_BASE + 0x808, 2.5)
            cpu = Cpu(program, memory)
            assert cpu.segment is not None
            run(cpu)
            assert memory.read_u32(DATA_BASE) == 7
            results.append((cpu.regs[9], cpu.fregs[2], memory.read_bytes(DATA_BASE, 0x820)))
        assert results[0] == results[1]
        assert results[0][:2] == (0x12345678, 2.5)
        assert results[0][2][0x810:] == results[0][2][0x800:0x810]

    def test_mmio_window_in_the_data_range_keeps_the_methods(self):
        stores = []
        memory = Memory()
        window = MmioRegion(DATA_BASE + 0xF0, 0x10, write_u32=lambda o, v: stores.append((o, v)))
        memory.add_mmio(window)
        program = assemble(EDGES)
        cpu = Cpu(program, memory)
        assert cpu.segment is None
        cpu.run()
        assert not _loop_uses_views(cpu, program)
        assert stores == [(0xC, 0)]  # sw -4 from DATA_BASE + 0x100 hits the window


def _step_to_exit(cpu: Cpu) -> None:
    while cpu.running:
        cpu.step()


class TestReadDoubles:
    SOURCE = """
.data
a: .double 1.5, -2.0, 3.25
w: .word 1
b: .double 4.0
.text
main: li $v0, 10
      syscall
"""

    @pytest.mark.parametrize("label, count", (("a", 3), ("a", 1), ("b", 1), ("w", 1), ("a", 600)))
    def test_matches_the_method_reads(self, label, count):
        cpu = Cpu(assemble(self.SOURCE))
        cpu.run()
        address = cpu.program.address_of(label)
        expected = [cpu.memory.read_f64(address + 8 * i) for i in range(count)]
        assert read_doubles(cpu, label, count) == expected
