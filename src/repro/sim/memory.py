"""Byte-addressable paged memory for the simulator.

Little-endian, lazily allocated 4 KiB pages, with typed accessors for
the widths the ISA needs (8/16/32-bit integers and 64-bit doubles).
:meth:`Memory.map_segment` maps a data segment as one buffer whose
pages are ``memoryview`` slices of it, so the accessors see the bytes
that :mod:`repro.sim.cpu` blocks index through views of the buffer.
Mapped pages are never replaced or resized, so the views stay valid.
"""

from __future__ import annotations

import math
import struct

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

_U32 = struct.Struct("<I")
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")


class MmioRegion:
    """A memory-mapped peripheral window.

    Handlers receive the *offset* from the region base.  Only 32-bit
    accesses are routed (device registers are word-wide, like the
    Section 7.1 table-programming peripheral this exists for).
    """

    def __init__(self, base: int, size: int, read_u32=None, write_u32=None):
        if size <= 0:
            raise ValueError("MMIO region needs a positive size")
        self.base = base
        self.end = base + size
        self._read = read_u32
        self._write = write_u32

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def read(self, address: int) -> int:
        if self._read is None:
            return 0
        return self._read(address - self.base) & 0xFFFFFFFF

    def write(self, address: int, value: int) -> None:
        if self._write is not None:
            self._write(address - self.base, value & 0xFFFFFFFF)


class Memory:
    """Sparse paged memory with optional MMIO windows."""

    def __init__(self) -> None:
        self._pages: dict[int, bytearray | memoryview] = {}
        self._mmio: list[MmioRegion] = []
        #: ``(base, end)`` of the data segment :meth:`map_segment` mapped
        self._segment: tuple[int, int] | None = None

    def add_mmio(self, region: MmioRegion) -> None:
        """Map a peripheral window; overlaps, also with the segment, are rejected."""
        taken = [(other.base, other.end) for other in self._mmio]
        for base, end in taken + ([self._segment] if self._segment else []):
            if region.base < end and base < region.end:
                raise ValueError(f"MMIO region {region.base:#x} overlaps {base:#x}")
        self._mmio.append(region)

    def _mmio_at(self, address: int) -> MmioRegion | None:
        for region in self._mmio:
            if region.contains(address):
                return region
        return None

    def map_segment(self, address: int, length: int) -> tuple[int, memoryview] | None:
        """Back ``length`` bytes at ``address`` with one buffer that starts
        at their page and whose size is the least power of two, at least
        a page, that covers them; the pages there become slices of it and
        keep their bytes.  Returns ``(base, buffer view)``, or None for no
        bytes, a second segment, or a buffer over MMIO or past 2**32."""
        base, size = address & ~PAGE_MASK, PAGE_SIZE
        while size < address + length - base:
            size <<= 1
        end = base + size
        if not length or self._segment or end > 1 << 32 or any(
            base < region.end and region.base < end for region in self._mmio
        ):
            return None
        view = memoryview(bytearray(size))
        for offset in range(0, size, PAGE_SIZE):
            number = (base + offset) >> PAGE_SHIFT
            if number in self._pages:
                view[offset : offset + PAGE_SIZE] = self._pages[number]
            self._pages[number] = view[offset : offset + PAGE_SIZE]
        self._segment = (base, end)
        return base, view

    def _page(self, address: int) -> bytearray | memoryview:
        page = self._pages.get(address >> PAGE_SHIFT)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[address >> PAGE_SHIFT] = page
        return page

    # ------------------------------------------------------------------
    # Raw byte access
    # ------------------------------------------------------------------

    def read_bytes(self, address: int, length: int) -> bytes:
        out = bytearray()
        while length:
            page = self._page(address)
            offset = address & PAGE_MASK
            chunk = min(length, PAGE_SIZE - offset)
            out += page[offset : offset + chunk]
            address += chunk
            length -= chunk
        return bytes(out)

    def write_bytes(self, address: int, data: bytes) -> None:
        view = memoryview(data)
        while view:
            page = self._page(address)
            offset = address & PAGE_MASK
            chunk = min(len(view), PAGE_SIZE - offset)
            page[offset : offset + chunk] = view[:chunk]
            address += chunk
            view = view[chunk:]

    # ------------------------------------------------------------------
    # Typed access (little-endian).  The 32- and 64-bit accessors take
    # one page through struct when the value does not straddle a page
    # boundary, and the byte loop otherwise.
    # ------------------------------------------------------------------

    def read_u8(self, address: int) -> int:
        return self._page(address)[address & PAGE_MASK]

    def write_u8(self, address: int, value: int) -> None:
        self._page(address)[address & PAGE_MASK] = value & 0xFF

    def read_u16(self, address: int) -> int:
        return int.from_bytes(self.read_bytes(address, 2), "little")

    def write_u16(self, address: int, value: int) -> None:
        self.write_bytes(address, (value & 0xFFFF).to_bytes(2, "little"))

    def read_u32(self, address: int) -> int:
        if self._mmio:
            region = self._mmio_at(address)
            if region is not None:
                return region.read(address)
        page_off = address & PAGE_MASK
        if page_off <= PAGE_SIZE - 4:
            return _U32.unpack_from(self._page(address), page_off)[0]
        return int.from_bytes(self.read_bytes(address, 4), "little")

    def write_u32(self, address: int, value: int) -> None:
        if self._mmio:
            region = self._mmio_at(address)
            if region is not None:
                region.write(address, value)
                return
        page_off = address & PAGE_MASK
        if page_off <= PAGE_SIZE - 4:
            _U32.pack_into(self._page(address), page_off, value & 0xFFFFFFFF)
        else:
            self.write_bytes(address, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def read_s8(self, address: int) -> int:
        value = self.read_u8(address)
        return value - 0x100 if value & 0x80 else value

    def read_s16(self, address: int) -> int:
        value = self.read_u16(address)
        return value - 0x10000 if value & 0x8000 else value

    def read_f64(self, address: int) -> float:
        page_off = address & PAGE_MASK
        if page_off <= PAGE_SIZE - 8:
            return _F64.unpack_from(self._page(address), page_off)[0]
        return _F64.unpack(self.read_bytes(address, 8))[0]

    def write_f64(self, address: int, value: float) -> None:
        page_off = address & PAGE_MASK
        if page_off <= PAGE_SIZE - 8:
            _F64.pack_into(self._page(address), page_off, value)
        else:
            self.write_bytes(address, _F64.pack(value))

    def read_f32(self, address: int) -> float:
        page_off = address & PAGE_MASK
        if page_off <= PAGE_SIZE - 4:
            return _F32.unpack_from(self._page(address), page_off)[0]
        return _F32.unpack(self.read_bytes(address, 4))[0]

    def write_f32(self, address: int, value: float) -> None:
        page_off = address & PAGE_MASK
        try:
            if page_off <= PAGE_SIZE - 4:
                _F32.pack_into(self._page(address), page_off, value)
            else:
                self.write_bytes(address, _F32.pack(value))
        except OverflowError:
            # Past the single range IEEE 754 rounds to a signed
            # infinity, where struct refuses.
            self.write_f32(address, math.copysign(math.inf, value))

    def read_cstring(self, address: int, limit: int = 4096) -> str:
        out = bytearray()
        for i in range(limit):
            byte = self.read_u8(address + i)
            if byte == 0:
                break
            out.append(byte)
        return out.decode("latin-1")

    @property
    def allocated_pages(self) -> int:
        return len(self._pages)
