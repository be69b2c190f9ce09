"""Sparse byte-addressable memory for the architectural simulator."""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_PAGE_MASK = _PAGE_SIZE - 1


class SparseMemory:
    """Page-granular sparse memory; unmapped reads return zero bytes."""

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}

    def _page(self, address: int) -> bytearray:
        page_id = address >> _PAGE_BITS
        page = self._pages.get(page_id)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[page_id] = page
        return page

    def clone(self) -> "SparseMemory":
        """Deep copy; lets one loaded image seed many independent runs."""
        dup = SparseMemory()
        dup._pages = {page_id: bytearray(page)
                      for page_id, page in self._pages.items()}
        return dup

    def read(self, address: int, size: int) -> int:
        """Little-endian unsigned read of *size* bytes."""
        offset = address & _PAGE_MASK
        if offset + size <= _PAGE_SIZE:
            page = self._pages.get(address >> _PAGE_BITS)
            if page is None:
                return 0
            return int.from_bytes(page[offset:offset + size], "little")
        value = 0
        for i in range(size):
            addr = address + i
            page = self._pages.get(addr >> _PAGE_BITS)
            byte = page[addr & _PAGE_MASK] if page is not None else 0
            value |= byte << (8 * i)
        return value

    def write(self, address: int, value: int, size: int) -> None:
        """Little-endian write of the low *size* bytes of *value*."""
        offset = address & _PAGE_MASK
        if offset + size <= _PAGE_SIZE:
            self._page(address)[offset:offset + size] = (
                value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
            return
        for i in range(size):
            addr = address + i
            self._page(addr)[addr & _PAGE_MASK] = (value >> (8 * i)) & 0xFF

    def read_bytes(self, address: int, size: int) -> bytes:
        return bytes((self.read(address + i, 1)) for i in range(size))

    def write_bytes(self, address: int, data: bytes) -> None:
        for i, byte in enumerate(data):
            self._page(address + i)[(address + i) & _PAGE_MASK] = byte

    def touched_pages(self) -> int:
        return len(self._pages)

    def nonzero_ranges(self) -> Iterator[Tuple[int, bytes]]:
        """(address, data) runs of non-zero bytes, for state diffing."""
        for page_id in sorted(self._pages):
            page = self._pages[page_id]
            base = page_id << _PAGE_BITS
            run_start = None
            for i in range(_PAGE_SIZE + 1):
                byte = page[i] if i < _PAGE_SIZE else 0
                if byte and run_start is None:
                    run_start = i
                elif not byte and run_start is not None:
                    yield base + run_start, bytes(page[run_start:i])
                    run_start = None

    def snapshot_hash(self) -> int:
        """Order-independent digest of memory contents (zero-insensitive)."""
        digest = 0
        for address, data in self.nonzero_ranges():
            digest ^= hash((address, data))
        return digest
