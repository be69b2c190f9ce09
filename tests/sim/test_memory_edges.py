"""Edge-case tests for the sparse memory image.

The block-cached interpreter leans on SparseMemory for every load/store
and on ``clone()`` for program reuse across sweeps, so the page-boundary
arithmetic has to be exact: cross-page accesses, unaligned widths, and
partial overwrites all round-trip bit-exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.memory import _PAGE_SIZE, SparseMemory

PAGE = _PAGE_SIZE


class TestCrossPage:
    def test_write_read_straddles_page_boundary(self):
        mem = SparseMemory()
        mem.write(PAGE - 4, 0x1122334455667788, 8)
        assert mem.read(PAGE - 4, 8) == 0x1122334455667788
        # Both halves land on the right pages (little-endian).
        assert mem.read(PAGE - 4, 4) == 0x55667788
        assert mem.read(PAGE, 4) == 0x11223344

    def test_bytes_roundtrip_across_pages(self):
        mem = SparseMemory()
        data = bytes(range(1, 17))
        mem.write_bytes(2 * PAGE - 8, data)
        assert mem.read_bytes(2 * PAGE - 8, 16) == data
        assert mem.read_bytes(2 * PAGE - 8, 8) == data[:8]
        assert mem.read_bytes(2 * PAGE, 8) == data[8:]

    def test_unmapped_reads_are_zero(self):
        mem = SparseMemory()
        assert mem.read(123456, 8) == 0
        assert mem.read_bytes(PAGE - 2, 4) == b"\x00" * 4

    def test_write_spanning_three_pages(self):
        mem = SparseMemory()
        data = bytes((i * 7 + 3) & 0xFF for i in range(2 * PAGE + 10))
        mem.write_bytes(PAGE - 5, data)
        assert mem.read_bytes(PAGE - 5, len(data)) == data


class TestUnaligned:
    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    @pytest.mark.parametrize("offset", [-8, -7, -3, -1, 0, 1, 5])
    def test_each_width_at_page_edge(self, size, offset):
        mem = SparseMemory()
        address = PAGE + offset
        value = 0xA5C3F1E2D4B69788 & ((1 << (8 * size)) - 1)
        mem.write(address, value, size)
        assert mem.read(address, size) == value

    def test_value_is_masked_to_width(self):
        mem = SparseMemory()
        mem.write(100, 0x1FF, 1)
        assert mem.read(100, 1) == 0xFF
        assert mem.read(101, 1) == 0  # no spill into the next byte


class TestPartialOverwrite:
    def test_read_after_partial_write(self):
        mem = SparseMemory()
        mem.write(64, 0x1111111111111111, 8)
        mem.write(66, 0xABCD, 2)
        assert mem.read(64, 8) == 0x1111ABCD1111 | (0x1111 << 48)
        assert mem.read(66, 2) == 0xABCD
        assert mem.read(64, 2) == 0x1111

    def test_partial_write_across_page_edge(self):
        mem = SparseMemory()
        mem.write(PAGE - 4, 0xFFFFFFFFFFFFFFFF, 8)
        mem.write(PAGE - 1, 0x00, 1)
        assert mem.read(PAGE - 4, 8) == 0xFFFFFFFF00FFFFFF


class TestClone:
    def test_clone_is_deep(self):
        mem = SparseMemory()
        mem.write(PAGE - 2, 0xBEEF, 2)
        dup = mem.clone()
        dup.write(PAGE - 2, 0xDEAD, 2)
        dup.write(5 * PAGE, 0x42, 1)
        assert mem.read(PAGE - 2, 2) == 0xBEEF
        assert mem.read(5 * PAGE, 1) == 0
        assert dup.read(PAGE - 2, 2) == 0xDEAD

    def test_clone_hash_matches_until_divergence(self):
        mem = SparseMemory()
        mem.write_bytes(10, b"hello world")
        dup = mem.clone()
        assert dup.snapshot_hash() == mem.snapshot_hash()
        dup.write(10, ord("H"), 1)
        assert dup.snapshot_hash() != mem.snapshot_hash()


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(address=st.integers(min_value=0, max_value=4 * PAGE),
           size=st.sampled_from([1, 2, 4, 8]),
           value=st.integers(min_value=0))
    def test_write_then_read_roundtrip(self, address, size, value):
        mem = SparseMemory()
        masked = value & ((1 << (8 * size)) - 1)
        mem.write(address, value, size)
        assert mem.read(address, size) == masked

    @settings(max_examples=100, deadline=None)
    @given(address=st.integers(min_value=0, max_value=3 * PAGE),
           data=st.binary(min_size=1, max_size=64))
    def test_bytes_roundtrip(self, address, data):
        mem = SparseMemory()
        mem.write_bytes(address, data)
        assert mem.read_bytes(address, len(data)) == data

    @settings(max_examples=100, deadline=None)
    @given(writes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2 * PAGE),
                  st.sampled_from([1, 2, 4, 8]),
                  st.integers(min_value=0, max_value=2 ** 64 - 1)),
        min_size=1, max_size=16))
    def test_overlapping_writes_match_flat_model(self, writes):
        mem = SparseMemory()
        flat = bytearray(3 * PAGE)
        for address, size, value in writes:
            mem.write(address, value, size)
            flat[address:address + size] = \
                (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        for address, size, _ in writes:
            assert mem.read_bytes(address, size) == \
                bytes(flat[address:address + size])


class ByteModel:
    """Memory as a dict of bytes, one access one byte at a time."""

    def __init__(self):
        self.bytes = {}

    def read(self, address, size):
        return sum(self.bytes.get(address + i, 0) << (8 * i)
                   for i in range(size))

    def write(self, address, value, size):
        for i in range(size):
            self.bytes[address + i] = (value >> (8 * i)) & 0xFF


#: An address within 16 bytes of a page boundary, on either side.
near_boundary = st.builds(lambda page, delta: max(0, page * PAGE + delta),
                          st.integers(0, 3), st.integers(-16, 16))


class TestAgainstByteModel:
    @settings(max_examples=300, deadline=None)
    @given(accesses=st.lists(st.tuples(
        st.booleans(), near_boundary, st.integers(1, 16),
        st.integers(-(1 << 140), 1 << 140)), min_size=1, max_size=24))
    def test_reads_and_writes_near_page_edges(self, accesses):
        # In-page accesses take one slice, others the byte loop; both
        # must act as bytes would, negative and over-wide values masked.
        mem, model = SparseMemory(), ByteModel()
        for is_write, address, size, value in accesses:
            if is_write:
                mem.write(address, value, size)
                model.write(address, value, size)
            else:
                pages = mem.touched_pages()
                assert mem.read(address, size) == model.read(address, size)
                assert mem.touched_pages() == pages   # reads map nothing
