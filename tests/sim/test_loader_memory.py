"""Tests for SparseMemory, MachineState, and the program loader."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.relax import RelaxError
from repro.ir import parse_unit
from repro.sim.loader import DATA_BASE, TEXT_BASE, load_unit
from repro.sim.memory import SparseMemory
from repro.sim.state import MachineState
from repro.x86.registers import get_register


class TestSparseMemory:
    def test_read_unmapped_is_zero(self):
        memory = SparseMemory()
        assert memory.read(0x123456, 8) == 0

    def test_write_read_roundtrip(self):
        memory = SparseMemory()
        memory.write(0x1000, 0x1122334455667788, 8)
        assert memory.read(0x1000, 8) == 0x1122334455667788
        assert memory.read(0x1000, 4) == 0x55667788
        assert memory.read(0x1004, 4) == 0x11223344

    def test_little_endian(self):
        memory = SparseMemory()
        memory.write(0, 0x0102, 2)
        assert memory.read(0, 1) == 0x02
        assert memory.read(1, 1) == 0x01

    def test_cross_page_access(self):
        memory = SparseMemory()
        memory.write(0xFFF, 0xAABB, 2)       # straddles a 4K page
        assert memory.read(0xFFF, 2) == 0xAABB
        assert memory.touched_pages() == 2

    def test_bytes_interface(self):
        memory = SparseMemory()
        memory.write_bytes(0x40, b"hello")
        assert memory.read_bytes(0x40, 5) == b"hello"

    def test_nonzero_ranges(self):
        memory = SparseMemory()
        memory.write_bytes(0x10, b"ab")
        memory.write_bytes(0x20, b"c")
        ranges = list(memory.nonzero_ranges())
        assert (0x10, b"ab") in ranges
        assert (0x20, b"c") in ranges

    @given(st.integers(0, 2 ** 30), st.integers(0, 2 ** 64 - 1),
           st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_property(self, address, value, size):
        memory = SparseMemory()
        memory.write(address, value, size)
        assert memory.read(address, size) == value & ((1 << (8 * size)) - 1)


class TestMachineState:
    def test_width_views(self):
        state = MachineState()
        state.write_reg(get_register("rax"), 0x1122334455667788)
        assert state.read_reg(get_register("eax")) == 0x55667788
        assert state.read_reg(get_register("ax")) == 0x7788
        assert state.read_reg(get_register("al")) == 0x88
        assert state.read_reg(get_register("ah")) == 0x77

    def test_32bit_write_zero_extends(self):
        state = MachineState()
        state.write_reg(get_register("rax"), -1 & (2 ** 64 - 1))
        state.write_reg(get_register("eax"), 5)
        assert state.gp["rax"] == 5

    def test_16_and_8bit_writes_merge(self):
        state = MachineState()
        state.write_reg(get_register("rax"), 0xFFFFFFFFFFFFFFFF)
        state.write_reg(get_register("ax"), 0)
        assert state.gp["rax"] == 0xFFFFFFFFFFFF0000
        state.write_reg(get_register("ah"), 0x12)
        assert state.gp["rax"] == 0xFFFFFFFFFFFF1200

    def test_xmm(self):
        state = MachineState()
        state.write_reg(get_register("xmm3"), 1 << 100)
        assert state.read_reg(get_register("xmm3")) == 1 << 100

    def test_snapshot_contains_everything(self):
        snapshot = MachineState().snapshot()
        assert "rax" in snapshot and "xmm15" in snapshot \
            and "rip" in snapshot

    def test_diff(self):
        a, b = MachineState(), MachineState()
        a.gp["rbx"] = 7
        assert a.diff(b) == {"rbx": (7, 0)}
        assert a.diff(b, ignore={"rbx"}) == {}


class TestLoader:
    SOURCE = """
.text
.globl main
main:
    movq counter(%rip), %rax
    ret
.section .data
counter:
    .quad 42
message:
    .asciz "hi"
.section .rodata
.align 8
table:
    .quad main
    .quad 0x1234
"""

    def test_section_bases(self):
        program = load_unit(parse_unit(self.SOURCE))
        assert program.symtab["main"] >= TEXT_BASE
        assert program.symtab["counter"] >= DATA_BASE

    def test_data_materialized(self):
        program = load_unit(parse_unit(self.SOURCE))
        assert program.memory.read(program.symtab["counter"], 8) == 42
        assert program.memory.read_bytes(program.symtab["message"], 3) \
            == b"hi\x00"

    def test_symbolic_quad_resolves_to_code(self):
        program = load_unit(parse_unit(self.SOURCE))
        table = program.symtab["table"]
        assert program.memory.read(table, 8) == program.symtab["main"]
        assert program.memory.read(table + 8, 8) == 0x1234

    def test_code_image_in_memory(self):
        program = load_unit(parse_unit(self.SOURCE))
        main = program.symtab["main"]
        # movq counter(%rip), %rax = 48 8b 05 <rel32>.
        assert program.memory.read_bytes(main, 3) == b"\x48\x8b\x05"

    def test_code_index(self):
        program = load_unit(parse_unit(self.SOURCE))
        entry = program.code_index[program.symtab["main"]]
        assert entry.insn.base == "mov"

    def test_entry_point(self):
        program = load_unit(parse_unit(self.SOURCE))
        assert program.entry_point == program.symtab["main"]

    def test_next_instruction_address(self):
        program = load_unit(parse_unit(self.SOURCE))
        main = program.symtab["main"]
        assert program.next_instruction_address(main) == main + 7


class TestLoaderLayout:
    """The loader places every section with ``relax_section`` and fills it
    with ``data_bytes``."""

    def test_octa_is_sixteen_bytes(self):
        program = load_unit(parse_unit(
            ".data\na:\n    .octa 0\nb:\n    .long 42\n"))
        assert program.symtab["b"] == program.symtab["a"] + 16
        assert program.memory.read(program.symtab["b"], 4) == 42

    def test_data_in_text_is_filled(self):
        program = load_unit(parse_unit(
            ".text\nmain:\n    ret\n.Lk:\n    .long 42\n"
            ".Ltab:\n    .quad main\n    .long .Ltab-.Lk\n"))
        symtab, memory = program.symtab, program.memory
        assert memory.read(symtab[".Lk"], 4) == 42
        assert memory.read(symtab[".Ltab"], 8) == symtab["main"]
        assert memory.read(symtab[".Ltab"] + 8, 4) == 4

    def test_common_symbols_get_storage_past_the_sections(self):
        program = load_unit(parse_unit(
            ".text\nmain:\n    ret\n    .local buf\n    .comm buf,400,32\n"
            "    .lcomm pad,4\n.bss\nb0:\n    .zero 8\n"))
        buf, pad = program.symtab["buf"], program.symtab["pad"]
        assert buf % 32 == 0 and pad == buf + 400
        assert buf >= program.symtab["b0"] + 0x10000
        assert program.memory.touched_pages() == 1   # the code's page

    def test_zero_fills_allocate_no_page(self):
        program = load_unit(parse_unit(
            ".bss\nbuf:\n    .zero 65536\n.data\n    .skip 100\n"
            "    .long 0\n    .p2align 4\n"))
        assert program.memory.touched_pages() == 0

    def test_instruction_in_data_is_encoded_and_placed(self):
        program = load_unit(parse_unit(
            ".data\n.Lcode:\n    ret\n.Lafter:\n    .byte 7\n"))
        code = program.symtab[".Lcode"]
        assert program.symtab[".Lafter"] == code + 1
        assert program.memory.read(code, 2) == 0x07C3
        assert code not in program.code_index

    def test_opaque_statement_in_data_is_an_error(self):
        with pytest.raises(RelaxError):
            load_unit(parse_unit(
                ".data\n    vfmadd231ps %ymm0, %ymm1, %ymm2\n"))
