"""Tests for the repeated-relaxation algorithm."""

import pytest

from repro.analysis.relax import (
    MAX_RELAX_ITERATIONS,
    RelaxError,
    common_request,
    data_bytes,
    directive_data_size,
    relax_section,
    relax_unit,
)
from repro.ir import parse_unit
from repro.ir.entries import DirectiveEntry


def layout_of(source, section=".text"):
    unit = parse_unit(source)
    return unit, relax_section(unit, unit.get_section(section))


class TestBasicLayout:
    def test_sequential_addresses(self):
        unit, layout = layout_of(".text\nf:\n    nop\n    nop\n    ret\n")
        addresses = [p.address for e, p in layout.placement.items()
                     if e.is_instruction]
        assert addresses == [0, 1, 2]
        assert layout.size == 3

    def test_label_addresses_in_symtab(self):
        unit, layout = layout_of(
            ".text\nf:\n    nop\n.L1:\n    ret\n")
        assert layout.symtab["f"] == 0
        assert layout.symtab[".L1"] == 1

    def test_start_address_offset(self):
        unit = parse_unit(".text\nf:\n    nop\n")
        layout = relax_section(unit, unit.get_section(".text"),
                               start_address=0x400000)
        assert layout.symtab["f"] == 0x400000

    def test_instruction_addresses_cached(self):
        unit, layout = layout_of(".text\nf:\n    nop\n    ret\n")
        insns = [e.insn for e in unit.entries() if e.is_instruction]
        assert insns[0].address == 0
        assert insns[1].address == 1


class TestBranchRelaxation:
    def test_backward_branch_stays_short(self):
        unit, layout = layout_of("""
.text
f:
.Ltop:
    nop
    jne .Ltop
    ret
""")
        jne = next(e.insn for e in unit.entries()
                   if e.is_instruction and e.insn.base == "j")
        assert len(jne.encoding) == 2

    def test_far_forward_branch_goes_long(self):
        body = "".join("    addl $1, %eax\n" for _ in range(50))
        unit, layout = layout_of(
            ".text\nf:\n    jmp .Lfar\n%s.Lfar:\n    ret\n" % body)
        jmp = next(e.insn for e in unit.entries()
                   if e.is_instruction and e.insn.base == "jmp")
        assert len(jmp.encoding) == 5

    def test_cascade_converges(self):
        """A branch growing pushes another out of range (paper §II)."""
        blocks = []
        for i in range(4):
            filler = "".join("    addl $1, %%eax  #%d\n" % j
                             for j in range(40))
            blocks.append("    jmp .Lb%d\n%s.Lb%d:\n" % (i, filler, i))
        unit, layout = layout_of(".text\nf:\n" + "".join(blocks) + "    ret\n")
        assert layout.converged
        assert layout.iterations <= 10   # "a few iterations" in practice

    def test_displacements_are_correct(self):
        """Every encoded branch displacement resolves to its label."""
        unit, layout = layout_of("""
.text
f:
    jmp .La
    nop
.La:
    je .Lb
""" + "".join("    addl $1, %eax\n" for _ in range(60)) + """
.Lb:
    ret
""")
        for entry, place in layout.placement.items():
            if not entry.is_instruction:
                continue
            insn = entry.insn
            label = insn.branch_target_label()
            if label is None or insn.base not in ("jmp", "j"):
                continue
            encoding = insn.encoding
            if encoding[0] in (0xEB,) or 0x70 <= encoding[0] <= 0x7F:
                rel = int.from_bytes(encoding[-1:], "little", signed=True)
            else:
                rel = int.from_bytes(encoding[-4:], "little", signed=True)
            assert place.address + place.size + rel == layout.symtab[label]


class TestAlignment:
    def test_p2align_pads(self):
        unit, layout = layout_of("""
.text
f:
    nop
    .p2align 4
.Laligned:
    ret
""")
        assert layout.symtab[".Laligned"] == 16

    def test_p2align_respects_max_skip(self):
        unit, layout = layout_of("""
.text
f:
    nop
    .p2align 4,,7
.Lmaybe:
    ret
""")
        # 15 bytes of padding needed > 7 allowed -> no alignment.
        assert layout.symtab[".Lmaybe"] == 1

    def test_max_skip_of_zero_is_no_limit(self):
        # As gas reads it: the alignment is done however far it skips.
        unit, layout = layout_of(
            ".text\nf:\n    nop\n    .p2align 4,,0\n.La:\n    ret\n")
        assert layout.symtab[".La"] == 16

    def test_align_is_byte_alignment(self):
        unit, layout = layout_of(
            ".text\nf:\n    nop\n    .align 8\n.La:\n    ret\n")
        assert layout.symtab[".La"] == 8

    def test_fill_regions_reported(self):
        unit, layout = layout_of(
            ".text\nf:\n    nop\n    .p2align 4\n.La:\n    ret\n")
        assert layout.fill_regions() == [(1, 15)]


class TestDataDirectives:
    @pytest.mark.parametrize("directive,size", [
        (".byte 1", 1), (".byte 1, 2, 3", 3),
        (".word 5", 2), (".long 5", 4), (".quad 5", 8),
        (".quad a, b", 16),
        (".zero 100", 100), (".skip 12", 12),
        ('.ascii "hi"', 2), ('.asciz "hi"', 3),
        ('.string "a\\nb"', 4),
        ('.ascii "a", "bc"', 3),
    ])
    def test_sizes(self, directive, size):
        name, _, args = directive.partition(" ")
        entry = DirectiveEntry(name[1:], args)
        assert directive_data_size(entry) == size
        assert len(data_bytes(entry, {"a": 1, "b": 2})) == size

    @pytest.mark.parametrize("directive,data", [
        (".byte 1, -1, 0x101", b"\x01\xff\x01"),
        (".value 0x1234", b"\x34\x12"),
        (".long sym", b"\x00\x10\x60\x00"),
        (".long sym+8, sym-0x10", b"\x08\x10\x60\x00\xf0\x0f\x60\x00"),
        (".long .L3-.L4", b"\x30\x00\x00\x00"),
        (".long .L4-.L3+1", b"\xd1\xff\xff\xff"),
        (".quad unknown+4", b"\x04" + bytes(7)),
        (".octa 1", b"\x01" + bytes(15)),
        (".skip 3, 0x90", b"\x90" * 3),
        (".space 2", bytes(2)),
        (".zero 4", bytes(4)),
        ('.asciz "a\\tb", "c"', b"a\tb\x00c\x00"),
        (".p2align 4", b""),
        (".globl main", b""),
    ])
    def test_bytes(self, directive, data):
        name, _, args = directive.partition(" ")
        entry = DirectiveEntry(name[1:], args)
        symtab = {"sym": 0x601000, ".L3": 0x400040, ".L4": 0x400010}
        assert data_bytes(entry, symtab) == data
        assert directive_data_size(entry) == len(data)

    @pytest.mark.parametrize("directive,expected", [
        (".comm buf,400,32", ("buf", 400, 32)),
        (".lcomm pad, 4", ("pad", 4, 4)),
        (".lcomm odd,6", ("odd", 6, 4)),
        (".comm big,100", ("big", 100, 8)),
        (".long 4", None),
    ])
    def test_common_request(self, directive, expected):
        name, _, args = directive.partition(" ")
        assert common_request(DirectiveEntry(name[1:], args)) == expected

    def test_data_section_layout(self):
        unit = parse_unit("""
.section .data
a:
    .quad 1
b:
    .long 2
c:
""")
        layout = relax_section(unit, unit.get_section(".data"))
        assert layout.symtab == {"a": 0, "b": 8, "c": 12}


class TestRelaxUnit:
    def test_multiple_sections(self):
        unit = parse_unit("""
.text
f:
    movq counter(%rip), %rax
    ret
.section .data
counter:
    .quad 0
""")
        layouts = relax_unit(unit)
        assert set(layouts) == {".text", ".data"}

    def test_code_image_matches_size(self):
        unit = parse_unit(".text\nf:\n    nop\n    .p2align 3\n    ret\n")
        layout = relax_section(unit, unit.get_section(".text"))
        assert len(layout.code_image()) == layout.size

    def test_opaque_entry_rejected(self):
        unit = parse_unit(".text\nf:\n    vaddps %ymm0, %ymm1, %ymm2\n")
        with pytest.raises(RelaxError):
            relax_section(unit, unit.get_section(".text"))

    def test_iteration_limit_constant(self):
        assert MAX_RELAX_ITERATIONS == 100   # paper: built-in limit of 100
