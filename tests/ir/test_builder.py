"""Tests for section tracking and function discovery in the builder."""

import pytest

from repro.ir import parse_unit
from repro.ir.entries import DirectiveEntry, LabelEntry, OpaqueEntry


def sections_of(unit):
    return {entry.section.name for entry in unit.entries()}


class TestSectionTracking:
    def test_default_is_text(self):
        unit = parse_unit("nop\n")
        entry = next(unit.entries())
        assert entry.section.name == ".text"

    def test_shorthand_directives(self):
        unit = parse_unit("""
.data
x:
    .quad 1
.text
f:
    ret
.bss
y:
""")
        names = {}
        for entry in unit.entries():
            if isinstance(entry, LabelEntry):
                names[entry.name] = entry.section.name
        assert names == {"x": ".data", "f": ".text", "y": ".bss"}

    def test_section_directive_with_flags(self):
        unit = parse_unit('.section .text.hot, "ax"\nf:\n    ret\n')
        assert unit.get_section(".text.hot").is_code

    def test_data_section_is_not_code(self):
        unit = parse_unit(".section .rodata\nx:\n    .quad 1\n")
        assert not unit.get_section(".rodata").is_code

    def test_pushsection_popsection(self):
        unit = parse_unit("""
.text
f:
    nop
.pushsection .rodata
x:
    .quad 1
.popsection
    ret
""")
        labels = {e.name: e.section.name for e in unit.entries()
                  if isinstance(e, LabelEntry)}
        assert labels["x"] == ".rodata"
        ret_entry = [e for e in unit.entries() if e.is_instruction][-1]
        assert ret_entry.section.name == ".text"

    def test_previous_directive(self):
        unit = parse_unit("""
.text
f:
    nop
.section .rodata
x:
    .quad 1
.previous
    ret
""")
        ret_entry = [e for e in unit.entries() if e.is_instruction][-1]
        assert ret_entry.section.name == ".text"


class TestFunctionDiscovery:
    def test_type_directive_wins(self):
        unit = parse_unit("""
.text
helper_label:
    nop
.type real_fn, @function
real_fn:
    ret
""")
        assert [fn.name for fn in unit.functions] == ["real_fn"]

    def test_size_directive_parsed(self):
        unit = parse_unit("""
.text
.type f, @function
f:
    ret
    .size f, .-f
""")
        assert [fn.name for fn in unit.functions] == ["f"]

    def test_function_in_custom_code_section(self):
        unit = parse_unit('.section .text.unlikely, "ax"\ncold:\n    ret\n')
        assert [fn.name for fn in unit.functions] == ["cold"]

    def test_data_labels_not_functions(self):
        unit = parse_unit("""
.text
f:
    ret
.data
table:
    .quad 1
""")
        assert [fn.name for fn in unit.functions] == ["f"]

    def test_function_end_boundaries(self):
        unit = parse_unit("""
.text
.type a, @function
a:
    movl $1, %eax
    ret
.type b, @function
b:
    movl $2, %eax
    ret
""")
        a, b = unit.functions
        assert len(list(a.instructions())) == 2
        assert len(list(b.instructions())) == 2


class TestEntryHelpers:
    def test_directive_str_args(self):
        entry = DirectiveEntry("type", "f, @function")
        assert entry.str_args() == ["f", "@function"]

    def test_opaque_roundtrip(self):
        unit = parse_unit(".text\nf:\n    vfmadd231ps %ymm0, %ymm1, %ymm2\n")
        opaque = [e for e in unit.entries()
                  if isinstance(e, OpaqueEntry)]
        assert len(opaque) == 1
        assert "vfmadd231ps" in unit.to_asm()

    def test_entry_kind_predicates(self):
        unit = parse_unit(".text\nf:\n    nop\n")
        kinds = [(e.is_label, e.is_instruction, e.is_directive)
                 for e in unit.entries()]
        assert kinds == [(False, False, True),
                         (True, False, False),
                         (False, True, False)]
