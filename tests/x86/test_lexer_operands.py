"""Tests for the lexer and operand value objects."""

import pytest

from repro.x86.lexer import logical_lines, parse_integer, split_operands
from repro.x86.operands import Immediate, LabelRef, Memory, RegisterOperand
from repro.x86.parser import parse_operand
from repro.x86.registers import get_register


class TestLogicalLines:
    def test_comment_stripping(self):
        lines = list(logical_lines("nop # c\n  ret  \n"))
        assert [l.text for l in lines] == ["nop", "ret"]

    def test_string_protects_hash(self):
        lines = list(logical_lines('.ascii "x#y" # real comment\n'))
        assert lines[0].text == '.ascii "x#y"'

    def test_semicolons(self):
        lines = list(logical_lines("nop;ret\n"))
        assert [l.text for l in lines] == ["nop", "ret"]

    def test_semicolon_in_string(self):
        lines = list(logical_lines('.ascii "a;b"\n'))
        assert len(lines) == 1

    def test_block_comment_spans_lines(self):
        lines = list(logical_lines("nop /* x\ny */ ret\n"))
        assert [l.text for l in lines] == ["nop", "ret"]

    def test_empty_lines_skipped(self):
        assert list(logical_lines("\n\n  \n")) == []

    def test_linenos(self):
        lines = list(logical_lines("nop\n\nret\n"))
        assert [(l.text, l.lineno) for l in lines] \
            == [("nop", 1), ("ret", 3)]

    # In a string, a backslash escapes the character after it, so in
    # "a\\" the backslash is escaped and the quote ends the string.
    def test_escaped_backslash_ends_string_before_comment(self):
        lines = list(logical_lines(r'.ascii "a\\"  # c' + "\n"))
        assert [l.text for l in lines] == [r'.ascii "a\\"']

    def test_escaped_backslash_ends_string_before_separator(self):
        lines = list(logical_lines(r'msg: .ascii "a\\" ; .byte 7' + "\n"))
        assert [l.text for l in lines] == [r'msg: .ascii "a\\"', ".byte 7"]

    def test_escaped_quote_keeps_string_open(self):
        lines = list(logical_lines(r'.ascii "a\"#;b" ; nop # c' + "\n"))
        assert [l.text for l in lines] == [r'.ascii "a\"#;b"', "nop"]

    def test_escaped_backslash_layout_matches_gas(self):
        """gas places ``next`` at ``.data+3`` (bytes 61 5c 07 01)."""
        from repro.ir import parse_unit
        from repro.sim.loader import load_unit

        source = ('.data\nmsg: .ascii "a\\\\" ; .byte 7\n'
                  "next: .byte 1\n")
        symtab = load_unit(parse_unit(source)).symtab
        assert symtab["next"] - symtab["msg"] == 3


class TestSplitOperands:
    def test_simple(self):
        assert split_operands("%rax, %rbx") == ["%rax", "%rbx"]

    def test_memory_commas_protected(self):
        assert split_operands("8(%rax,%rbx,4), %rdx") \
            == ["8(%rax,%rbx,4)", "%rdx"]

    def test_empty(self):
        assert split_operands("") == []

    def test_parse_integer(self):
        assert parse_integer("10") == 10
        assert parse_integer("0x10") == 16
        assert parse_integer("-5") == -5


class TestOperandObjects:
    def test_immediate_str(self):
        assert str(Immediate(5)) == "$5"
        assert str(Immediate(-5)) == "$-5"
        assert str(Immediate(4, symbol="tab")) == "$tab+4"
        assert str(Immediate(0, symbol="tab")) == "$tab"

    def test_immediate_ranges(self):
        assert Immediate(127).fits_signed(8)
        assert not Immediate(128).fits_signed(8)
        assert Immediate(255).fits_unsigned(8)
        assert not Immediate(-1).fits_unsigned(8)

    def test_memory_str_forms(self):
        rax = get_register("rax")
        rbx = get_register("rbx")
        assert str(Memory(base=rax)) == "(%rax)"
        assert str(Memory(disp=-8, base=rax)) == "-8(%rax)"
        assert str(Memory(disp=8, base=rax, index=rbx, scale=4)) \
            == "8(%rax,%rbx,4)"
        assert str(Memory(symbol="x", base=get_register("rip"))) \
            == "x(%rip)"

    def test_memory_validation(self):
        with pytest.raises(ValueError):
            Memory(scale=3)
        with pytest.raises(ValueError):
            Memory(index=get_register("rsp"))

    def test_register_operand_str(self):
        op = RegisterOperand(get_register("rax"))
        assert str(op) == "%rax"
        assert str(RegisterOperand(get_register("rax"),
                                   indirect=True)) == "*%rax"

    def test_label_ref(self):
        assert str(LabelRef(".L5")) == ".L5"

    def test_memory_flags(self):
        rip = get_register("rip")
        assert Memory(symbol="x", base=rip).is_rip_relative
        assert Memory(disp=4).is_absolute
        assert not Memory(base=get_register("rax")).is_absolute


class TestTokenInterning:
    """Corpus parsing must not allocate duplicate registers or mnemonics
    per line."""

    def test_register_and_memory_base_share_one_register(self):
        assert parse_operand("%rdi").reg is parse_operand("8(%rdi)").base

    def test_two_parses_share_one_register_operand(self):
        assert parse_operand("%rdi") is parse_operand("%rdi")

    def test_mnemonics_interned_across_instructions(self):
        from repro.x86.parser import parse_instruction
        one = parse_instruction("movq %rax, %rbx")
        two = parse_instruction("movq %rcx, %rdx")
        assert one.insn.mnemonic is two.insn.mnemonic
