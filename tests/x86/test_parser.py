"""Tests for the AT&T assembly parser."""

import pytest

from repro.ir import parse_unit
from repro.ir.entries import InstructionEntry
from repro.x86.operands import Immediate, LabelRef, Memory, RegisterOperand
from repro.x86.parser import (
    ParseError,
    ParsedDirective,
    ParsedInstruction,
    ParsedLabel,
    ParsedOpaque,
    parse_asm_text,
    parse_instruction,
    parse_operand,
)
from tests.x86 import reference_parser


class TestOperands:
    def test_register(self):
        op = parse_operand("%rax")
        assert isinstance(op, RegisterOperand)
        assert op.reg.name == "rax"

    def test_immediate(self):
        assert parse_operand("$42") == Immediate(42)
        assert parse_operand("$-7") == Immediate(-7)
        assert parse_operand("$0x10") == Immediate(16)

    def test_symbolic_immediate(self):
        op = parse_operand("$.LC0")
        assert isinstance(op, Immediate)
        assert op.symbol == ".LC0"

    def test_symbolic_immediate_with_offset(self):
        op = parse_operand("$table+8")
        assert op.symbol == "table"
        assert op.value == 8

    def test_memory_base_only(self):
        op = parse_operand("(%rax)")
        assert isinstance(op, Memory)
        assert op.base.name == "rax"
        assert op.index is None
        assert op.disp == 0

    def test_memory_full_form(self):
        op = parse_operand("8(%rax,%rbx,4)")
        assert op.disp == 8
        assert op.base.name == "rax"
        assert op.index.name == "rbx"
        assert op.scale == 4

    def test_memory_negative_disp(self):
        op = parse_operand("-0x4(%rbp)")
        assert op.disp == -4

    def test_memory_index_only(self):
        op = parse_operand("(,%rbx,8)")
        assert op.base is None
        assert op.index.name == "rbx"
        assert op.scale == 8

    def test_memory_rip_relative(self):
        op = parse_operand("counter(%rip)")
        assert op.symbol == "counter"
        assert op.is_rip_relative

    def test_memory_symbol_plus_offset(self):
        op = parse_operand("table+16(%rip)")
        assert op.symbol == "table"
        assert op.disp == 16

    def test_bare_symbol_is_memory_for_data_ops(self):
        op = parse_operand("counter", is_branch=False)
        assert isinstance(op, Memory)
        assert op.symbol == "counter"

    def test_bare_symbol_is_label_for_branches(self):
        op = parse_operand(".L5", is_branch=True)
        assert op == LabelRef(".L5")

    def test_indirect_register(self):
        op = parse_operand("*%rax")
        assert isinstance(op, RegisterOperand)
        assert op.indirect

    def test_indirect_memory(self):
        op = parse_operand("*(%rax,%rbx,8)")
        assert isinstance(op, Memory)
        assert op.indirect

    def test_indirect_symbol(self):
        op = parse_operand("*table(,%rax,8)", is_branch=True)
        assert isinstance(op, Memory)
        assert op.symbol == "table"

    def test_invalid_scale_rejected(self):
        with pytest.raises(ParseError):
            parse_operand("(%rax,%rbx,3)")

    def test_rsp_as_index_rejected(self):
        with pytest.raises(ParseError):
            parse_operand("(%rax,%rsp,2)")

    def test_unknown_register_rejected(self):
        with pytest.raises(ParseError):
            parse_operand("%qax")

    @pytest.mark.parametrize("text", ["$017", "$08"])
    def test_leading_zero_literal_is_a_parse_error(self, text):
        """No octal syntax: a literal ``int(text, 0)`` rejects is a
        ``ParseError`` with its line number."""
        with pytest.raises(ParseError, match="^line 3: "):
            parse_operand(text, lineno=3)
        with pytest.raises(ParseError, match="^line 2: "):
            parse_unit(".text\n    movl %s, %%eax\n" % text)


#: Runs of signs, each beside the plain operand with the value gas 2.40
#: assembles for it (``as --64``; ``movl $-+8, %eax`` is ``b8 f8 ff ff
#: ff``): a run is negative when it holds an odd number of ``-``s.
SIGN_RUNS = [
    ("$-+8", "$-8"),
    ("$-+-8", "$8"),
    ("$8-+2", "$6"),
    ("-+8(%rdi)", "-8(%rdi)"),
    ("$+-8", "$-8"),
    ("$--8", "$8"),
]


class TestSignRuns:
    @pytest.mark.parametrize("text,plain", SIGN_RUNS,
                             ids=[text for text, _ in SIGN_RUNS])
    def test_sign_is_the_parity_of_the_minuses(self, text, plain):
        assert parse_operand(text) == parse_operand(plain)

    def test_negated_symbol_through_a_plus_is_rejected(self):
        with pytest.raises(ParseError):
            parse_operand("$-+buf")


#: Operands whose expression has signs but no term, or no expression at
#: all where one is needed; gas 2.40 (``as --64``) rejects each: "missing
#: or invalid immediate expression" for the immediates, "missing or
#: invalid displacement expression" for the memory operands and ``jmp
#: *-``, "operand size mismatch" for ``jmp *``.
TERMLESS = [("$", False), ("$-", False), ("$+", False), ("$--", False),
            ("$-+", False), ("-(%rax)", False), ("+(%rax)", False),
            ("-", False), ("*-", True), ("*", True)]

#: Operands gas assembles as written: an empty displacement before
#: ``(``, and signs after a term ("missing operand; zero assumed", so
#: ``$8+`` is 8), each beside its plain form.
TERM_THEN_SIGNS = [("(%rsi)", "0(%rsi)"), ("*(%rax)", "*0(%rax)"),
                   ("$8+", "$8"), ("$8-", "$8"), ("8-(%rax)", "8(%rax)")]


class TestTermlessExpressions:
    @pytest.mark.parametrize("text,is_branch", TERMLESS,
                             ids=[text for text, _ in TERMLESS])
    def test_signs_without_a_term_are_rejected(self, text, is_branch):
        with pytest.raises(ParseError):
            parse_operand(text, is_branch=is_branch)
        with pytest.raises(ParseError):
            reference_parser.parse_operand(text, is_branch=is_branch)

    def test_rejected_in_a_unit_with_its_line(self):
        with pytest.raises(ParseError, match="^line 2: "):
            parse_unit(".text\n    movl $-, %eax\n")

    @pytest.mark.parametrize("text,plain", TERM_THEN_SIGNS,
                             ids=[text for text, _ in TERM_THEN_SIGNS])
    def test_a_term_then_signs_is_accepted(self, text, plain):
        is_branch = text.startswith("*")
        assert parse_operand(text, is_branch=is_branch) \
            == parse_operand(plain, is_branch=is_branch)
        assert reference_parser.parse_operand(text, is_branch=is_branch) \
            == parse_operand(plain, is_branch=is_branch)


#: Symbol-minus-offset operands, which gas accepts; the IR prints
#: ``-8+buf(%rip)`` back as ``buf-8(%rip)``.
SYMBOL_OFFSETS = ["buf-8(%rip)", "-8+buf(%rip)", "buf-1(,%rdi,1)",
                  "buf-8", "$buf-8", "buf+8(%rip)"]


class TestSymbolOffsets:
    def test_minus_offset_equals_offset_first_form(self):
        assert parse_operand("buf-8(%rip)") == parse_operand("-8+buf(%rip)")
        assert parse_operand("buf-1(,%rdi,1)") \
            == parse_operand("-1+buf(,%rdi,1)")
        assert parse_operand("buf-8") == Memory(disp=-8, symbol="buf")
        assert parse_operand("$buf-8") == Immediate(-8, symbol="buf")

    @pytest.mark.parametrize("text", SYMBOL_OFFSETS)
    def test_emitted_text_parses_back_to_the_same_operands(self, text):
        def operands(unit):
            return [entry.insn.operands for entry in unit.entries()
                    if isinstance(entry, InstructionEntry)]

        first = parse_unit(".text\nf:\n    movl %s, %%eax\n    ret\n"
                           % text)
        assert operands(parse_unit(first.to_asm())) == operands(first)


class TestInstructions:
    def test_two_operand(self):
        parsed = parse_instruction("movl $5, %eax")
        assert isinstance(parsed, ParsedInstruction)
        insn = parsed.insn
        assert insn.base == "mov"
        assert insn.operands == [Immediate(5),
                                 parse_operand("%eax")]

    def test_no_operand(self):
        parsed = parse_instruction("ret")
        assert parsed.insn.base == "ret"
        assert parsed.insn.operands == []

    def test_prefixes(self):
        parsed = parse_instruction("lock addl $1, (%rax)")
        assert parsed.insn.prefixes == ["lock"]
        assert parsed.insn.base == "add"

    def test_rep_prefix_with_unknown_becomes_opaque(self):
        parsed = parse_instruction("rep movsb")
        assert isinstance(parsed, ParsedOpaque)
        assert parsed.text == "rep movsb"

    def test_unknown_mnemonic_is_opaque(self):
        parsed = parse_instruction("vaddps %ymm0, %ymm1, %ymm2")
        assert isinstance(parsed, ParsedOpaque)

    def test_branch_target(self):
        parsed = parse_instruction("jne .L1")
        assert parsed.insn.branch_target_label() == ".L1"

    def test_paper_instruction(self):
        parsed = parse_instruction("movsbl 1(%rdi,%r8,4),%edx")
        insn = parsed.insn
        assert insn.base == "movsx"
        mem = insn.operands[0]
        assert (mem.disp, mem.base.name, mem.index.name, mem.scale) \
            == (1, "rdi", "r8", 4)


class TestFullText:
    def test_labels_and_sections(self):
        statements = parse_asm_text("""
.text
main:
    nop
.L1: .L2:
    ret
""")
        kinds = [type(s).__name__ for s in statements]
        assert kinds == ["ParsedDirective", "ParsedLabel",
                         "ParsedInstruction", "ParsedLabel", "ParsedLabel",
                         "ParsedInstruction"]

    def test_comments_stripped(self):
        statements = parse_asm_text("nop # comment with ; and : inside\n")
        assert len(statements) == 1

    def test_hash_inside_string_preserved(self):
        statements = parse_asm_text('.ascii "a#b"\n')
        directive = statements[0]
        assert isinstance(directive, ParsedDirective)
        assert '"a#b"' in directive.args

    def test_semicolon_separates_statements(self):
        statements = parse_asm_text("nop; nop; ret\n")
        assert len(statements) == 3

    def test_block_comments(self):
        statements = parse_asm_text("nop /* multi\nline */ \nret\n")
        bases = [s.insn.base for s in statements
                 if isinstance(s, ParsedInstruction)]
        assert bases == ["nop", "ret"]

    def test_directive_args_preserved(self):
        statements = parse_asm_text(".p2align 4,,10\n")
        assert statements[0].name == "p2align"
        assert statements[0].args == "4,,10"

    def test_empty_input(self):
        assert parse_asm_text("") == []

    def test_line_numbers(self):
        statements = parse_asm_text("\n\nnop\n")
        assert statements[0].lineno == 3
