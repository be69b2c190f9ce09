"""Tests for the oracle's tokenizer (``tests/x86/reference_parser.py``)."""

import pytest

from tests.x86.reference_parser import LexError, tokenize_operand


class TestTokenizer:
    def test_register_token(self):
        assert tokenize_operand("%rax") == [("REG", "%rax")]

    def test_immediate_tokens(self):
        assert tokenize_operand("$42")[0] == ("DOLLAR", "$")

    def test_memory_tokens(self):
        kinds = [k for k, _ in tokenize_operand("-8(%rbp,%rax,4)")]
        assert kinds == ["NUMBER", "LPAREN", "REG", "COMMA", "REG",
                         "COMMA", "NUMBER", "RPAREN"]

    def test_hex_numbers(self):
        assert tokenize_operand("0x10") == [("NUMBER", "0x10")]
        assert tokenize_operand("-0xFF") == [("NUMBER", "-0xFF")]

    def test_symbols_with_dots(self):
        assert tokenize_operand(".L5") == [("IDENT", ".L5")]

    def test_garbage_rejected(self):
        with pytest.raises(LexError):
            tokenize_operand("%rax ` %rbx")

class TestTokenInterning:
    """Corpus parsing must not allocate duplicate tokens per line."""

    def test_two_parses_share_register_tokens(self):
        first = tokenize_operand("8(%rax,%rbx,4)")
        second = tokenize_operand("8(%rax,%rbx,4)")
        assert first == second
        regs_first = [t for t in first if t[0] == "REG"]
        regs_second = [t for t in second if t[0] == "REG"]
        assert regs_first and all(
            a is b for a, b in zip(regs_first, regs_second))

    def test_all_tokens_shared_across_parses(self):
        first = tokenize_operand("-16(%rsp)")
        second = tokenize_operand("-16(%rsp)")
        for a, b in zip(first, second):
            assert a is b

    def test_same_register_in_different_operands_shared(self):
        (reg_a,) = [t for t in tokenize_operand("%rdi") if t[0] == "REG"]
        reg_b = [t for t in tokenize_operand("8(%rdi)")
                 if t[0] == "REG"][0]
        assert reg_a is reg_b
