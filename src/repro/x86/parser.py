"""AT&T-syntax assembly parser.

Parses assembly text into a flat list of parsed statements — labels,
directives, and instructions — which ``repro.ir.builder`` assembles into a
:class:`~repro.ir.unit.MaoUnit`.  Mirrors how MAO uses gas: the parser is
the first "pass" and produces the raw entry stream.

Unknown mnemonics do not abort parsing; they become :class:`ParsedOpaque`
statements that are carried through the IR and re-emitted verbatim (they
just cannot be encoded or simulated).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.x86 import lexer
from repro.x86.instruction import Instruction
from repro.x86.isa import UnknownMnemonic
from repro.x86.lexer import Token, split_operands, tokenize_operand
from repro.x86.operands import (
    Immediate,
    LabelRef,
    Memory,
    Operand,
    RegisterOperand,
)
from repro.x86.registers import get_register, is_register_name


class ParseError(Exception):
    """Malformed assembly input."""

    def __init__(self, message: str, lineno: Optional[int] = None) -> None:
        if lineno is not None:
            message = "line %d: %s" % (lineno, message)
        super().__init__(message)
        self.lineno = lineno


@dataclass
class ParsedLabel:
    name: str
    lineno: int = 0


@dataclass
class ParsedDirective:
    name: str               # without the leading dot, e.g. "p2align"
    args: str               # raw argument string
    lineno: int = 0

    def int_args(self) -> List[int]:
        """Comma-separated integer arguments (missing entries skipped)."""
        values = []
        for part in split_operands(self.args):
            part = part.strip()
            if part:
                try:
                    values.append(lexer.parse_integer(part))
                except ValueError:
                    pass
        return values

    def str_args(self) -> List[str]:
        return [p.strip() for p in split_operands(self.args) if p.strip()]


@dataclass
class ParsedInstruction:
    insn: Instruction
    lineno: int = 0


@dataclass
class ParsedOpaque:
    """A statement we carry through verbatim (unsupported mnemonic)."""

    text: str
    lineno: int = 0


Statement = Union[ParsedLabel, ParsedDirective, ParsedInstruction,
                  ParsedOpaque]

_PREFIX_MNEMONICS = ("lock", "rep", "repz", "repnz", "repe", "repne")


class _OperandParser:
    """Recursive-descent parser over operand tokens."""

    def __init__(self, tokens: List[Token], is_branch: bool,
                 lineno: int) -> None:
        self.tokens = tokens
        self.pos = 0
        self.is_branch = is_branch
        self.lineno = lineno

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of operand", self.lineno)
        self.pos += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.next()
        if token[0] != kind:
            raise ParseError("expected %s, got %r" % (kind, token[1]),
                             self.lineno)
        return token

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Operand:
        token = self.peek()
        if token is None:
            raise ParseError("empty operand", self.lineno)
        kind = token[0]
        if kind == "DOLLAR":
            self.next()
            return self._immediate()
        if kind == "STAR":
            self.next()
            return self._indirect()
        if kind == "REG":
            self.next()
            return RegisterOperand(self._register(token[1]))
        return self._memory_or_label(indirect=False)

    def _register(self, text: str):
        name = text[1:]
        if not is_register_name(name):
            raise ParseError("unknown register %r" % text, self.lineno)
        return get_register(name)

    def _immediate(self) -> Immediate:
        value, symbol = self._expr()
        return Immediate(value, symbol=symbol)

    def _indirect(self) -> Operand:
        token = self.peek()
        if token is not None and token[0] == "REG":
            self.next()
            return RegisterOperand(self._register(token[1]), indirect=True)
        mem = self._memory_or_label(indirect=True)
        if isinstance(mem, LabelRef):
            # "*symbol" is a memory-indirect jump through `symbol`.
            return Memory(symbol=mem.name, indirect=True)
        return mem

    def _expr(self) -> Tuple[int, Optional[str]]:
        """Parse ``[sym|num] ([+-] [sym|num])*`` into (value, symbol)."""
        value = 0
        symbol: Optional[str] = None
        sign = 1
        expect_term = True
        while True:
            token = self.peek()
            if token is None:
                break
            kind, text = token
            if expect_term and kind == "NUMBER":
                self.next()
                value += sign * lexer.parse_integer(text)
            elif expect_term and kind == "IDENT":
                self.next()
                if symbol is not None:
                    raise ParseError("two symbols in one expression",
                                     self.lineno)
                if sign < 0:
                    raise ParseError("negated symbol in expression",
                                     self.lineno)
                symbol = text
            elif expect_term and kind == "MINUS":
                self.next()
                sign = -sign
                continue
            elif kind == "NUMBER" and text[0] == "-":
                # The lexer reads "buf-8" as IDENT "buf", NUMBER "-8".
                self.next()
                value += lexer.parse_integer(text)
                continue
            elif kind == "PLUS":
                self.next()
                sign = 1
            elif kind == "MINUS":
                self.next()
                sign = -1
            else:
                break
            expect_term = kind in ("PLUS", "MINUS")
        return value, symbol

    def _memory_or_label(self, indirect: bool) -> Operand:
        value, symbol = 0, None
        token = self.peek()
        if token is not None and token[0] != "LPAREN":
            value, symbol = self._expr()
        token = self.peek()
        if token is None or token[0] != "LPAREN":
            # Bare expression.
            if self.is_branch and symbol is not None and value == 0:
                return LabelRef(symbol)
            return Memory(disp=value, symbol=symbol, indirect=indirect)
        self.next()  # consume LPAREN
        base = index = None
        scale = 1
        token = self.peek()
        if token is not None and token[0] == "REG":
            self.next()
            base = self._register(token[1])
        token = self.peek()
        if token is not None and token[0] == "COMMA":
            self.next()
            token = self.peek()
            if token is not None and token[0] == "REG":
                self.next()
                index = self._register(token[1])
            token = self.peek()
            if token is not None and token[0] == "COMMA":
                self.next()
                scale = lexer.parse_integer(self.expect("NUMBER")[1])
        self.expect("RPAREN")
        try:
            return Memory(disp=value, base=base, index=index, scale=scale,
                          symbol=symbol, indirect=indirect)
        except ValueError as exc:
            raise ParseError(str(exc), self.lineno) from exc


def parse_operand(text: str, is_branch: bool = False,
                  lineno: int = 0) -> Operand:
    """Parse a single AT&T operand string."""
    tokens = tokenize_operand(text)
    parser = _OperandParser(tokens, is_branch, lineno)
    operand = parser.parse()
    if not parser.at_end():
        raise ParseError("trailing tokens in operand %r" % text, lineno)
    return operand


def parse_instruction(text: str, lineno: int = 0) -> Union[ParsedInstruction,
                                                           ParsedOpaque]:
    """Parse one instruction statement (mnemonic + operands)."""
    parts = text.split(None, 1)
    # A corpus repeats the same few hundred mnemonics endlessly; intern
    # them so every Instruction shares one string per opcode.
    mnemonic = sys.intern(parts[0].lower())
    prefixes: List[str] = []
    while mnemonic in _PREFIX_MNEMONICS and len(parts) == 2:
        prefixes.append({"repe": "repz", "repne": "repnz"}.get(mnemonic,
                                                               mnemonic))
        parts = parts[1].split(None, 1)
        mnemonic = sys.intern(parts[0].lower())

    operand_text = parts[1] if len(parts) == 2 else ""
    try:
        insn = Instruction(mnemonic, prefixes=prefixes)
    except UnknownMnemonic:
        return ParsedOpaque(text, lineno)

    is_branch = insn.base in ("jmp", "j", "call")
    operands: List[Operand] = []
    for op_text in split_operands(operand_text):
        try:
            operands.append(parse_operand(op_text, is_branch, lineno))
        except lexer.LexError as exc:
            raise ParseError(str(exc), lineno) from exc
    insn.operands = operands
    return ParsedInstruction(insn, lineno)


def parse_asm_text(source: str) -> List[Statement]:
    """Parse a full assembly file into a statement list."""
    statements: List[Statement] = []
    for line in lexer.logical_lines(source):
        text = line.text
        # Leading labels: "name:" possibly several on one statement.
        while True:
            colon = text.find(":")
            if colon <= 0:
                break
            head = text[:colon].strip()
            if not head or any(ch.isspace() for ch in head) or '"' in head:
                break
            # A register or operand can't precede ':' at statement start.
            statements.append(ParsedLabel(head, line.lineno))
            text = text[colon + 1:].strip()
        if not text:
            continue
        if text.startswith("."):
            parts = text.split(None, 1)
            name = parts[0][1:].lower()
            args = parts[1] if len(parts) == 2 else ""
            statements.append(ParsedDirective(name, args.strip(),
                                              line.lineno))
            continue
        statements.append(parse_instruction(text, line.lineno))
    return statements
