"""AT&T-syntax assembly parser.

Parses assembly text into a flat list of parsed statements — labels,
directives, and instructions — which ``repro.ir.builder`` assembles into a
:class:`~repro.ir.unit.MaoUnit`.  Mirrors how MAO uses gas: the parser is
the first "pass" and produces the raw entry stream.

Unknown mnemonics do not abort parsing; they become :class:`ParsedOpaque`
statements that are carried through the IR and re-emitted verbatim (they
just cannot be encoded or simulated).

Each operand is read with one structural scan: its first character picks
the form, a memory operand is cut at ``(`` and its commas, and a
displacement or immediate is one compiled scan of signed terms.  Every
mention of a register shares one :class:`Register`, and every bare
register operand one :class:`RegisterOperand`.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.x86 import lexer
from repro.x86.instruction import Instruction
from repro.x86.isa import UnknownMnemonic
from repro.x86.lexer import split_operands
from repro.x86.operands import (
    Immediate,
    LabelRef,
    Memory,
    Operand,
    RegisterOperand,
)
from repro.x86.registers import ALL_GROUPS, Register, registers_in_group


class ParseError(ValueError):
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


#: Each register by its AT&T spelling (``%rax``), and the one immutable
#: operand handed out for every bare mention of it.
_REGISTERS: Dict[str, Register] = {
    "%" + reg.name: reg
    for group in ALL_GROUPS for reg in registers_in_group(group)}
_REGISTER_OPERANDS: Dict[str, RegisterOperand] = {
    text: RegisterOperand(reg) for text, reg in _REGISTERS.items()}

#: One signed term of an expression: a run of signs and whitespace, then
#: a hex or decimal number or a symbol.
_TERM = re.compile(r"([-+\s]*)(?:(0[xX][0-9a-fA-F]+|\d+)"
                   r"|([.@_a-zA-Z][.@_$a-zA-Z0-9]*))")
#: What may follow an expression's last term.
_SIGNS = re.compile(r"[-+\s]*")
#: A scale: a signed hex or decimal number.
_NUMBER = re.compile(r"-?(?:0[xX][0-9a-fA-F]+|\d+)")


def _integer(text: str, lineno: int) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise ParseError("bad number %r" % text, lineno) from None


def _expression(text: str, lineno: int) -> Tuple[int, Optional[str]]:
    """Read ``text`` as signed terms into ``(value, symbol)``.

    Each term after the first needs a sign before it.  In a run of
    signs a ``+`` sets the sign to plus and each ``-`` flips it, so
    ``--8`` and ``-+8`` are 8 and ``buf-8`` is ``-8+buf``.  At most one
    term is a symbol, never negated.  Signs may trail the last term.
    """
    value = 0
    symbol = None
    pos = 0
    end = len(text)
    while pos < end:
        match = _TERM.match(text, pos)
        if match is None:
            break
        signs, number, name = match.groups()
        negative = False
        if signs:
            if pos and not signs.strip():
                break
            negative = signs[signs.rfind("+") + 1:].count("-") & 1
        elif pos:
            break
        if number is not None:
            number = _integer(number, lineno)
            value += -number if negative else number
        elif symbol is not None:
            raise ParseError("two symbols in one expression", lineno)
        elif negative:
            raise ParseError("negated symbol in expression", lineno)
        else:
            symbol = name
        pos = match.end()
    if pos < end and _SIGNS.fullmatch(text, pos) is None:
        raise ParseError("bad expression %r" % text, lineno)
    return value, symbol


def _register(text: str, lineno: int) -> Register:
    reg = _REGISTERS.get(text)
    if reg is None:
        reg = _REGISTERS.get(text.strip().lower())
        if reg is None:
            raise ParseError("bad register %r" % text.strip(), lineno)
    return reg


def _memory(text: str, is_branch: bool, indirect: bool,
            lineno: int) -> Operand:
    """``expr`` or ``expr(base,index,scale)``, cut at ``(`` and commas."""
    paren = text.find("(")
    if paren < 0:
        value, symbol = _expression(text, lineno)
        if is_branch and symbol is not None and not value:
            return LabelRef(symbol)
        return Memory(disp=value, symbol=symbol, indirect=indirect)
    if text[-1] != ")":
        raise ParseError("trailing text in operand %r" % text, lineno)
    value, symbol = _expression(text[:paren], lineno)
    parts = text[paren + 1:-1].split(",")
    if len(parts) > 3:
        raise ParseError("too many parts in operand %r" % text, lineno)
    base = index = None
    scale = 1
    if parts[0] and not parts[0].isspace():
        base = _register(parts[0], lineno)
    if len(parts) > 1:
        if parts[1] and not parts[1].isspace():
            index = _register(parts[1], lineno)
        if len(parts) > 2:
            scale_text = parts[2].strip()
            if _NUMBER.fullmatch(scale_text) is None:
                raise ParseError("bad scale in operand %r" % text, lineno)
            scale = _integer(scale_text, lineno)
    try:
        return Memory(disp=value, base=base, index=index, scale=scale,
                      symbol=symbol, indirect=indirect)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from exc


def parse_operand(text: str, is_branch: bool = False,
                  lineno: int = 0) -> Operand:
    """Parse a single AT&T operand string.

    The first character picks the form: ``%`` a register, ``$`` an
    immediate, ``*`` an indirect branch target, anything else a memory
    operand or, for ``jmp``/``j``/``call`` (*is_branch*), a label.
    """
    # Two operands in three are a bare register.
    operand = _REGISTER_OPERANDS.get(text)
    if operand is not None:
        return operand
    text = text.strip()
    if not text:
        raise ParseError("empty operand", lineno)
    head = text[0]
    if head == "%":
        operand = _REGISTER_OPERANDS.get(text.lower())
        if operand is None:
            raise ParseError("bad register operand %r" % text, lineno)
        return operand
    if head == "$":
        value, symbol = _expression(text[1:], lineno)
        return Immediate(value, symbol)
    if head == "*":
        text = text[1:].lstrip()
        if text[:1] == "%":
            return RegisterOperand(_register(text, lineno), indirect=True)
        # "*symbol" is a memory-indirect jump through `symbol`.
        return _memory(text, False, True, lineno)
    return _memory(text, is_branch, False, lineno)


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

    try:
        insn = Instruction(mnemonic, prefixes=prefixes)
    except UnknownMnemonic:
        return ParsedOpaque(text, lineno)

    if len(parts) == 2:
        is_branch = insn.base in ("jmp", "j", "call")
        insn.operands = [parse_operand(op_text, is_branch, lineno)
                         for op_text in split_operands(parts[1])]
    return ParsedInstruction(insn, lineno)


def parse_asm_text(source: str) -> List[Statement]:
    """Parse a full assembly file into a statement list."""
    statements: List[Statement] = []
    for text, lineno in lexer.logical_lines(source):
        # Leading labels: "name:" possibly several on one statement.
        colon = text.find(":")
        while colon > 0:
            head = text[:colon].strip()
            if not head or any(ch.isspace() for ch in head) or '"' in head:
                break
            # A register or operand can't precede ':' at statement start.
            statements.append(ParsedLabel(head, lineno))
            text = text[colon + 1:].strip()
            colon = text.find(":")
        if not text:
            continue
        if text.startswith("."):
            parts = text.split(None, 1)
            name = parts[0][1:].lower()
            args = parts[1] if len(parts) == 2 else ""
            statements.append(ParsedDirective(name, args.strip(), lineno))
            continue
        statements.append(parse_instruction(text, lineno))
    return statements
