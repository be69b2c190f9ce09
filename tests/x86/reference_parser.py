"""Token-list operand parser: the differential oracle.

``repro.x86.parser.parse_operand`` reads each operand with one
structural scan.  This is the parser it replaced: a regex cuts the
operand into interned ``(kind, text)`` tokens and a fresh
recursive-descent ``_OperandParser`` walks the list.  For every operand
text the two must give equal operands, or this one must raise (anything)
and the new one ``ParseError``; ``tests/x86/test_parser_differential.py``
checks that.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.x86 import lexer
from repro.x86.operands import (
    Immediate,
    LabelRef,
    Memory,
    Operand,
    RegisterOperand,
)
from repro.x86.parser import ParseError
from repro.x86.registers import get_register, is_register_name

# ---------------------------------------------------------------------------
# Operand-expression tokenizer.
# ---------------------------------------------------------------------------

TOKEN_RE = re.compile(r"""
    (?P<REG>%[a-zA-Z][a-zA-Z0-9]*)
  | (?P<NUMBER>-?0[xX][0-9a-fA-F]+|-?\d+)
  | (?P<IDENT>[.@_a-zA-Z][.@_$a-zA-Z0-9]*)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<PLUS>\+)
  | (?P<MINUS>-)
  | (?P<STAR>\*)
  | (?P<DOLLAR>\$)
  | (?P<WS>\s+)
""", re.VERBOSE)


Token = Tuple[str, str]

# Token interning: corpus-scale parsing sees the same registers, opcodes,
# and punctuation on nearly every line, and allocating a fresh tuple per
# occurrence duplicates them millions of times.  Tokens are immutable, so
# one shared tuple per distinct (kind, text) is safe; the table is bounded
# because IDENT/NUMBER texts (labels, displacements) are open-ended —
# once full, rare tokens simply stop being shared.
_INTERN_MAX = 65536
_TOKEN_INTERN: dict = {}


def _intern_token(kind: str, text: str) -> Token:
    key = (kind, text)
    token = _TOKEN_INTERN.get(key)
    if token is None:
        if len(_TOKEN_INTERN) >= _INTERN_MAX:
            return key
        _TOKEN_INTERN[key] = token = key
    return token


class LexError(Exception):
    pass


def tokenize_operand(text: str) -> List[Token]:
    """Tokenize an operand string into (kind, text) pairs (whitespace
    dropped).  Tokens are interned: two parses of the same text yield the
    *same* tuple objects."""
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        match = TOKEN_RE.match(text, pos)
        if match is None:
            raise LexError("cannot tokenize operand %r at %r"
                           % (text, text[pos:]))
        kind = match.lastgroup
        if kind != "WS":
            tokens.append(_intern_token(kind, match.group()))
        pos = match.end()
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent operand parser.
# ---------------------------------------------------------------------------


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
        """Parse ``[sym|num] ([+-] [sym|num])*`` into (value, symbol); an
        expression without a term, signs alone included, is an error."""
        value = 0
        symbol: Optional[str] = None
        sign = 1
        expect_term = True
        terms = 0
        while True:
            token = self.peek()
            if token is None:
                break
            kind, text = token
            if expect_term and kind == "NUMBER":
                self.next()
                terms += 1
                value += sign * lexer.parse_integer(text)
            elif expect_term and kind == "IDENT":
                self.next()
                terms += 1
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
            elif expect_term and kind == "PLUS":
                # A '+' inside a run of signs leaves the sign as it is.
                self.next()
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
        if not terms:
            raise ParseError("missing or invalid expression", self.lineno)
        return value, symbol

    def _memory_or_label(self, indirect: bool) -> Operand:
        value, symbol = 0, None
        token = self.peek()
        if token is None or token[0] != "LPAREN":
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
