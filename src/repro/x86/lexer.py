"""Tokenization of assembly source text.

The lexer is line-oriented, matching how gas treats assembly input.  It
splits a source string into logical statements (handling ``;`` statement
separators and ``#`` comments outside string literals) and provides a small
regex tokenizer for operand expressions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, List, Tuple


@dataclass(frozen=True)
class SourceLine:
    """One logical assembly statement with its source line number."""

    text: str
    lineno: int


def _statements(line: str) -> List[str]:
    r"""Cut *line* at a ``#`` comment and split it on ``;``, both outside
    double-quoted strings.  Inside a string a backslash escapes the
    character after it, as in gas: ``"a\\"`` ends after its escaped
    backslash, and ``"a\"b"`` goes on past its escaped quote."""
    parts = []
    start = 0
    in_string = False
    i = 0
    end = len(line)
    while i < end:
        ch = line[i]
        if in_string:
            if ch == "\\":
                i += 1
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == ";":
            parts.append(line[start:i])
            start = i + 1
        elif ch == "#":
            end = i
            break
        i += 1
    parts.append(line[start:end])
    return parts


_BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
#: A line without these characters is one statement with no comment.
_NEEDS_SCAN = re.compile(r'[#;"]')


def logical_lines(source: str) -> Iterator[SourceLine]:
    """Yield trimmed, comment-free statements from assembly source."""
    # Preserve line structure (and numbering) when removing /* */ blocks.
    if "/*" in source:
        source = _BLOCK_COMMENT.sub(
            lambda match: "\n" * match.group().count("\n"), source)
    for lineno, raw in enumerate(source.splitlines(), start=1):
        for stmt in (_statements(raw) if _NEEDS_SCAN.search(raw)
                     else (raw,)):
            stmt = stmt.strip()
            if stmt:
                yield SourceLine(stmt, lineno)


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


def split_operands(text: str) -> List[str]:
    """Split an operand list on top-level commas (not inside parentheses)."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def parse_integer(text: str) -> int:
    """Parse a decimal or hex integer literal (with optional sign)."""
    text = text.strip()
    return int(text, 0)
