"""Line-level scanning of assembly source text.

The lexer is line-oriented, matching how gas treats assembly input.  It
splits a source string into logical statements (handling ``;`` statement
separators and ``#`` comments outside string literals) and splits operand
and argument lists on their top-level commas.  ``repro.x86.parser`` reads
each operand.
"""

from __future__ import annotations

import re
from typing import Iterator, List, NamedTuple


class SourceLine(NamedTuple):
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


def split_operands(text: str) -> List[str]:
    """Split an operand list on top-level commas (not inside parentheses).

    Each part is stripped; an empty last part is dropped."""
    pieces = text.split(",")
    if "(" in text or ")" in text:
        # A comma splits only where the parentheses before it balance.
        joined: List[str] = []
        depth = 0
        for piece in pieces:
            if depth:
                joined[-1] += "," + piece
            else:
                joined.append(piece)
            depth += piece.count("(") - piece.count(")")
        pieces = joined
    parts = [piece.strip() for piece in pieces]
    if not parts[-1]:
        parts.pop()
    return parts


def parse_integer(text: str) -> int:
    """Parse a decimal or hex integer literal (with optional sign)."""
    text = text.strip()
    return int(text, 0)
