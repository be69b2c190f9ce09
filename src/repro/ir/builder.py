"""Build a MaoUnit from parsed statements.

Responsibilities:

* translate parser statements into IR entries,
* track the current section across ``.text`` / ``.data`` / ``.section`` /
  ``.previous`` directives and assign each entry its section,
* identify functions: a function begins at a label marked
  ``.type name,@function`` — or, as a fallback for bare test inputs, at any
  non-local label in a code section that is followed by instructions — and
  extends to the next function start or end of the unit.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.ir.entries import (
    DirectiveEntry,
    InstructionEntry,
    LabelEntry,
    MaoEntry,
    OpaqueEntry,
)
from repro.ir.unit import Function, MaoUnit, Section
from repro.x86.parser import (
    ParsedDirective,
    ParsedInstruction,
    ParsedLabel,
    ParsedOpaque,
    Statement,
    parse_asm_text,
)

_SECTION_DIRECTIVES = {"text", "data", "bss", "rodata"}


def _section_from_directive(unit: MaoUnit,
                            directive: DirectiveEntry) -> Optional[Section]:
    name = directive.name
    if name in _SECTION_DIRECTIVES:
        return unit.get_section("." + name)
    if name in ("section", "pushsection"):
        args = directive.str_args()
        if not args:
            return None
        sect_name = args[0]
        flags = ""
        if len(args) >= 2:
            flags = args[1].strip('"')
        return unit.get_section(sect_name, flags)
    return None


def build_unit(statements: List[Statement],
               filename: str = "<asm>") -> MaoUnit:
    """Construct a MaoUnit (sections + functions resolved) from statements."""
    unit = MaoUnit(filename)
    current = unit.get_section(".text")
    section_stack: List[Section] = []
    previous: Optional[Section] = None

    function_symbols: Set[str] = set()

    for stmt in statements:
        if isinstance(stmt, ParsedLabel):
            entry: MaoEntry = LabelEntry(stmt.name, stmt.lineno)
        elif isinstance(stmt, ParsedInstruction):
            entry = InstructionEntry(stmt.insn, stmt.lineno)
        elif isinstance(stmt, ParsedOpaque):
            entry = OpaqueEntry(stmt.text, stmt.lineno)
        elif isinstance(stmt, ParsedDirective):
            entry = DirectiveEntry(stmt.name, stmt.args, stmt.lineno)
            if stmt.name == "type":
                args = entry.str_args()
                if len(args) >= 2 and args[1].lstrip("@%") == "function":
                    function_symbols.add(args[0])
            new_section = _section_from_directive(unit, entry)
            if new_section is not None:
                if stmt.name == "pushsection":
                    section_stack.append(current)
                previous = current
                current = new_section
            elif stmt.name == "popsection" and section_stack:
                previous = current
                current = section_stack.pop()
            elif stmt.name == "previous" and previous is not None:
                current, previous = previous, current
        else:
            raise TypeError("unknown statement %r" % (stmt,))
        entry.section = current
        unit.append(entry)

    _find_functions(unit, function_symbols)
    return unit


def _looks_like_function_label(entry: LabelEntry) -> bool:
    if entry.name.startswith(".L"):
        return False
    if entry.section is None or not entry.section.is_code:
        return False
    # Followed (in the same section) by at least one instruction before the
    # next label.
    node = entry.next
    while node is not None:
        if node.section is entry.section:
            if isinstance(node, InstructionEntry):
                return True
            if isinstance(node, LabelEntry) \
                    and not node.name.startswith(".L"):
                # Another function-like label before any instruction.
                return False
        node = node.next
    return False


def _find_functions(unit: MaoUnit, function_symbols: Set[str]) -> None:
    """Populate unit.functions from labels."""
    starts: List[LabelEntry] = []
    for entry in unit.entries():
        if not isinstance(entry, LabelEntry):
            continue
        if entry.name in function_symbols or (
                not function_symbols and _looks_like_function_label(entry)):
            starts.append(entry)

    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else None
        unit.functions.append(
            Function(start.name, unit, start, end, start.section))


def parse_unit(source: str, filename: str = "<asm>",
               syntax: str = "att") -> MaoUnit:
    """Parse assembly text straight into a MaoUnit.

    ``syntax`` selects the input flavour: ``"att"`` (default) or
    ``"intel"`` — MAO, being gas-based, accepts both (paper §II).
    """
    if syntax == "intel":
        from repro.x86.intel_parser import parse_intel_text
        return build_unit(parse_intel_text(source), filename)
    if syntax != "att":
        raise ValueError("unknown syntax %r" % syntax)
    return build_unit(parse_asm_text(source), filename)
