"""Load a MaoUnit into a simulated address space.

This plays the role of assembler+linker+loader for the simulator: sections
get fixed base addresses, code sections are relaxed at their final base so
every instruction has a true address and encoding, and data directives are
materialized into memory bytes (including jump tables of ``.quad .Lxx``
entries, which resolve through the shared symbol table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.relax import (
    SectionLayout,
    _alignment_request,
    _string_literals,
    directive_data_size,
    relax_section,
)
from repro.ir.entries import DirectiveEntry, InstructionEntry, LabelEntry
from repro.ir.unit import MaoUnit
from repro.sim.memory import SparseMemory
from repro.x86.lexer import split_operands

TEXT_BASE = 0x400000
DATA_BASE = 0x600000
BSS_BASE = 0x700000
STACK_TOP = 0x7FFF0000
STACK_BOTTOM_SENTINEL = 0xDEADBEEF00


@dataclass
class LoadedProgram:
    unit: MaoUnit
    memory: SparseMemory
    symtab: Dict[str, int]
    #: address -> InstructionEntry for every encoded code byte start.
    code_index: Dict[int, InstructionEntry]
    layouts: Dict[str, SectionLayout] = field(default_factory=dict)
    entry_point: Optional[int] = None
    #: Sorted instruction start addresses (for skipping alignment pads).
    code_addresses: List[int] = field(default_factory=list)
    #: Compiled basic blocks keyed by start address.  Owned by the program
    #: (not the Interpreter) so every run over the same image shares them;
    #: sound because the code image is immutable after load.
    block_cache: Dict[int, object] = field(default_factory=dict, repr=False)

    def address_of(self, symbol: str) -> int:
        return self.symtab[symbol]

    def next_instruction_address(self, address: int) -> Optional[int]:
        """First instruction address strictly greater than *address*."""
        import bisect
        idx = bisect.bisect_right(self.code_addresses, address)
        if idx < len(self.code_addresses):
            return self.code_addresses[idx]
        return None


def _section_base(name: str, order: int) -> int:
    if name.startswith(".text"):
        return TEXT_BASE + order * 0x10000
    if name.startswith(".bss"):
        return BSS_BASE + order * 0x10000
    return DATA_BASE + order * 0x10000


def _data_item_values(directive: DirectiveEntry,
                      symtab: Dict[str, int]) -> List[int]:
    values = []
    for part in split_operands(directive.args):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(int(part, 0))
            continue
        except ValueError:
            pass
        # symbol or symbol+offset
        text = part
        offset = 0
        for sep in ("+", "-"):
            if sep in text[1:]:
                idx = text.rindex(sep)
                try:
                    offset = int(text[idx:], 0)
                    text = text[:idx]
                    break
                except ValueError:
                    pass
        if text in symtab:
            values.append(symtab[text] + offset)
        else:
            values.append(0)
    return values


_ITEM_SIZES = {"byte": 1, "word": 2, "value": 2, "short": 2,
               "long": 4, "int": 4, "quad": 8}


def _materialize_data(memory: SparseMemory, address: int,
                      directive: DirectiveEntry,
                      symtab: Dict[str, int]) -> int:
    """Write a data directive's bytes; returns bytes written."""
    name = directive.name
    if name in _ITEM_SIZES:
        size = _ITEM_SIZES[name]
        cursor = address
        for value in _data_item_values(directive, symtab):
            memory.write(cursor, value, size)
            cursor += size
        return cursor - address
    if name in ("zero", "skip", "space"):
        return directive_data_size(directive)
    if name in ("ascii", "asciz", "string"):
        cursor = address
        for literal in _string_literals(directive.args):
            memory.write_bytes(cursor, literal)
            cursor += len(literal)
            if name in ("asciz", "string"):
                memory.write(cursor, 0, 1)
                cursor += 1
        return cursor - address
    return 0


def load_unit(unit: MaoUnit, entry_symbol: str = "main") -> LoadedProgram:
    """Lay out, relax, and materialize a unit into simulated memory."""
    memory = SparseMemory()
    symtab: Dict[str, int] = {}
    layouts: Dict[str, SectionLayout] = {}

    populated = [s for s in unit.sections.values()
                 if any(e.section is s for e in unit.entries())]
    code_sections = [s for s in populated if s.is_code]
    data_sections = [s for s in populated if not s.is_code]

    # Pass 1: data section label addresses (sizes don't depend on code).
    for order, section in enumerate(data_sections):
        base = _section_base(section.name, order)
        cursor = base
        for entry in unit.entries():
            if entry.section is not section:
                continue
            if isinstance(entry, LabelEntry):
                symtab[entry.name] = cursor
            elif isinstance(entry, DirectiveEntry):
                request = _alignment_request(entry)
                if request is not None:
                    alignment, max_skip = request
                    pad = (-cursor) % alignment
                    if max_skip is not None and pad > max_skip:
                        pad = 0
                    cursor += pad
                else:
                    cursor += directive_data_size(entry)

    # Pass 2: relax code sections with data symbols visible.
    code_index: Dict[int, InstructionEntry] = {}
    for order, section in enumerate(code_sections):
        base = _section_base(section.name, order)
        layout = relax_section(unit, section, start_address=base,
                               extern_symbols=dict(symtab))
        layouts[section.name] = layout
        symtab.update(layout.symtab)
        image = layout.code_image()
        memory.write_bytes(base, image)
        for entry, place in layout.placement.items():
            if isinstance(entry, InstructionEntry):
                code_index[place.address] = entry

    # Pass 2b: re-relax so cross-code-section symbols resolve (rare).
    # Pass 3: materialize data bytes with the full symbol table.
    for order, section in enumerate(data_sections):
        base = _section_base(section.name, order)
        cursor = base
        for entry in unit.entries():
            if entry.section is not section:
                continue
            if isinstance(entry, DirectiveEntry):
                request = _alignment_request(entry)
                if request is not None:
                    alignment, max_skip = request
                    pad = (-cursor) % alignment
                    if max_skip is not None and pad > max_skip:
                        pad = 0
                    cursor += pad
                else:
                    cursor += _materialize_data(memory, cursor, entry, symtab)

    program = LoadedProgram(unit=unit, memory=memory, symtab=symtab,
                            code_index=code_index, layouts=layouts,
                            code_addresses=sorted(code_index))
    if entry_symbol in symtab:
        program.entry_point = symtab[entry_symbol]
    return program
