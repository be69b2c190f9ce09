"""Load a MaoUnit into a simulated address space.

This plays the linker's and the loader's part for the simulator;
:mod:`repro.analysis.relax` plays the assembler's.  Every populated
section gets a fixed base and :func:`~repro.analysis.relax.relax_section`
lays it out there: data sections first (their sizes do not depend on
code), then code sections with the data symbols in scope, so every
instruction has a true address and encoding.  ``.comm`` and ``.lcomm``
symbols get zeroed, aligned storage past the unit's sections.  A unit
with more than one code section relaxes its code sections a second time,
with every code symbol known, so a branch into a later section carries
its real displacement.  Then the bytes are written: each code section's
image, every data directive's :func:`~repro.analysis.relax.data_bytes`
at its placement in any section, read with the whole symbol table (so
jump tables of ``.quad .Lx`` or ``.long .Lx-.Ltab`` hold code
addresses), and a data section's alignment pads in their fill byte.
Zero fills write nothing, so ``.bss`` and ``.zero`` allocate no page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.relax import (
    SectionLayout,
    alignment_fill,
    common_request,
    data_bytes,
    relax_section,
    section_entry_map,
)
from repro.ir.entries import DirectiveEntry, InstructionEntry
from repro.ir.unit import MaoUnit
from repro.sim.memory import SparseMemory

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
    #: Section name -> base address; ``COMMON`` -> the storage of the
    #: ``.comm`` and ``.lcomm`` symbols (ld's name for their section).
    bases: Dict[str, int] = field(default_factory=dict)
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


def load_unit(unit: MaoUnit, entry_symbol: str = "main") -> LoadedProgram:
    """Lay out, relax, and materialize a unit into simulated memory."""
    memory = SparseMemory()
    symtab: Dict[str, int] = {}
    by_section = section_entry_map(unit)
    populated = [s for s in unit.sections.values() if s.name in by_section]
    code_sections = [s for s in populated if s.is_code]
    data_sections = [s for s in populated if not s.is_code]

    bases = {"COMMON": _section_base(".bss", len(data_sections))}
    cursor = bases["COMMON"]
    for section in populated:
        for entry in by_section[section.name]:
            request = (isinstance(entry, DirectiveEntry)
                       and common_request(entry))
            if request:
                symbol, size, alignment = request
                cursor += -cursor % alignment
                symtab[symbol] = cursor
                cursor += size

    # A branch or call into a later code section is encoded before that
    # section has an address, so a unit with more than one code section
    # relaxes them all again once every code symbol is known.
    again = code_sections if len(code_sections) > 1 else []
    layouts: Dict[str, SectionLayout] = {}
    for sections in (data_sections, code_sections, again):
        for order, section in enumerate(sections):
            base = bases[section.name] = _section_base(section.name, order)
            layout = relax_section(unit, section, base,
                                   extern_symbols=symtab,
                                   entries=by_section[section.name])
            symtab.update(layout.symtab)
            layouts[section.name] = layout

    code_index: Dict[int, InstructionEntry] = {}
    for layout in layouts.values():
        is_code = layout.section.is_code
        if is_code:
            memory.write_bytes(layout.start_address, layout.code_image())
        for entry, place in layout.placement.items():
            if isinstance(entry, InstructionEntry):
                if is_code:
                    code_index[place.address] = entry
                else:
                    memory.write_bytes(place.address, entry.insn.encoding)
            elif isinstance(entry, DirectiveEntry):
                data = data_bytes(entry, symtab)
                if not data and place.size and not is_code:
                    # Only alignment sizes a directive that fills nothing.
                    data = bytes((alignment_fill(entry),)) * place.size
                if data.strip(b"\0"):
                    memory.write_bytes(place.address, data)

    program = LoadedProgram(unit=unit, memory=memory, symtab=symtab,
                            code_index=code_index, bases=bases,
                            code_addresses=sorted(code_index))
    if entry_symbol in symtab:
        program.entry_point = symtab[entry_symbol]
    return program
