"""MaoUnit: the IR container with section and function overlays.

The unit owns one doubly-linked list of entries.  Sections and functions are
*views* over that list:

* A :class:`Section` collects the (possibly discontiguous) runs of entries
  assembled into it.
* A :class:`Function` spans from its defining label to the next function /
  end of section.  Per the paper, a function whose body is interrupted by an
  intermittent data section (e.g. a jump table emitted mid-function for a C
  ``switch``) is still iterated as one continuous instruction stream —
  ``Function.entries()`` transparently skips entries belonging to other
  sections.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.ir.entries import InstructionEntry, LabelEntry, MaoEntry
from repro.x86.instruction import Instruction


class Section:
    """A named output section (.text, .data, ...)."""

    def __init__(self, name: str, flags: str = "") -> None:
        self.name = name
        self.flags = flags

    @property
    def is_code(self) -> bool:
        if self.name.startswith(".text"):
            return True
        return "x" in self.flags

    def __repr__(self) -> str:
        return "<section %s>" % self.name


class Function:
    """A view of the entries forming one function."""

    def __init__(self, name: str, unit: "MaoUnit", start: MaoEntry,
                 end: Optional[MaoEntry], section: Section) -> None:
        self.name = name
        self.unit = unit
        self.start = start          # the function's LabelEntry
        self.end = end              # first entry after the function (or None)
        self.section = section
        #: Set by CFG construction when an indirect branch can't be resolved.
        self.flagged_unresolved_branch = False

    def entries(self) -> Iterator[MaoEntry]:
        """All entries of the function, skipping other sections' entries."""
        entry = self.start
        while entry is not None and entry is not self.end:
            next_entry = entry.next
            if entry.section is self.section:
                yield entry
            entry = next_entry

    def instructions(self) -> Iterator[InstructionEntry]:
        for entry in self.entries():
            if isinstance(entry, InstructionEntry):
                yield entry

    def labels(self) -> Iterator[LabelEntry]:
        for entry in self.entries():
            if isinstance(entry, LabelEntry):
                yield entry

    def __repr__(self) -> str:
        return "<function %s>" % self.name


class MaoUnit:
    """The whole IR for one assembly file."""

    def __init__(self, filename: str = "<asm>") -> None:
        self.filename = filename
        self.head: Optional[MaoEntry] = None
        self.tail: Optional[MaoEntry] = None
        self.sections: Dict[str, Section] = {}
        self.functions: List[Function] = []
        self._size = 0

    # ---- list management ---------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def entries(self) -> Iterator[MaoEntry]:
        entry = self.head
        while entry is not None:
            next_entry = entry.next   # robust against removal during iteration
            yield entry
            entry = next_entry

    def append(self, entry: MaoEntry) -> MaoEntry:
        entry.prev = self.tail
        entry.next = None
        if self.tail is not None:
            self.tail.next = entry
        else:
            self.head = entry
        self.tail = entry
        self._size += 1
        return entry

    def insert_after(self, anchor: MaoEntry, entry: MaoEntry) -> MaoEntry:
        entry.prev = anchor
        entry.next = anchor.next
        if anchor.next is not None:
            anchor.next.prev = entry
        else:
            self.tail = entry
        anchor.next = entry
        if entry.section is None:
            entry.section = anchor.section
        self._size += 1
        return entry

    def insert_before(self, anchor: MaoEntry, entry: MaoEntry) -> MaoEntry:
        entry.next = anchor
        entry.prev = anchor.prev
        if anchor.prev is not None:
            anchor.prev.next = entry
        else:
            self.head = entry
        anchor.prev = entry
        if entry.section is None:
            entry.section = anchor.section
        self._size += 1
        return entry

    def remove(self, entry: MaoEntry) -> None:
        if entry.prev is not None:
            entry.prev.next = entry.next
        else:
            self.head = entry.next
        if entry.next is not None:
            entry.next.prev = entry.prev
        else:
            self.tail = entry.prev
        entry.prev = entry.next = None
        self._size -= 1

    def replace(self, old: MaoEntry, new: MaoEntry) -> MaoEntry:
        self.insert_after(old, new)
        self.remove(old)
        return new

    # ---- convenience builders ----------------------------------------------

    def insert_instruction_before(self, anchor: MaoEntry,
                                  insn: Instruction) -> InstructionEntry:
        return self.insert_before(anchor, InstructionEntry(insn))

    # ---- lookups -------------------------------------------------------------

    def get_section(self, name: str, flags: str = "") -> Section:
        if name not in self.sections:
            self.sections[name] = Section(name, flags)
        return self.sections[name]

    def find_label(self, name: str) -> Optional[LabelEntry]:
        for entry in self.entries():
            if isinstance(entry, LabelEntry) and entry.name == name:
                return entry
        return None

    def label_map(self) -> Dict[str, LabelEntry]:
        table: Dict[str, LabelEntry] = {}
        for entry in self.entries():
            if isinstance(entry, LabelEntry):
                table[entry.name] = entry
        return table

    def function_named(self, name: str) -> Function:
        for function in self.functions:
            if function.name == name:
                return function
        raise KeyError(name)

    # ---- emission --------------------------------------------------------------

    def to_asm(self) -> str:
        """Emit the unit back to textual assembly (the ASM pass backend)."""
        lines = [entry.to_asm() for entry in self.entries()]
        return "\n".join(lines) + "\n"

    def instruction_count(self) -> int:
        return sum(1 for e in self.entries() if e.is_instruction)
