"""IR entry node types.

Every element of an assembly file — instruction, label, or directive — is a
:class:`MaoEntry` in one doubly-linked list owned by the
:class:`~repro.ir.unit.MaoUnit`.  Entries carry their section assignment so
function iterators can transparently skip intervening data sections.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.x86.instruction import Instruction

if TYPE_CHECKING:
    from repro.ir.unit import Section


class MaoEntry:
    """Base class for all IR list nodes."""

    __slots__ = ("prev", "next", "section", "lineno")

    def __init__(self, lineno: int = 0) -> None:
        self.prev: Optional[MaoEntry] = None
        self.next: Optional[MaoEntry] = None
        self.section: Optional["Section"] = None
        self.lineno = lineno

    @property
    def is_instruction(self) -> bool:
        return isinstance(self, InstructionEntry)

    @property
    def is_label(self) -> bool:
        return isinstance(self, LabelEntry)

    @property
    def is_directive(self) -> bool:
        return isinstance(self, DirectiveEntry)

    def to_asm(self) -> str:
        raise NotImplementedError


class InstructionEntry(MaoEntry):
    """An instruction node wrapping the single Instruction struct."""

    __slots__ = ("insn",)

    def __init__(self, insn: Instruction, lineno: int = 0) -> None:
        super().__init__(lineno)
        self.insn = insn

    def to_asm(self) -> str:
        return "\t" + str(self.insn)

    def __repr__(self) -> str:
        return "<insn %s>" % self.insn


class LabelEntry(MaoEntry):
    __slots__ = ("name",)

    def __init__(self, name: str, lineno: int = 0) -> None:
        super().__init__(lineno)
        self.name = name

    def to_asm(self) -> str:
        return "%s:" % self.name

    def __repr__(self) -> str:
        return "<label %s>" % self.name


class DirectiveEntry(MaoEntry):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: str = "", lineno: int = 0) -> None:
        super().__init__(lineno)
        self.name = name
        self.args = args

    def to_asm(self) -> str:
        if self.args:
            return "\t.%s\t%s" % (self.name, self.args)
        return "\t.%s" % self.name

    def str_args(self) -> List[str]:
        from repro.x86.lexer import split_operands
        return [p.strip() for p in split_operands(self.args) if p.strip()]

    def __repr__(self) -> str:
        return "<.%s %s>" % (self.name, self.args)


class OpaqueEntry(MaoEntry):
    """An unparsed statement carried through verbatim."""

    __slots__ = ("text",)

    def __init__(self, text: str, lineno: int = 0) -> None:
        super().__init__(lineno)
        self.text = text

    def to_asm(self) -> str:
        return "\t" + self.text

    def __repr__(self) -> str:
        return "<opaque %s>" % self.text
