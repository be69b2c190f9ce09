"""Operand types for x86-64 instructions.

Four operand kinds cover everything the supported subset needs:

* :class:`RegisterOperand` — a direct register reference.
* :class:`Immediate` — an integer literal (``$5`` in AT&T syntax).
* :class:`Memory` — a full addressing-mode expression
  ``disp(base, index, scale)``, possibly RIP-relative or with a symbolic
  displacement.
* :class:`LabelRef` — a code label used as a branch / call target.

Operands are immutable value objects; passes build new instructions rather
than mutating operands in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.x86.registers import Register


@dataclass(frozen=True)
class RegisterOperand:
    reg: Register
    #: True for indirect jump/call targets written ``*%rax``.
    indirect: bool = False

    def __str__(self) -> str:
        star = "*" if self.indirect else ""
        return "%s%%%s" % (star, self.reg.name)


@dataclass(frozen=True)
class Immediate:
    """An immediate operand; ``symbol`` makes it symbolic (``$.LC0+4``)."""

    value: int
    symbol: Optional[str] = None

    def __str__(self) -> str:
        if self.symbol is not None:
            if self.value > 0:
                return "$%s+%d" % (self.symbol, self.value)
            if self.value < 0:
                return "$%s%d" % (self.symbol, self.value)
            return "$%s" % self.symbol
        return "$%d" % self.value

    def fits_signed(self, bits: int) -> bool:
        if self.symbol is not None:
            return bits >= 32
        lo = -(1 << (bits - 1))
        hi = (1 << (bits - 1)) - 1
        return lo <= self.value <= hi

    def fits_unsigned(self, bits: int) -> bool:
        if self.symbol is not None:
            return bits >= 32
        return 0 <= self.value <= (1 << bits) - 1


@dataclass(frozen=True)
class Memory:
    """An x86 memory operand: ``disp(base, index, scale)``.

    ``symbol`` holds a symbolic displacement (a label or data symbol name);
    the numeric ``disp`` is added to it.  A ``base`` of ``%rip`` denotes
    RIP-relative addressing.
    """

    disp: int = 0
    base: Optional[Register] = None
    index: Optional[Register] = None
    scale: int = 1
    symbol: Optional[str] = None
    #: True for indirect jump/call targets written ``*(%rax)``.
    indirect: bool = False

    def __post_init__(self) -> None:
        if self.scale not in (1, 2, 4, 8):
            raise ValueError("invalid scale %r" % (self.scale,))
        if self.index is not None and self.index.name == "rsp":
            raise ValueError("%rsp cannot be an index register")

    @property
    def is_rip_relative(self) -> bool:
        return self.base is not None and self.base.group == "rip"

    @property
    def is_absolute(self) -> bool:
        return self.base is None and self.index is None

    def __str__(self) -> str:
        parts = []
        if self.symbol:
            parts.append(self.symbol)
            if self.disp > 0:
                parts.append("+%d" % self.disp)
            elif self.disp < 0:
                parts.append("%d" % self.disp)
        elif self.disp or (self.base is None and self.index is None):
            parts.append("%d" % self.disp)
        inner = []
        if self.base is not None or self.index is not None:
            inner.append("%%%s" % self.base.name if self.base else "")
            if self.index is not None:
                inner.append("%%%s" % self.index.name)
                inner.append("%d" % self.scale)
        star = "*" if self.indirect else ""
        if inner:
            return "%s%s(%s)" % (star, "".join(parts), ",".join(inner))
        return "%s%s" % (star, "".join(parts))


@dataclass(frozen=True)
class LabelRef:
    """A branch or call target given as a label / symbol name."""

    name: str

    def __str__(self) -> str:
        return self.name


Operand = Union[RegisterOperand, Immediate, Memory, LabelRef]


def is_label(op: object) -> bool:
    return isinstance(op, LabelRef)
