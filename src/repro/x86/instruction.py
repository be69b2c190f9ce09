"""The Instruction type — PyMAO's equivalent of gas's ``i386_insn`` struct.

The paper notes that every x86 instruction is encoded into *a single C
struct*, and that this uniformity is what makes the IR easy to manipulate.
:class:`Instruction` plays that role here: one type for every instruction,
holding the decomposed mnemonic, the operand list (in AT&T order —
source first, destination last), and the cached binary encoding produced by
the encoder/relaxation machinery.
"""

from __future__ import annotations

from typing import List, Optional

from repro.x86.isa import MnemonicInfo, split_mnemonic
from repro.x86.operands import (
    Immediate,
    LabelRef,
    Memory,
    Operand,
    RegisterOperand,
)
from repro.x86.registers import Register


class Instruction:
    """A single x86-64 instruction.

    Attributes:
        mnemonic: the original (AT&T) mnemonic as written, e.g. ``addl``.
        info: the decomposed :class:`MnemonicInfo` (base / width / cc).
        operands: operand list in AT&T order (sources before destination).
        prefixes: instruction prefixes such as ``lock`` or ``rep``.
        encoding: cached byte encoding, or None if not yet encoded.
        address: address assigned by the most recent relaxation, or None.
    """

    __slots__ = ("mnemonic", "info", "operands", "prefixes",
                 "encoding", "address", "_cached_encoding", "_symdep",
                 "_effects")

    def __init__(self, mnemonic: str, operands: Optional[List[Operand]] = None,
                 prefixes: Optional[List[str]] = None) -> None:
        self.mnemonic = mnemonic
        self.info: MnemonicInfo = split_mnemonic(mnemonic)
        self.operands: List[Operand] = list(operands or [])
        self.prefixes: List[str] = list(prefixes or [])
        self.encoding: Optional[bytes] = None
        self.address: Optional[int] = None
        #: Encoder-owned memo slots (see repro.x86.encoder): the pinned
        #: address-independent encoding and the symbol_dependent() verdict.
        #: Sound because operands are immutable value objects — passes build
        #: new Instructions rather than mutating operands in place.
        self._cached_encoding: Optional[bytes] = None
        self._symdep: Optional[bool] = None
        #: The side-effect record (see repro.x86.sideeffects.effects).
        self._effects = None

    # ---- structural accessors -------------------------------------------

    @property
    def base(self) -> str:
        return self.info.base

    @property
    def width(self) -> Optional[int]:
        """Explicit operand width from the mnemonic suffix, if any."""
        return self.info.width

    @property
    def cond(self) -> Optional[str]:
        return self.info.cond

    def op(self, i: int) -> Operand:
        return self.operands[i]

    @property
    def src(self) -> Optional[Operand]:
        """First operand (AT&T source) for two-operand instructions."""
        return self.operands[0] if len(self.operands) >= 2 else None

    @property
    def dest(self) -> Optional[Operand]:
        """Last operand (AT&T destination)."""
        return self.operands[-1] if self.operands else None

    # ---- classification ---------------------------------------------------

    @property
    def is_jump(self) -> bool:
        return self.base in ("jmp", "j")

    @property
    def is_cond_jump(self) -> bool:
        return self.base == "j"

    @property
    def is_uncond_jump(self) -> bool:
        return self.base == "jmp"

    @property
    def is_call(self) -> bool:
        return self.base == "call"

    @property
    def is_ret(self) -> bool:
        return self.base == "ret"

    @property
    def is_control_transfer(self) -> bool:
        return self.base in ("jmp", "j", "call", "ret", "hlt", "ud2")

    @property
    def is_nop(self) -> bool:
        if self.base == "nop":
            return True
        # Common assembler-generated alignment filler: xchg %ax,%ax etc. and
        # "mov %reg,%reg" / "lea 0(%reg),%reg" forms count as effective nops.
        if self.base == "xchg" and len(self.operands) == 2:
            a, b = self.operands
            return (isinstance(a, RegisterOperand)
                    and isinstance(b, RegisterOperand) and a.reg == b.reg)
        return False

    @property
    def is_indirect_branch(self) -> bool:
        if self.base not in ("jmp", "call"):
            return False
        target = self.branch_target_operand()
        if isinstance(target, RegisterOperand):
            return True
        return isinstance(target, Memory)

    def branch_target_operand(self) -> Optional[Operand]:
        """The target operand of a jump/call, else None."""
        if self.base in ("jmp", "j", "call") and self.operands:
            return self.operands[0]
        return None

    def branch_target_label(self) -> Optional[str]:
        """The label name targeted by a direct jump/call, else None."""
        target = self.branch_target_operand()
        if isinstance(target, LabelRef):
            return target.name
        return None

    @property
    def has_memory_operand(self) -> bool:
        return any(isinstance(op, Memory) for op in self.operands)

    def memory_operand(self) -> Optional[Memory]:
        for op in self.operands:
            if isinstance(op, Memory):
                return op
        return None

    @property
    def reads_memory(self) -> bool:
        """True if the instruction loads from its memory operand.

        ``lea`` computes an address without touching memory; prefetches are
        hints.  For everything else a memory *source* (or a read-modify-write
        memory destination) counts as a read.
        """
        if not self.has_memory_operand or self.base == "lea":
            return False
        if self.base.startswith("prefetch"):
            return False
        if self.base in ("mov", "movss", "movsd", "movaps", "movups",
                         "movsx", "movzx", "movabs", "movd"):
            # Plain moves read memory only when memory is the source.
            return isinstance(self.operands[0], Memory) if self.operands else False
        if self.base == "push":
            return isinstance(self.operands[0], Memory)
        if self.base == "pop":
            return False
        return True

    @property
    def writes_memory(self) -> bool:
        if not self.has_memory_operand or self.base == "lea":
            return False
        if self.base.startswith("prefetch"):
            return False
        if self.base in ("cmp", "test", "ucomiss", "ucomisd", "push", "bt"):
            return False
        return isinstance(self.dest, Memory)

    # ---- effective width --------------------------------------------------

    def effective_width(self) -> Optional[int]:
        """Operand width in bits: mnemonic suffix, else register operand."""
        if self.width is not None:
            return self.width
        for op in reversed(self.operands):
            if isinstance(op, RegisterOperand) and op.reg.reg_class == "gp":
                return op.reg.width
        return None

    # ---- misc ---------------------------------------------------------------

    def register_operands(self) -> List[Register]:
        """All registers appearing anywhere in the operand list."""
        regs: List[Register] = []
        for op in self.operands:
            if isinstance(op, RegisterOperand):
                regs.append(op.reg)
            elif isinstance(op, Memory):
                if op.base is not None:
                    regs.append(op.base)
                if op.index is not None:
                    regs.append(op.index)
        return regs

    def clone(self) -> "Instruction":
        new = Instruction(self.mnemonic, list(self.operands),
                          list(self.prefixes))
        new.encoding = self.encoding
        new.address = self.address
        new._cached_encoding = self._cached_encoding
        new._symdep = self._symdep
        new._effects = self._effects
        return new

    def __str__(self) -> str:
        prefix = " ".join(self.prefixes)
        ops = ", ".join(str(op) for op in self.operands)
        body = ("%s %s" % (self.mnemonic, ops)) if ops else self.mnemonic
        return ("%s %s" % (prefix, body)) if prefix else body

    def __repr__(self) -> str:
        return "Instruction(%s)" % str(self)


def make(mnemonic: str, *operands: Operand) -> Instruction:
    """Convenience constructor: ``make("addl", Immediate(1), reg("eax"))``."""
    return Instruction(mnemonic, list(operands))


def reg(name: str, indirect: bool = False) -> RegisterOperand:
    from repro.x86.registers import get_register
    return RegisterOperand(get_register(name), indirect=indirect)


def imm(value: int) -> Immediate:
    return Immediate(value)


def mem(disp: int = 0, base: Optional[str] = None, index: Optional[str] = None,
        scale: int = 1, symbol: Optional[str] = None) -> Memory:
    from repro.x86.registers import get_register
    return Memory(
        disp=disp,
        base=get_register(base) if base else None,
        index=get_register(index) if index else None,
        scale=scale,
        symbol=symbol,
    )


def label(name: str) -> LabelRef:
    return LabelRef(name)
