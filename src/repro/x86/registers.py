"""x86-64 register model.

Registers are identified by name (without the AT&T ``%`` sigil).  Each
register knows its width in bits, its hardware encoding number, and the
*alias group* it belongs to: ``rax``, ``eax``, ``ax``, ``al`` and ``ah`` all
alias the same physical register.  Data-flow analyses and the interpreter use
alias groups so a write to ``%eax`` is seen as killing ``%rax``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

GP_CLASS = "gp"
XMM_CLASS = "xmm"
IP_CLASS = "ip"
FLAGS_CLASS = "flags"


@dataclass(frozen=True)
class Register:
    """A single architectural register name (one width of a physical reg)."""

    name: str          # e.g. "eax", "r8d", "xmm3"
    width: int         # bits: 8, 16, 32, 64, 128
    number: int        # hardware encoding number 0..15
    reg_class: str     # GP_CLASS, XMM_CLASS, IP_CLASS or FLAGS_CLASS
    group: str         # alias-group key, e.g. "rax", "r8", "xmm3"
    high8: bool = False  # True for ah/bh/ch/dh

    def __str__(self) -> str:
        return "%" + self.name

    @property
    def is_new_low8(self) -> bool:
        """True for spl/bpl/sil/dil, which need an empty REX to encode."""
        return self.name in ("spl", "bpl", "sil", "dil")


_BASE64 = ["rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi"]
_BASE32 = ["eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"]
_BASE16 = ["ax", "cx", "dx", "bx", "sp", "bp", "si", "di"]
_BASE8 = ["al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil"]
_HIGH8 = {"ah": 0, "ch": 1, "dh": 2, "bh": 3}

_REGISTERS: Dict[str, Register] = {}


def _add(reg: Register) -> None:
    _REGISTERS[reg.name] = reg


def _build_tables() -> None:
    for num in range(8):
        group = _BASE64[num]
        _add(Register(_BASE64[num], 64, num, GP_CLASS, group))
        _add(Register(_BASE32[num], 32, num, GP_CLASS, group))
        _add(Register(_BASE16[num], 16, num, GP_CLASS, group))
        _add(Register(_BASE8[num], 8, num, GP_CLASS, group))
    for name, num in _HIGH8.items():
        _add(Register(name, 8, num + 4, GP_CLASS, _BASE64[num], high8=True))
    for num in range(8, 16):
        group = "r%d" % num
        _add(Register("r%d" % num, 64, num, GP_CLASS, group))
        _add(Register("r%dd" % num, 32, num, GP_CLASS, group))
        _add(Register("r%dw" % num, 16, num, GP_CLASS, group))
        _add(Register("r%db" % num, 8, num, GP_CLASS, group))
    for num in range(16):
        name = "xmm%d" % num
        _add(Register(name, 128, num, XMM_CLASS, name))
    _add(Register("rip", 64, 5, IP_CLASS, "rip"))
    _add(Register("eip", 32, 5, IP_CLASS, "rip"))
    _add(Register("rflags", 64, 0, FLAGS_CLASS, "rflags"))


_build_tables()


def get_register(name: str) -> Register:
    """Look up a register by name (no ``%`` sigil). Raises KeyError."""
    return _REGISTERS[name.lower()]


def is_register_name(name: str) -> bool:
    return name.lower() in _REGISTERS


def alias_group(name: str) -> str:
    """The alias-group key for a register name (e.g. ``eax`` -> ``rax``)."""
    return _REGISTERS[name.lower()].group


def registers_in_group(group: str) -> List[Register]:
    return [r for r in _REGISTERS.values() if r.group == group]


def gp_register(number: int, width: int) -> Register:
    """The GP register with a given hardware number and width.

    For width 8 the REX-encodable low byte (``spl`` family) is returned,
    never ``ah``..``dh``.
    """
    for reg in _REGISTERS.values():
        if (reg.reg_class == GP_CLASS and reg.number == number
                and reg.width == width and not reg.high8):
            return reg
    raise KeyError((number, width))


def widen(reg: Register, width: int) -> Register:
    """The same physical register at a different width."""
    if reg.reg_class != GP_CLASS:
        raise ValueError("can only widen GP registers: %s" % reg.name)
    return gp_register(reg.number if not reg.high8 else reg.number - 4, width)


#: Alias groups of all 16 GP registers, in hardware-number order.
GP_GROUPS: Tuple[str, ...] = tuple(_BASE64) + tuple("r%d" % n for n in range(8, 16))

#: Every alias group: GP, SSE, the instruction pointer and RFLAGS.
ALL_GROUPS: Tuple[str, ...] = tuple(
    dict.fromkeys(reg.group for reg in _REGISTERS.values()))

#: Groups of registers that are callee-saved under the SysV ABI.
CALLEE_SAVED: FrozenSet[str] = frozenset(
    ["rbx", "rsp", "rbp", "r12", "r13", "r14", "r15"])

#: Allocatable scratch groups, handy for workload/sequence generation.
CALLER_SAVED: FrozenSet[str] = frozenset(
    ["rax", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11"])


def parse_width_suffix(suffix: str) -> Optional[int]:
    """Width in bits for an AT&T mnemonic size suffix letter."""
    return {"b": 8, "w": 16, "l": 32, "q": 64}.get(suffix)


def suffix_for_width(width: int) -> str:
    return {8: "b", 16: "w", 32: "l", 64: "q"}[width]
