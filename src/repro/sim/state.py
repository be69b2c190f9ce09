"""Architectural machine state: register file and RFLAGS.

General-purpose registers are stored as 64-bit unsigned values keyed by
alias group, with width-correct partial access semantics (32-bit writes
zero-extend to 64 bits; 8/16-bit writes merge; ``ah``-family registers hit
bits 8..15).  XMM registers are 128-bit unsigned integers.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.x86.flags import ALL_FLAGS
from repro.x86.registers import GP_GROUPS, Register

MASK64 = (1 << 64) - 1


def _mask(width: int) -> int:
    return (1 << width) - 1


class Flags:
    """The six arithmetic RFLAGS bits, one attribute each.

    Compiled interpreter steps store each flag as a plain attribute
    (``flags.ZF = ...``); ``get``, ``set`` and ``snapshot`` address them
    by name.
    """

    __slots__ = tuple(sorted(ALL_FLAGS))

    def __init__(self) -> None:
        for flag in self.__slots__:
            setattr(self, flag, False)

    def get(self, flag: str) -> bool:
        return getattr(self, flag)

    def set(self, flag: str, value: bool) -> None:
        setattr(self, flag, bool(value))

    def snapshot(self) -> Dict[str, bool]:
        return {flag: getattr(self, flag) for flag in self.__slots__}

    def __repr__(self) -> str:
        on = [f for f in self.__slots__ if getattr(self, f)]
        return "<flags %s>" % (" ".join(on) or "-")


class MachineState:
    """Registers + flags (memory lives in SparseMemory)."""

    __slots__ = ("gp", "xmm", "flags", "rip")

    def __init__(self) -> None:
        self.gp: Dict[str, int] = {g: 0 for g in GP_GROUPS}
        self.xmm: Dict[str, int] = {"xmm%d" % i: 0 for i in range(16)}
        self.flags = Flags()
        self.rip = 0

    # ---- GP access ----------------------------------------------------------

    def read_reg(self, reg: Register) -> int:
        """Unsigned value of the register at its own width."""
        if reg.reg_class == "xmm":
            return self.xmm[reg.group] & _mask(128)
        value = self.gp[reg.group]
        if reg.high8:
            return (value >> 8) & 0xFF
        return value & _mask(reg.width)

    def write_reg(self, reg: Register, value: int) -> None:
        if reg.reg_class == "xmm":
            self.xmm[reg.group] = value & _mask(128)
            return
        group = reg.group
        if reg.width == 64:
            self.gp[group] = value & MASK64
        elif reg.width == 32:
            # x86-64 rule: 32-bit writes zero-extend into the full register.
            self.gp[group] = value & 0xFFFFFFFF
        elif reg.width == 16:
            self.gp[group] = (self.gp[group] & ~0xFFFF) | (value & 0xFFFF)
        elif reg.high8:
            self.gp[group] = (self.gp[group] & ~0xFF00) \
                | ((value & 0xFF) << 8)
        else:
            self.gp[group] = (self.gp[group] & ~0xFF) | (value & 0xFF)

    def snapshot(self) -> Dict[str, int]:
        """Full register-file snapshot (the PMU-sample payload)."""
        snap = dict(self.gp)
        snap.update(self.xmm)
        snap["rip"] = self.rip
        return snap

    def diff(self, other: "MachineState",
             ignore: Set[str] = frozenset()) -> Dict[str, tuple]:
        """Registers whose values differ from *other*."""
        delta = {}
        for group, value in self.gp.items():
            if group in ignore:
                continue
            if other.gp[group] != value:
                delta[group] = (value, other.gp[group])
        for group, value in self.xmm.items():
            if group in ignore:
                continue
            if other.xmm[group] != value:
                delta[group] = (value, other.xmm[group])
        return delta
