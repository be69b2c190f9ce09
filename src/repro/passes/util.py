"""Shared helpers for optimization passes."""

from __future__ import annotations

from typing import List

from repro.x86.instruction import Instruction, make, mem
from repro.x86.operands import Memory


def make_nop() -> Instruction:
    """A single-byte NOP."""
    return Instruction("nop")


def make_nop5() -> Instruction:
    """A 5-byte NOP: ``nopl 64(%rax,%rax,1)`` -> 0f 1f 44 00 40.

    (The encoder always picks the shortest displacement form, so a zero
    displacement would encode in 4 bytes; the disp8 form pins 5.)"""
    return make("nopl", mem(64, "rax", "rax", 1))


def same_memory_operand(a: Memory, b: Memory) -> bool:
    """Textual/structural equality of two memory operands."""
    return (a.disp == b.disp and a.symbol == b.symbol
            and a.scale == b.scale
            and (a.base.group if a.base else None)
            == (b.base.group if b.base else None)
            and (a.index.group if a.index else None)
            == (b.index.group if b.index else None))


def memory_address_groups(mem_op: Memory) -> List[str]:
    groups = []
    if mem_op.base is not None and mem_op.base.group != "rip":
        groups.append(mem_op.base.group)
    if mem_op.index is not None:
        groups.append(mem_op.index.group)
    return groups
