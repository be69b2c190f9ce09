"""REDMOV — redundant memory-access removal (paper §III.B.c).

Because of phase-ordering and register allocation in GCC::

    movq 24(%rsp), %rdx
    movq 24(%rsp), %rcx     # same load again

The second load is rewritten to reuse the first register::

    movq 24(%rsp), %rdx
    movq %rdx, %rcx

which is two bytes shorter and performs one explicit memory access instead
of two.  Conditions: identical memory operands and widths, and between the
two loads no store/barrier, no redefinition of the first destination, and
no redefinition of the address registers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.ir.entries import InstructionEntry
from repro.passes.base import MaoFunctionPass
from repro.passes.manager import register_func_pass
from repro.passes.util import memory_address_groups, same_memory_operand
from repro.x86.instruction import Instruction
from repro.x86.operands import Memory, RegisterOperand
from repro.x86.sideeffects import effects


def _is_plain_load(insn: Instruction) -> bool:
    return (insn.base == "mov" and len(insn.operands) == 2
            and isinstance(insn.operands[0], Memory)
            and isinstance(insn.operands[1], RegisterOperand)
            and not insn.operands[0].indirect)


@register_func_pass("REDMOV")
class RedundantMemAccessPass(MaoFunctionPass):
    """Rewrite repeated loads of the same address to register moves."""

    OPTIONS = {"count_only": False, "window": 8}
    KEEPS_CFG = True

    def Go(self) -> bool:
        window: int = int(self.option("window"))
        cfg = self.cfg()
        for block in cfg.blocks:
            # (entry, mem, dest_group) of loads still valid for reuse.
            available: List[Tuple[InstructionEntry, Memory, str]] = []
            for entry in block.entries:
                insn = entry.insn
                if _is_plain_load(insn):
                    mem_op = insn.operands[0]
                    dst: RegisterOperand = insn.operands[1]
                    match = self._find_match(available, insn, mem_op)
                    if match is not None:
                        first_dst = match
                        self.bump("rewritten")
                        self.Trace(2, "reusing %%%s for %s",
                                   first_dst.reg.name, insn)
                        if not self.option("count_only"):
                            new = Instruction(insn.mnemonic,
                                              [RegisterOperand(first_dst.reg),
                                               dst], insn.prefixes)
                            new.address = insn.address
                            entry.insn = new
                        self._invalidate(available, insn)
                        if not self.option("count_only"):
                            # The rewritten mov is itself a reusable copy
                            # only if it still loads; it doesn't — drop it
                            # from the window but keep the original live.
                            continue
                    self._invalidate(available, insn)
                    if dst.reg.group not in memory_address_groups(mem_op):
                        available.append((entry, mem_op, dst.reg.group))
                        if len(available) > window:
                            available.pop(0)
                    continue
                self._step(available, insn)
        return True

    def _find_match(self, available, insn: Instruction,
                    mem_op: Memory) -> Optional[RegisterOperand]:
        width = insn.effective_width()
        for entry, prev_mem, group in available:
            prev_insn = entry.insn
            if not same_memory_operand(prev_mem, mem_op):
                continue
            if prev_insn.effective_width() != width:
                continue
            dst = prev_insn.operands[1]
            if isinstance(dst, RegisterOperand):
                return dst
        return None

    def _invalidate(self, available, insn: Instruction,
                    skip_last: bool = False) -> None:
        """Drop window entries killed by *insn*'s register defs."""
        defs = effects(insn).defs
        keep = []
        items = available[:-1] if skip_last else list(available)
        tail = available[-1:] if skip_last else []
        for item in items:
            entry, mem_op, group = item
            if group in defs:
                continue
            if any(g in defs for g in memory_address_groups(mem_op)):
                continue
            keep.append(item)
        available[:] = keep + tail

    def _step(self, available, insn: Instruction) -> None:
        """Process a non-load instruction: stores/calls clear the window."""
        if effects(insn).barrier or insn.writes_memory:
            available.clear()
            return
        self._invalidate(available, insn)
