"""ADDRSIM — forward/backward instruction simulation (paper §III.E.m).

The RACEZ sampling-based race detector needs memory addresses.  Each PMU
sample delivers one instruction address plus the register file.  "Since the
value of %rax is not being killed by this instruction ... we can use this
register's content to compute the address used in instruction IP2 via
simple forward simulation.  Similarly ... we can do a backward simulation."

Given a sample (instruction, register snapshot), the simulator walks
forward and backward within the basic block, tracking which register
values are still known (or can be *inverted*, e.g. across ``add $imm``),
and computes effective addresses of neighbouring memory instructions.
The paper reports recovered-address factors of 4.1x-6.3x over raw samples;
``benchmarks/bench_address_sim.py`` reproduces that measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir.entries import InstructionEntry, LabelEntry, MaoEntry
from repro.passes.base import MaoFunctionPass
from repro.passes.manager import register_func_pass
from repro.x86.instruction import Instruction
from repro.x86.operands import Immediate, Memory, RegisterOperand
from repro.x86.sideeffects import effects

MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RecoveredAddress:
    entry: InstructionEntry
    address: int
    direction: str      # "sample", "forward", "backward"


def _memory_ea(mem: Memory, known: Dict[str, int],
               symtab: Dict[str, int]) -> Optional[int]:
    """Effective address if every input register's value is known."""
    total = mem.disp
    if mem.symbol is not None:
        value = symtab.get(mem.symbol)
        if value is None:
            return None
        total += value
    if mem.is_rip_relative:
        return total & MASK64 if mem.symbol is not None else None
    if mem.base is not None:
        if mem.base.group not in known:
            return None
        total += known[mem.base.group]
    if mem.index is not None:
        if mem.index.group not in known:
            return None
        total += known[mem.index.group] * mem.scale
    return total & MASK64


def _forward_update(known: Dict[str, int], insn: Instruction) -> None:
    """Advance the known-value map across one executed instruction."""
    src = insn.operands[0] if insn.operands else None
    dst = insn.dest

    computed: Optional[Tuple[str, int]] = None
    if isinstance(dst, RegisterOperand) and dst.reg.width in (32, 64):
        group = dst.reg.group
        mask = (1 << dst.reg.width) - 1
        if insn.base in ("mov", "movabs") and isinstance(src, Immediate) \
                and src.symbol is None:
            computed = (group, src.value & mask)
        elif insn.base == "mov" and isinstance(src, RegisterOperand) \
                and src.reg.group in known and src.reg.width == dst.reg.width:
            computed = (group, known[src.reg.group] & mask)
        elif insn.base in ("add", "sub") and isinstance(src, Immediate) \
                and src.symbol is None and group in known:
            delta = src.value if insn.base == "add" else -src.value
            computed = (group, (known[group] + delta) & mask)
        elif insn.base == "inc" and group in known:
            computed = (group, (known[group] + 1) & mask)
        elif insn.base == "dec" and group in known:
            computed = (group, (known[group] - 1) & mask)
        elif insn.base == "lea" and isinstance(src, Memory):
            ea = _memory_ea(src, known, {})
            if ea is not None:
                computed = (group, ea & mask)

    for group in effects(insn).defs:
        known.pop(group, None)
    if computed is not None:
        known[computed[0]] = computed[1]


def _backward_update(known: Dict[str, int], insn: Instruction) -> None:
    """Rewind the known-value map across one instruction (inversion)."""
    src = insn.operands[0] if insn.operands else None
    dst = insn.dest

    inverted: Optional[Tuple[str, int]] = None
    if isinstance(dst, RegisterOperand) and dst.reg.width in (32, 64):
        group = dst.reg.group
        mask = (1 << dst.reg.width) - 1
        if insn.base in ("add", "sub") and isinstance(src, Immediate) \
                and src.symbol is None and group in known:
            delta = src.value if insn.base == "add" else -src.value
            inverted = (group, (known[group] - delta) & mask)
        elif insn.base == "inc" and group in known:
            inverted = (group, (known[group] - 1) & mask)
        elif insn.base == "dec" and group in known:
            inverted = (group, (known[group] + 1) & mask)

    for group in effects(insn).defs:
        known.pop(group, None)
    if inverted is not None:
        known[inverted[0]] = inverted[1]


def _block_entries(entry: InstructionEntry) -> Tuple[List[InstructionEntry],
                                                     int]:
    """The straight-line run of instructions around *entry* and its index."""
    first = entry
    node: Optional[MaoEntry] = entry.prev
    while node is not None:
        if isinstance(node, LabelEntry):
            break
        if isinstance(node, InstructionEntry):
            if node.insn.is_control_transfer:
                break
            first = node
        node = node.prev

    run: List[InstructionEntry] = []
    index = 0
    node = first
    while node is not None:
        if isinstance(node, InstructionEntry):
            if node is entry:
                index = len(run)
            run.append(node)
            if node.insn.is_control_transfer:
                break
        elif isinstance(node, LabelEntry) and run:
            break
        node = node.next
    return run, index


def recover_addresses(entry: InstructionEntry,
                      snapshot: Dict[str, int],
                      symtab: Optional[Dict[str, int]] = None
                      ) -> List[RecoveredAddress]:
    """All effective addresses derivable from one PMU sample."""
    symtab = symtab or {}
    run, index = _block_entries(entry)
    recovered: List[RecoveredAddress] = []

    def note(node: InstructionEntry, known: Dict[str, int],
             direction: str) -> None:
        insn = node.insn
        mem = insn.memory_operand()
        if mem is None or insn.base == "lea":
            return
        ea = _memory_ea(mem, known, symtab)
        if ea is not None:
            recovered.append(RecoveredAddress(node, ea, direction))

    # The sampled instruction itself.
    known: Dict[str, int] = dict(snapshot)
    note(entry, known, "sample")

    # Forward simulation.
    forward_known = dict(snapshot)
    for node in run[index:]:
        if node is not entry:
            note(node, forward_known, "forward")
        _forward_update(forward_known, node.insn)
        if not forward_known:
            break

    # Backward simulation.
    backward_known = dict(snapshot)
    for node in reversed(run[:index]):
        _backward_update(backward_known, node.insn)
        if not backward_known:
            break
        note(node, backward_known, "backward")

    return recovered


@register_func_pass("ADDRSIM")
class AddressSimulationPass(MaoFunctionPass):
    """Report how many addresses the function's shape would let a sample
    recover (an analysis-only pass; the real work is in
    :func:`recover_addresses`, driven with actual samples by the bench)."""

    OPTIONS = {}

    def Go(self) -> bool:
        for entry in self.function.entries():
            if isinstance(entry, InstructionEntry) \
                    and entry.insn.has_memory_operand \
                    and entry.insn.base != "lea":
                self.bump("memory_sites")
        return True
