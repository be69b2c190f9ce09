"""REDTEST — redundant test-instruction removal (paper §III.B.b).

GCC "does not model the x86/64 specific condition codes well", emitting::

    subl  $16, %r15d
    testl %r15d, %r15d     # redundant: subl already set the flags

``test r, r`` sets ZF/SF/PF from ``r`` and clears CF/OF.  It is redundant
after an instruction *P* that produced ``r`` if, for every flag read before
the next flag write, the flag's value after *P* equals its value after the
test:

* ZF/SF/PF match whenever *P*'s ``flags_result`` covers them (arithmetic
  and logic results);
* CF/OF additionally match when *P* clears them too (and/or/xor/test) —
  after an add/sub they generally differ, so a consumer reading CF or OF
  blocks removal (this is the precise condition-code modelling the paper
  credits MAO with).

Constraints checked: *P* defines ``r`` as its destination, nothing between
*P* and the test redefines ``r`` or writes flags, and every flag live after
the test is in the equivalence set (flag-granular liveness across blocks).
"""

from __future__ import annotations

from typing import Optional, Set

from repro.analysis.dataflow import Liveness
from repro.passes.base import MaoFunctionPass
from repro.passes.manager import register_func_pass
from repro.x86.instruction import Instruction
from repro.x86.operands import RegisterOperand
from repro.x86.sideeffects import effects


def is_self_test(insn: Instruction) -> bool:
    if insn.base != "test" or len(insn.operands) != 2:
        return False
    src, dst = insn.operands
    return (isinstance(src, RegisterOperand)
            and isinstance(dst, RegisterOperand)
            and src.reg.name == dst.reg.name)


def _equivalence_set(producer: Instruction,
                     width_matches: bool) -> Set[str]:
    """Flags equal after `producer` vs after `test r, r`."""
    if not width_matches:
        return set()
    record = effects(producer)
    equal = set(record.flags_result)
    # test clears CF and OF; if the producer also guarantees zeros there,
    # those flags agree as well.
    equal |= record.flags_cleared & {"CF", "OF"}
    # Flags the producer leaves undefined can't be relied on.
    equal -= record.flags_undefined
    return equal


@register_func_pass("REDTEST")
class RedundantTestPass(MaoFunctionPass):
    """Remove ``test r, r`` made redundant by a preceding flag setter."""

    OPTIONS = {"count_only": False}
    KEEPS_CFG = True

    def Go(self) -> bool:
        cfg = self.cfg()
        liveness = Liveness(cfg)

        for block in cfg.blocks:
            producer: Optional[Instruction] = None   # last flags writer
            producer_valid = False                   # r unmodified since
            for entry in list(block.entries):
                insn = entry.insn
                if is_self_test(insn):
                    self.bump("tests")
                    reg = insn.operands[0].reg
                    if producer is not None and producer_valid \
                            and self._defines(producer, reg.group):
                        width_ok = (producer.effective_width()
                                    == insn.effective_width())
                        equal = _equivalence_set(producer, width_ok)
                        live_flags = liveness.flags_live_after(block, entry)
                        if live_flags <= equal:
                            self.bump("removed")
                            self.Trace(2, "removing %s (after %s)",
                                       insn, producer)
                            if not self.option("count_only"):
                                # The producer stays: the block never
                                # empties.
                                block.entries.remove(entry)
                                self.unit.remove(entry)
                            continue
                record = effects(insn)
                if record.barrier:
                    producer = None
                    producer_valid = False
                    continue
                if record.flags_clobbered:
                    producer = insn
                    producer_valid = True
                elif producer is not None and producer_valid:
                    # Redefining the tested register between the producer
                    # and the test invalidates the pattern.
                    producer_group = self._producer_group(producer)
                    if producer_group is not None \
                            and producer_group in record.defs:
                        producer_valid = False
        return True

    @staticmethod
    def _defines(insn: Instruction, group: str) -> bool:
        dst = insn.dest
        return (isinstance(dst, RegisterOperand)
                and dst.reg.group == group
                and bool(effects(insn).flags_result))

    @staticmethod
    def _producer_group(insn: Instruction) -> Optional[str]:
        dst = insn.dest
        if isinstance(dst, RegisterOperand):
            return dst.reg.group
        return None
