"""Whole-function liveness fixpoint: the differential oracle.

``repro.analysis.dataflow.Liveness`` answers each flag question with a
forward walk.  This is the classic backward analysis it replaced: use/def
sets over every register group and flag bit of the function, iterated to
the fixpoint on construction.  Its ``flags_live_after`` must agree with
the walk at every instruction; its register answers back the register
liveness tests.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.analysis.cfg import CFG, BasicBlock
from repro.ir.entries import InstructionEntry
from repro.x86.sideeffects import FLAG_PREFIX, effects


class FixpointLiveness:
    """Backward liveness over register groups and flag bits."""

    def __init__(self, cfg: CFG,
                 exit_live: Optional[Set[str]] = None) -> None:
        self.cfg = cfg
        #: Locations assumed live at function exit (ABI: return registers
        #: and callee-saved state).  Flags are dead at exit.
        if exit_live is None:
            exit_live = {"rax", "rdx", "rsp", "rbp", "rbx",
                         "r12", "r13", "r14", "r15",
                         "xmm0", "xmm1"}
        self.exit_live = set(exit_live)
        self._live_in: Dict[int, Set[str]] = {}
        self._live_out: Dict[int, Set[str]] = {}
        self._compute()

    def _compute(self) -> None:
        cfg = self.cfg
        use: Dict[int, Set[str]] = {}
        defs: Dict[int, Set[str]] = {}
        for block in cfg.blocks:
            block_use: Set[str] = set()
            block_def: Set[str] = set()
            for entry in block.entries:
                record = effects(entry.insn)
                block_use |= record.loc_uses - block_def
                block_def |= record.loc_defs
            use[block.index] = block_use
            defs[block.index] = block_def

        live_in: Dict[int, Set[str]] = {b.index: set() for b in cfg.blocks}
        live_out: Dict[int, Set[str]] = {b.index: set() for b in cfg.blocks}

        changed = True
        while changed:
            changed = False
            for block in reversed(cfg.blocks):
                new_out: Set[str] = set()
                for succ in block.successors:
                    if succ is self.cfg.exit:
                        new_out |= self.exit_live
                    else:
                        new_out |= live_in.get(succ.index, set())
                if block.has_unresolved_exit:
                    # Unknown targets: everything may be live.
                    new_out |= self.exit_live
                new_in = use[block.index] | (new_out - defs[block.index])
                if new_out != live_out[block.index] \
                        or new_in != live_in[block.index]:
                    live_out[block.index] = new_out
                    live_in[block.index] = new_in
                    changed = True
        self._live_in = live_in
        self._live_out = live_out

    def live_in(self, block: BasicBlock) -> Set[str]:
        return set(self._live_in.get(block.index, set()))

    def live_out(self, block: BasicBlock) -> Set[str]:
        return set(self._live_out.get(block.index, set()))

    def live_after(self, block: BasicBlock,
                   entry: InstructionEntry) -> Set[str]:
        """Locations live immediately after *entry* inside *block*."""
        live = self.live_out(block)
        found = False
        for node in reversed(block.entries):
            if node is entry:
                found = True
                break
            record = effects(node.insn)
            live -= record.loc_defs
            live |= record.loc_uses
        if not found:
            raise ValueError("entry not in block")
        return live

    def flags_live_after(self, block: BasicBlock,
                         entry: InstructionEntry) -> Set[str]:
        """Flag bits (``ZF``, ...) live immediately after *entry*."""
        return {loc[len(FLAG_PREFIX):]
                for loc in self.live_after(block, entry)
                if loc.startswith(FLAG_PREFIX)}

    def is_dead_after(self, block: BasicBlock, entry: InstructionEntry,
                      loc: str) -> bool:
        return loc not in self.live_after(block, entry)
