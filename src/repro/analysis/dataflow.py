"""Simple data-flow apparatus: reaching definitions and liveness.

The paper: "MAO offers a simple data flow apparatus, but no alias or
points-to analysis.  Since many assembly instructions work on registers,
this data flow mechanism is powerful and solves many otherwise difficult to
reason about problems."

Locations are register *alias groups* (``eax`` and ``rax`` are one location)
plus individual RFLAGS bits written ``F:ZF`` etc., so the same machinery
serves register analyses and the precise condition-code reasoning behind
redundant-test removal.  Each instruction's locations come from its
side-effect record (:func:`repro.x86.sideeffects.effects`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import CFG, BasicBlock
from repro.ir.entries import InstructionEntry
from repro.x86.sideeffects import FLAG_PREFIX, effects


class ReachingDefinitions:
    """Reaching definitions, answered on demand by a backward walk.

    Tier-2 jump-table resolution asks one to three (jump, register)
    questions per jump table, so nothing is solved up front: construction
    only records where each entry sits.  A query scans backward from *at*
    in its own block; failing a definition there, it walks predecessors
    depth-first, scanning each block once from its end and stopping each
    path at the nearest definition of the location.  A back edge into the
    query block scans that block in full.  The answer is the least
    solution of the classic forward equations, so a definition-free path
    from the function entry contributes nothing.
    """

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self._position: Dict[int, Tuple[BasicBlock, int]] = {}
        for block in cfg.blocks:
            for index, entry in enumerate(block.entries):
                self._position[id(entry)] = (block, index)

    def reaching_defs(self, at: InstructionEntry,
                      loc: str) -> List[InstructionEntry]:
        """Definitions of *loc* that reach the program point just before
        *at* (block-local definitions shadow incoming ones)."""
        where = self._position.get(id(at))
        if where is None:
            return []
        block, index = where
        local = _last_def(block.entries[:index], loc)
        if local is not None:
            return [local]
        found: List[InstructionEntry] = []
        seen: Set[int] = set()
        stack = list(block.predecessors)
        while stack:
            pred = stack.pop()
            if pred.index in seen:
                continue
            seen.add(pred.index)
            entry = _last_def(pred.entries, loc)
            if entry is not None:
                found.append(entry)
            else:
                stack.extend(pred.predecessors)
        return found

    def unique_reaching_def(self, at: InstructionEntry,
                            loc: str) -> Optional[InstructionEntry]:
        defs = self.reaching_defs(at, loc)
        if len(defs) == 1:
            return defs[0]
        return None


def _last_def(entries: List[InstructionEntry],
              loc: str) -> Optional[InstructionEntry]:
    """The last of *entries* that defines *loc*, if any."""
    for entry in reversed(entries):
        if loc in effects(entry.insn).loc_defs:
            return entry
    return None


class Liveness:
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
