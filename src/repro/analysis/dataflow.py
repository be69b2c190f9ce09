"""Simple data-flow apparatus: reaching definitions and flag liveness.

The paper: "MAO offers a simple data flow apparatus, but no alias or
points-to analysis.  Since many assembly instructions work on registers,
this data flow mechanism is powerful and solves many otherwise difficult to
reason about problems."

Both analyses answer one question at a time by walking the CFG from the
point asked about; neither solves a whole-function fixpoint.  Reaching
definitions walks predecessors backward for a register *alias group*
(``eax`` and ``rax`` are one location) or an RFLAGS bit written ``F:ZF``;
tier-2 jump-table resolution asks it.  Liveness walks successors forward
for the RFLAGS bits, the precise condition-code reasoning behind
redundant-test removal and the flag checks of ADDADD and CONSTFOLD.  Each
instruction's reads and writes come from its side-effect record
(:func:`repro.x86.sideeffects.effects`).  The fixpoints both replaced live
on in ``tests/analysis/`` as their differential oracles.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import CFG, BasicBlock
from repro.ir.entries import InstructionEntry
from repro.x86.flags import ALL_FLAGS
from repro.x86.sideeffects import effects


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
    """Flag liveness, answered on demand by a forward walk.

    The passes ask which flags are live right after one instruction, a
    few times per function, so nothing is solved up front: construction
    records nothing.  A query scans the rest of the block after *entry*,
    then walks successors depth-first carrying only the flags still
    unresolved: a flag read before it is written is live, and a flag
    written first is resolved on that path.  A block is scanned again
    only for flags not yet explored from its start, so a back edge into
    the query block scans it in full.  Flags are dead at the function's
    exit and past an unresolved indirect jump.  The answer is the least
    solution of the classic backward equations.
    """

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg

    def flags_live_after(self, block: BasicBlock,
                         entry: InstructionEntry) -> Set[str]:
        """Flag bits (``ZF``, ...) live immediately after *entry*."""
        entries = block.entries
        for index, node in enumerate(entries):
            if node is entry:
                break
        else:
            raise ValueError("entry not in block")
        live: Set[str] = set()
        unresolved = _scan(entries[index + 1:], ALL_FLAGS, live)
        explored: Dict[int, Set[str]] = {}
        stack = [(succ, unresolved) for succ in block.successors]
        while stack:
            node, flags = stack.pop()
            if node is self.cfg.exit:
                continue
            seen = explored.setdefault(node.index, set())
            flags = flags - seen - live
            if not flags:
                continue
            seen |= flags
            rest = _scan(node.entries, flags, live)
            if rest:
                stack.extend((succ, rest) for succ in node.successors)
        return live


def _scan(entries: List[InstructionEntry], flags: AbstractSet[str],
          live: Set[str]) -> Set[str]:
    """Walk *entries* forward with *flags* unresolved: add each one read
    before it is written to *live*, and return those neither read nor
    written."""
    unresolved = set(flags)
    for entry in entries:
        record = effects(entry.insn)
        read = unresolved & record.flags_read
        if read:
            live |= read
            unresolved -= read
        unresolved -= record.flags_clobbered
        if not unresolved:
            break
    return unresolved
