"""Whole-function reaching-definitions fixpoint: the differential oracle.

``repro.analysis.dataflow.ReachingDefinitions`` answers each query with a
backward walk.  This is the classic forward may-analysis it replaced:
gen/kill sets over every (entry, location) definition site of the
function, iterated to the least fixpoint on construction.  It answers
the same two queries and must agree with the walk on every one.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import CFG, BasicBlock
from repro.ir.entries import InstructionEntry
from repro.x86.sideeffects import effects


class FixpointReachingDefinitions:
    """Classic forward may-analysis over (location, defining entry) pairs."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        # Definition sites, one id per (entry, location).
        self._sites: List[Tuple[InstructionEntry, str]] = []
        self._site_ids: Dict[Tuple[int, str], int] = {}
        self._entry_block: Dict[int, BasicBlock] = {}
        self._in: Dict[int, Set[int]] = {}
        self._out: Dict[int, Set[int]] = {}
        self._defs_by_loc: Dict[str, Set[int]] = defaultdict(set)
        self._compute()

    def _site(self, entry: InstructionEntry, loc: str) -> int:
        key = (id(entry), loc)
        if key not in self._site_ids:
            self._site_ids[key] = len(self._sites)
            self._sites.append((entry, loc))
            self._defs_by_loc[loc].add(self._site_ids[key])
        return self._site_ids[key]

    def _compute(self) -> None:
        cfg = self.cfg
        gen: Dict[int, Set[int]] = {}
        kill_locs: Dict[int, Set[str]] = {}

        for block in cfg.blocks:
            block_gen: Dict[str, int] = {}
            locs_killed: Set[str] = set()
            for entry in block.entries:
                self._entry_block[id(entry)] = block
                for loc in effects(entry.insn).loc_defs:
                    block_gen[loc] = self._site(entry, loc)
                    locs_killed.add(loc)
            gen[block.index] = set(block_gen.values())
            kill_locs[block.index] = locs_killed

        in_sets: Dict[int, Set[int]] = {b.index: set() for b in cfg.blocks}
        out_sets: Dict[int, Set[int]] = {b.index: set() for b in cfg.blocks}

        changed = True
        while changed:
            changed = False
            for block in cfg.blocks:
                new_in: Set[int] = set()
                for pred in block.predecessors:
                    new_in |= out_sets.get(pred.index, set())
                killed = set()
                for loc in kill_locs[block.index]:
                    killed |= self._defs_by_loc[loc]
                new_out = gen[block.index] | (new_in - killed)
                if new_in != in_sets[block.index] \
                        or new_out != out_sets[block.index]:
                    in_sets[block.index] = new_in
                    out_sets[block.index] = new_out
                    changed = True
        self._in = in_sets
        self._out = out_sets

    def reaching_defs(self, at: InstructionEntry,
                      loc: str) -> List[InstructionEntry]:
        """Definitions of *loc* that reach the program point just before
        *at* (block-local definitions shadow incoming ones)."""
        block = self._entry_block.get(id(at))
        if block is None:
            return []
        live: Set[int] = {s for s in self._in.get(block.index, set())
                          if self._sites[s][1] == loc}
        for entry in block.entries:
            if entry is at:
                break
            defs = effects(entry.insn).loc_defs
            if loc in defs:
                live = {self._site(entry, loc)}
        return [self._sites[s][0] for s in live]

    def unique_reaching_def(self, at: InstructionEntry,
                            loc: str) -> Optional[InstructionEntry]:
        defs = self.reaching_defs(at, loc)
        if len(defs) == 1:
            return defs[0]
        return None
