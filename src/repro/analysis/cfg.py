"""Per-function control-flow graph.

Per the paper (§II): "MAO offers a per-function control-flow graph (CFG).
In the presence of indirect jumps, building this graph can be undecidable.
However, we rely on the fact that we handle compiler generated assembly
files and recognize a handful of patterns to handle indirect jumps properly,
e.g., to find jump tables.  If, for a function, a particular branch cannot
be resolved, the function gets flagged."

Two resolution tiers are implemented, matching the paper's account of the
246-out-of-320 incident:

1. *Base pattern*: the indirect jump's own operand names the jump table
   (``jmp *.Ltab(,%rax,8)``) — resolvable by looking at the table contents.
2. *Reaching-definitions pattern*: the table address was loaded into a
   register earlier (``lea .Ltab(%rip), %rdx`` ... ``jmp *%rax`` after
   ``movq (%rdx,%rcx,8), %rax``); resolved by chasing reaching definitions
   of the address registers.  This is the "single pattern" that took the
   unresolved count from 246/320 down to 4/320.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.ir.entries import DirectiveEntry, InstructionEntry, LabelEntry
from repro.ir.unit import Function, MaoUnit
from repro.x86.instruction import Instruction
from repro.x86.operands import Memory, RegisterOperand


class BasicBlock:
    """A maximal straight-line instruction sequence."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.labels: List[str] = []
        self.entries: List[InstructionEntry] = []
        self.successors: List["BasicBlock"] = []
        self.predecessors: List["BasicBlock"] = []
        #: True when this block ends in an unresolved indirect branch.
        self.has_unresolved_exit = False

    @property
    def first(self) -> Optional[InstructionEntry]:
        return self.entries[0] if self.entries else None

    @property
    def last(self) -> Optional[InstructionEntry]:
        return self.entries[-1] if self.entries else None

    def instructions(self) -> Iterator[Instruction]:
        for entry in self.entries:
            yield entry.insn

    def add_successor(self, other: "BasicBlock") -> None:
        if other not in self.successors:
            self.successors.append(other)
            other.predecessors.append(self)

    def __repr__(self) -> str:
        label = self.labels[0] if self.labels else "bb%d" % self.index
        return "<block %s (%d insns)>" % (label, len(self.entries))


class CFG:
    """Control-flow graph of one function."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.blocks: List[BasicBlock] = []
        self.entry: Optional[BasicBlock] = None
        self.exit = BasicBlock(-1)           # virtual exit
        self.label_to_block: Dict[str, BasicBlock] = {}
        #: Indirect branches that could not be resolved to targets.
        self.unresolved_branches: List[InstructionEntry] = []
        #: Indirect branches resolved, with the tier that resolved them
        #: ("operand" or "reaching-defs").
        self.resolved_branches: List[Tuple[InstructionEntry, str]] = []

    @property
    def is_well_formed(self) -> bool:
        return not self.unresolved_branches

    def reverse_postorder(self) -> List[BasicBlock]:
        seen: Set[int] = set()
        order: List[BasicBlock] = []

        def visit(block: BasicBlock) -> None:
            stack = [(block, iter(block.successors))]
            seen.add(id(block))
            while stack:
                node, successors = stack[-1]
                advanced = False
                for succ in successors:
                    if id(succ) not in seen and succ is not self.exit:
                        seen.add(id(succ))
                        stack.append((succ, iter(succ.successors)))
                        advanced = True
                        break
                if not advanced:
                    order.append(node)
                    stack.pop()

        if self.entry is not None:
            visit(self.entry)
        order.reverse()
        return order

    def __repr__(self) -> str:
        return "<cfg %s: %d blocks>" % (self.function.name, len(self.blocks))


def _jump_table_targets(unit: MaoUnit, symbol: str) -> Optional[List[str]]:
    """Read the labels stored in a jump table at *symbol*."""
    label_entry = None
    for entry in unit.entries():
        if isinstance(entry, LabelEntry) and entry.name == symbol:
            label_entry = entry
            break
    if label_entry is None:
        return None
    targets: List[str] = []
    node = label_entry.next
    while node is not None:
        if isinstance(node, DirectiveEntry):
            if node.name in ("quad", "long"):
                for arg in node.str_args():
                    targets.append(arg)
                node = node.next
                continue
            if node.name in ("align", "p2align", "balign"):
                node = node.next
                continue
        break
    return targets or None


def _operand_table_symbol(insn: Instruction) -> Optional[str]:
    """Tier-1 pattern: the branch operand itself names the table."""
    target = insn.branch_target_operand()
    if isinstance(target, Memory) and target.symbol is not None:
        return target.symbol
    return None


def _split_into_blocks(function: Function) -> Tuple[List[BasicBlock],
                                                    Dict[str, BasicBlock]]:
    blocks: List[BasicBlock] = []
    label_map: Dict[str, BasicBlock] = {}
    current: Optional[BasicBlock] = None
    pending_labels: List[str] = []

    def new_block() -> BasicBlock:
        block = BasicBlock(len(blocks))
        blocks.append(block)
        return block

    for entry in function.entries():
        if isinstance(entry, LabelEntry):
            # A label always starts a new block (if the current one is
            # non-empty) and may alias an empty pending block.
            if current is None or current.entries:
                current = new_block()
            current.labels.append(entry.name)
            label_map[entry.name] = current
            pending_labels = []
        elif isinstance(entry, InstructionEntry):
            if current is None:
                current = new_block()
            current.entries.append(entry)
            if entry.insn.is_control_transfer and not entry.insn.is_call:
                current = None
        # Directives don't affect block structure.
    return [b for b in blocks if b.entries or b.labels], label_map


def build_cfg(function: Function, unit: Optional[MaoUnit] = None,
              resolve_indirect: bool = True) -> CFG:
    """Build (and, if requested, indirect-resolve) the function's CFG."""
    unit = unit or function.unit
    cfg = CFG(function)
    blocks, label_map = _split_into_blocks(function)
    cfg.blocks = blocks
    cfg.label_to_block = label_map
    if not blocks:
        return cfg
    cfg.entry = blocks[0]

    local_labels = set(label_map)
    deferred_indirect: List[Tuple[BasicBlock, InstructionEntry]] = []

    for i, block in enumerate(blocks):
        fallthrough = blocks[i + 1] if i + 1 < len(blocks) else None
        last = block.last
        if last is None:
            if fallthrough is not None:
                block.add_successor(fallthrough)
            continue
        insn = last.insn
        if insn.is_cond_jump:
            target = insn.branch_target_label()
            if target is not None and target in label_map:
                block.add_successor(label_map[target])
            else:
                block.add_successor(cfg.exit)
            if fallthrough is not None:
                block.add_successor(fallthrough)
        elif insn.is_uncond_jump:
            if insn.is_indirect_branch:
                deferred_indirect.append((block, last))
            else:
                target = insn.branch_target_label()
                if target is not None and target in label_map:
                    block.add_successor(label_map[target])
                else:
                    block.add_successor(cfg.exit)
        elif insn.is_ret or insn.base in ("hlt", "ud2"):
            block.add_successor(cfg.exit)
        else:
            if fallthrough is not None:
                block.add_successor(fallthrough)
            else:
                block.add_successor(cfg.exit)

    # Tier 1: resolve indirect branches whose operand names the table.
    still_unresolved: List[Tuple[BasicBlock, InstructionEntry]] = []
    for block, entry in deferred_indirect:
        symbol = _operand_table_symbol(entry.insn)
        targets = _jump_table_targets(unit, symbol) if symbol else None
        if targets and all(t in label_map for t in targets):
            for t in targets:
                block.add_successor(label_map[t])
            cfg.resolved_branches.append((entry, "operand"))
        else:
            still_unresolved.append((block, entry))

    # Tier 2: reaching-definitions pattern.
    if still_unresolved and resolve_indirect:
        still_unresolved = _resolve_via_reaching_defs(
            cfg, unit, still_unresolved, label_map)

    for block, entry in still_unresolved:
        block.has_unresolved_exit = True
        block.add_successor(cfg.exit)
        cfg.unresolved_branches.append(entry)
    if cfg.unresolved_branches:
        function.flagged_unresolved_branch = True
    return cfg


def _resolve_via_reaching_defs(cfg: CFG, unit: MaoUnit,
                               pending: List[Tuple[BasicBlock,
                                                   InstructionEntry]],
                               label_map: Dict[str, BasicBlock]
                               ) -> List[Tuple[BasicBlock,
                                               InstructionEntry]]:
    """Chase table addresses through reaching definitions (tier 2).

    Handles the compiler idiom::

        lea  .Ltab(%rip), %rA      # or: mov $.Ltab, %rA
        ...
        mov  (%rA,%rB,8), %rC       # load table slot   (optional)
        jmp  *%rC                   # or: jmp *(%rA,%rB,8)

    Every branch is chased before any table edge is added, so each one
    sees the same graph and no answer depends on the order of the jumps.
    """
    from repro.analysis.dataflow import ReachingDefinitions

    reaching = ReachingDefinitions(cfg)
    chased = [(block, entry, _chase_indirect_target(reaching, unit, entry))
              for block, entry in pending]
    remaining: List[Tuple[BasicBlock, InstructionEntry]] = []
    for block, entry, targets in chased:
        if targets and all(t in label_map for t in targets):
            for t in targets:
                block.add_successor(label_map[t])
            cfg.resolved_branches.append((entry, "reaching-defs"))
        else:
            remaining.append((block, entry))
    return remaining


def _table_symbol_from_def(insn: Instruction) -> Optional[str]:
    """The table symbol loaded by an address-materializing instruction."""
    if insn.base == "lea":
        src = insn.operands[0]
        if isinstance(src, Memory) and src.symbol is not None:
            return src.symbol
    if insn.base in ("mov", "movabs"):
        src = insn.operands[0]
        from repro.x86.operands import Immediate
        if isinstance(src, Immediate) and src.symbol is not None:
            return src.symbol
    return None


def _chase_indirect_target(reaching, unit: MaoUnit,
                           entry: InstructionEntry,
                           depth: int = 0) -> Optional[List[str]]:
    if depth > 4:
        return None
    insn = entry.insn
    target = insn.branch_target_operand()

    if isinstance(target, RegisterOperand):
        # Find the unique reaching definition of the register.
        def_entry = reaching.unique_reaching_def(entry, target.reg.group)
        if def_entry is None:
            return None
        def_insn = def_entry.insn
        symbol = _table_symbol_from_def(def_insn)
        if symbol is not None:
            return _jump_table_targets(unit, symbol)
        # A load from the table: mov (rA, rB, 8), rC — chase rA.
        if def_insn.base == "mov" and isinstance(def_insn.operands[0],
                                                 Memory):
            mem = def_insn.operands[0]
            if mem.symbol is not None:
                return _jump_table_targets(unit, mem.symbol)
            if mem.base is not None:
                base_def = reaching.unique_reaching_def(def_entry,
                                                        mem.base.group)
                if base_def is not None:
                    symbol = _table_symbol_from_def(base_def.insn)
                    if symbol is not None:
                        return _jump_table_targets(unit, symbol)
        return None

    if isinstance(target, Memory):
        if target.symbol is not None:
            return _jump_table_targets(unit, target.symbol)
        if target.base is not None:
            base_def = reaching.unique_reaching_def(entry, target.base.group)
            if base_def is not None:
                symbol = _table_symbol_from_def(base_def.insn)
                if symbol is not None:
                    return _jump_table_targets(unit, symbol)
    return None
