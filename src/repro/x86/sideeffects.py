"""Query layer over the generated side-effect tables.

:func:`effects` is the one question data-flow analysis, the passes and the
timing models ask of an :class:`~repro.x86.instruction.Instruction`.  Its
answer is an immutable :class:`Effects` record: which register alias groups
the instruction reads and writes, which RFLAGS bits it reads, clobbers,
clears, derives from its result or leaves undefined, and whether it is a
barrier.  Registers are reported as *alias groups* (``eax`` -> ``rax``) so
partial-register writes conservatively kill the whole register.

An instruction with no table entry gets one answer everywhere: it reads and
writes every register group and every flag, and it is a barrier.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, NamedTuple, Optional, Set, Tuple

from repro.x86._sideeffects_tables import TABLES
from repro.x86.flags import ALL_FLAGS, cc_flags_read
from repro.x86.instruction import Instruction
from repro.x86.operands import Immediate, Memory, Operand, RegisterOperand
from repro.x86.registers import ALL_GROUPS

#: Caller-saved groups clobbered by a call under the SysV ABI.
CALL_CLOBBERED = frozenset(
    ["rax", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11"]
    + ["xmm%d" % i for i in range(16)])

#: Argument/return registers conservatively read by calls/returns.
CALL_USED = frozenset(
    ["rax", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "rsp"]
    + ["xmm%d" % i for i in range(8)])

#: Prefix of a flag bit's data-flow location name (``F:ZF``).
FLAG_PREFIX = "F:"


def flag_loc(flag: str) -> str:
    return FLAG_PREFIX + flag


class Effects(NamedTuple):
    """What one instruction reads and writes.

    ``loc_uses`` and ``loc_defs`` are ``uses`` and ``defs`` plus the flags
    read and clobbered, as data-flow locations.  Every set is built from
    sorted elements, so equal sets iterate in one order however the
    instruction that first built the record spelled its operands.
    """

    uses: FrozenSet[str]
    defs: FrozenSet[str]
    flags_read: FrozenSet[str]
    #: Flags written or left undefined.
    flags_clobbered: FrozenSet[str]
    #: Flags written with a known-zero value (CF/OF after logic ops).
    flags_cleared: FrozenSet[str]
    #: Flags whose post-state reflects the destination value.
    flags_result: FrozenSet[str]
    flags_undefined: FrozenSet[str]
    #: Calls, returns and the like, which end an analysis scope.
    barrier: bool
    loc_uses: FrozenSet[str]
    loc_defs: FrozenSet[str]


#: One frozenset per distinct set, shared by every record that holds it.
_SETS: Dict[FrozenSet[str], FrozenSet[str]] = {}


def _sorted_set(items: Iterable[str]) -> FrozenSet[str]:
    made = frozenset(sorted(items))
    return _SETS.setdefault(made, made)


def _record(uses: Iterable[str], defs: Iterable[str], read: Iterable[str],
            clobbered: Iterable[str], cleared: Iterable[str],
            result: Iterable[str], undefined: Iterable[str],
            barrier: bool) -> Effects:
    uses, defs, read, clobbered = (_sorted_set(uses), _sorted_set(defs),
                                   _sorted_set(read), _sorted_set(clobbered))
    return Effects(uses, defs, read, clobbered, _sorted_set(cleared),
                   _sorted_set(result), _sorted_set(undefined), barrier,
                   _sorted_set([*uses, *map(flag_loc, read)]),
                   _sorted_set([*defs, *map(flag_loc, clobbered)]))


_UNKNOWN = _record(ALL_GROUPS, ALL_GROUPS, ALL_FLAGS, ALL_FLAGS, (), (),
                   ALL_FLAGS, True)

#: One record per distinct answer, shared by every instruction that gets it.
_SHARED: Dict[Effects, Effects] = {_UNKNOWN: _UNKNOWN}


#: Form -> record, for every form seen (see :func:`_form`).
_BY_FORM: Dict[tuple, Effects] = {}


def effects(insn: Instruction) -> Effects:
    """The instruction's side effects, looked up by form on first use and
    kept on the instruction (sound because passes replace instructions
    rather than mutate them)."""
    record = insn._effects
    if record is None:
        form = _form(insn)
        record = _BY_FORM.get(form)
        if record is None:
            record = _compute(insn)
            record = _BY_FORM[form] = _SHARED.setdefault(record, record)
        insn._effects = record
    return record


#: Shifts and rotates, which leave the flags alone when the count is 0.
SHIFTS = frozenset(("shl", "shr", "sar", "rol", "ror"))


def shift_count(insn: Instruction) -> Optional[int]:
    """A shift's or rotate's count as the CPU masks it: 1 for the
    one-operand form, the immediate's low 5 bits (6 at 64 bits), or None
    for a count in ``%cl``, which may be 0."""
    ops = insn.operands
    if len(ops) == 1:
        return 1
    if len(ops) == 2 and isinstance(ops[0], Immediate):
        return ops[0].value & (63 if insn.effective_width() == 64 else 31)
    return None


def _form(insn: Instruction) -> tuple:
    """Everything :func:`_compute` reads: the mnemonic, per operand its
    register's alias group, its memory base and index groups, or its kind,
    and whether a shift's literal count is 0."""
    form = [insn.mnemonic]
    for op in insn.operands:
        if isinstance(op, RegisterOperand):
            form.append(op.reg.group)
        elif isinstance(op, Memory):
            form.append((None if op.base is None else op.base.group,
                         None if op.index is None else op.index.group))
        else:
            form.append(type(op))
    if insn.base in SHIFTS and shift_count(insn) == 0:
        form.append(0)
    return tuple(form)


def _compute(insn: Instruction) -> Effects:
    entry = TABLES.get((insn.base, len(insn.operands)))
    if entry is None:
        entry = TABLES.get((insn.base, None))
    if entry is None:
        return _UNKNOWN
    uses, defs, written, read, cleared, result, undefined, barrier = entry
    reg_uses = _resolve_items(insn, uses) | _address_uses(insn)
    reg_defs = _resolve_items(insn, defs)
    if barrier:
        reg_uses |= CALL_USED
        reg_defs |= CALL_CLOBBERED | {"rsp"}
    flags_read = set(read)
    if "cc" in flags_read:
        flags_read.discard("cc")
        if insn.cond is not None:
            flags_read |= cc_flags_read(insn.cond)
    if insn.base in SHIFTS:
        count = shift_count(insn)
        if count == 0:
            written = cleared = result = undefined = ()
        elif count is None:
            # A count of 0 passes every flag through, so each flag the
            # shift may write is also read.
            flags_read.update(written, undefined)
    return _record(reg_uses, reg_defs, flags_read, written + undefined,
                   cleared, result, undefined, barrier)


def _resolve_items(insn: Instruction, items: Tuple[str, ...]) -> Set[str]:
    """Operand designators -> register alias groups (registers only)."""
    groups: Set[str] = set()
    ops = insn.operands
    for item in items:
        if item.startswith("%"):
            groups.add(item[1:])
            continue
        if item == "src":
            selected: Optional[Operand] = ops[0] if len(ops) >= 2 else None
        elif item == "dst":
            selected = ops[-1] if ops else None
        else:  # opN
            idx = int(item[2:])
            selected = ops[idx] if idx < len(ops) else None
        # A designated operand that is memory names no register.
        if isinstance(selected, RegisterOperand):
            groups.add(selected.reg.group)
    return groups


def _address_uses(insn: Instruction) -> Set[str]:
    """Address registers of memory operands, which are always read."""
    groups: Set[str] = set()
    for op in insn.operands:
        if isinstance(op, Memory):
            if op.base is not None and op.base.group != "rip":
                groups.add(op.base.group)
            if op.index is not None:
                groups.add(op.index.group)
    return groups
