"""Decompose instructions into uops for the timing model.

An instruction with a memory source contributes a LOAD uop feeding its
compute uop; a memory destination adds a STORE uop.  NOPs (including the
multi-byte forms) decode but occupy no execution port — which is exactly why
NOP insertion is near-free in the back end while still moving code across
decode lines, the effect the paper's alignment passes exploit.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.uarch import model as M
from repro.x86.instruction import Instruction

#: (uop_class, reads_memory, writes_memory) per compute step.
Uop = Tuple[str, bool, bool]

_FP_BASES = {
    "addss": M.FP_ADD, "addsd": M.FP_ADD, "subss": M.FP_ADD,
    "subsd": M.FP_ADD,
    "mulss": M.FP_MUL, "mulsd": M.FP_MUL,
    "divss": M.FP_DIV, "divsd": M.FP_DIV,
    "ucomiss": M.FP_ADD, "ucomisd": M.FP_ADD,
    "comiss": M.FP_ADD, "comisd": M.FP_ADD,
    "cvtss2sd": M.FP_ADD, "cvtsd2ss": M.FP_ADD,
    "cvtsi2ss": M.FP_ADD, "cvtsi2sd": M.FP_ADD,
    "cvtsi2ssq": M.FP_ADD, "cvtsi2sdq": M.FP_ADD,
    "cvttss2si": M.FP_ADD, "cvttsd2si": M.FP_ADD,
    "cvttss2siq": M.FP_ADD, "cvttsd2siq": M.FP_ADD,
    "movss": M.FP_MOV, "movsd": M.FP_MOV, "movaps": M.FP_MOV,
    "movups": M.FP_MOV, "movd": M.FP_MOV,
    "xorps": M.FP_MOV, "xorpd": M.FP_MOV, "pxor": M.FP_MOV,
}

_SHIFT_BASES = {"shl", "shr", "sar", "rol", "ror"}
_MUL_BASES = {"imul", "mul"}
_DIV_BASES = {"idiv", "div"}
_NOP_BASES = {"nop", "pause", "prefetchnta", "prefetcht0", "prefetcht1",
              "prefetcht2", "mfence", "lfence", "sfence"}


def compute_class(insn: Instruction) -> str:
    """The execution-uop class of the instruction's compute step."""
    base = insn.base
    if base in _FP_BASES:
        return _FP_BASES[base]
    if base in _SHIFT_BASES:
        return M.SHIFT
    if base in _MUL_BASES:
        return M.MUL
    if base in _DIV_BASES:
        return M.DIV
    if base == "lea":
        return M.LEA
    if base == "cmov" or base == "set":
        return M.CMOV
    if base in ("jmp", "j", "call", "ret"):
        return M.BRANCH
    if base in _NOP_BASES:
        return M.NOP
    return M.ALU


def uops_of(insn: Instruction) -> List[Uop]:
    """The uop sequence of one instruction."""
    base = insn.base
    if insn.is_nop or base in _NOP_BASES:
        # Prefetches carry a LOAD-like cache touch but no port pressure;
        # pipeline.py special-cases prefetch cache behaviour.
        return [(M.NOP, False, False)]

    if base == "push":
        return [(M.STORE, False, True)]
    if base == "pop":
        return [(M.LOAD, True, False)]
    if base == "call":
        return [(M.STORE, False, True), (M.BRANCH, False, False)]
    if base == "ret":
        return [(M.LOAD, True, False), (M.BRANCH, False, False)]
    if base == "leave":
        return [(M.ALU, False, False), (M.LOAD, True, False)]

    uops: List[Uop] = []
    mem = insn.memory_operand()
    loads = insn.reads_memory
    stores = insn.writes_memory
    if loads:
        uops.append((M.LOAD, True, False))
    cls = compute_class(insn)
    if not (base in ("mov", "movss", "movsd", "movaps", "movups")
            and (loads or stores)):
        # Plain load/store moves are just their memory uop; everything else
        # has a compute uop too.
        uops.append((cls, False, False))
    elif not loads and not stores:
        uops.append((cls, False, False))
    if stores:
        uops.append((M.STORE, False, True))
    if not uops:
        uops.append((cls, False, False))
    return uops
