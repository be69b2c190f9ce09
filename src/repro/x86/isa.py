"""Instruction-set database: mnemonic canonicalization and classification.

AT&T mnemonics bundle three pieces of information: a base operation
(``add``), an optional operand-size suffix (``l``), and for the ``jcc`` /
``setcc`` / ``cmovcc`` families a condition code.  :func:`split_mnemonic`
separates these and validates the base against the supported set.

The supported subset covers everything found in compiler-generated integer
code plus the SSE scalar moves/arithmetic the paper's examples use.  Unknown
mnemonics are not an error at parse time — they become opaque IR entries that
are carried through and re-emitted verbatim — but they cannot be encoded or
simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Optional

from repro.x86.flags import is_cc_suffix, split_cc_mnemonic
from repro.x86.registers import parse_width_suffix


@dataclass(frozen=True)
class MnemonicInfo:
    """Decomposed mnemonic: canonical base, operand width, condition code."""

    base: str                  # canonical base, e.g. "add", "j", "cmov"
    width: Optional[int]       # operand width in bits, None if unsuffixed
    cond: Optional[str] = None  # condition-code suffix for jcc/setcc/cmovcc
    #: (src_width, dst_width) for the movsx/movzx families, else None
    extend: Optional[tuple] = None


#: Bases that accept a b/w/l/q size suffix.
SUFFIXABLE: FrozenSet[str] = frozenset([
    "mov", "add", "sub", "and", "or", "xor", "cmp", "test", "adc", "sbb",
    "lea", "inc", "dec", "neg", "not", "imul", "mul", "idiv", "div",
    "shl", "sal", "shr", "sar", "rol", "ror", "push", "pop", "xchg",
    "bswap", "bt", "movabs",
])

#: Bases that never take a size suffix.
UNSUFFIXED: FrozenSet[str] = frozenset([
    "jmp", "call", "ret", "leave", "nop", "ud2", "hlt", "int3",
    "cltq", "cqto", "cltd", "cwtl", "cdqe", "cqo", "cdq", "cwde",
    "movss", "movsd", "addss", "addsd", "subss", "subsd",
    "mulss", "mulsd", "divss", "divsd", "xorps", "xorpd", "pxor",
    "movaps", "movups", "movd", "movq_sse",
    "ucomiss", "ucomisd", "comiss", "comisd",
    "cvtsi2ss", "cvtsi2sd", "cvttss2si", "cvttsd2si",
    "cvtsi2ssq", "cvtsi2sdq", "cvttss2siq", "cvttsd2siq",
    "cvtss2sd", "cvtsd2ss",
    "prefetchnta", "prefetcht0", "prefetcht1", "prefetcht2",
    "rep", "repz", "repnz", "lock", "pause", "mfence", "lfence", "sfence",
    "cpuid", "rdtsc", "syscall",
])

#: movsx / movzx in AT&T spelling: base -> (src_width, dst_width, signed).
EXTEND_MOVES = {
    "movsbw": (8, 16, True), "movsbl": (8, 32, True), "movsbq": (8, 64, True),
    "movswl": (16, 32, True), "movswq": (16, 64, True),
    "movslq": (32, 64, True),
    "movzbw": (8, 16, False), "movzbl": (8, 32, False),
    "movzbq": (8, 64, False),
    "movzwl": (16, 32, False), "movzwq": (16, 64, False),
}

#: Aliases normalized during parsing.
ALIASES = {
    "sal": "shl", "salb": "shlb", "salw": "shlw",
    "sall": "shll", "salq": "shlq",
    "cdqe": "cltq", "cqo": "cqto", "cdq": "cltd", "cwde": "cwtl",
    "jc": "jb", "jnc": "jae", "jz": "je", "jnz": "jne",
    "jna": "jbe", "jnbe": "ja", "jnae": "jb", "jnb": "jae",
    "jpe": "jp", "jpo": "jnp", "jnge": "jl", "jnl": "jge",
    "jng": "jle", "jnle": "jg",
}

#: Control-transfer bases.
BRANCH_BASES: FrozenSet[str] = frozenset(["jmp", "j", "call", "ret"])


class UnknownMnemonic(KeyError):
    """Raised when a mnemonic is not in the supported subset."""


@lru_cache(maxsize=None)
def split_mnemonic(mnemonic: str) -> MnemonicInfo:
    """Decompose an AT&T mnemonic into a :class:`MnemonicInfo`.

    Raises :class:`UnknownMnemonic` for mnemonics outside the subset.
    Memoized: the info is frozen, and the subset spells a few hundred
    mnemonics (one that raises is not kept).
    """
    m = ALIASES.get(mnemonic, mnemonic)

    if m in EXTEND_MOVES:
        src_w, dst_w, signed = EXTEND_MOVES[m]
        base = "movsx" if signed else "movzx"
        return MnemonicInfo(base, dst_w, extend=(src_w, dst_w))

    if m in UNSUFFIXED:
        return MnemonicInfo(m, None)

    # jcc / setcc / cmovcc, possibly with a size suffix on cmov.
    try:
        prefix, cond = split_cc_mnemonic(m)
    except ValueError:
        pass
    else:
        return MnemonicInfo(prefix, None, cond=cond)

    # cmovXXl style: strip suffix then retry cc split.
    width = parse_width_suffix(m[-1:]) if len(m) > 1 else None
    if width is not None:
        stem = m[:-1]
        stem = ALIASES.get(stem, stem)
        if stem in SUFFIXABLE:
            return MnemonicInfo(stem, width)
        if stem.startswith("cmov") and is_cc_suffix(stem[4:]):
            return MnemonicInfo("cmov", width, cond=stem[4:])
        # jmpq / callq / retq / leaveq / pushq without "push" in stem etc.
        if stem in UNSUFFIXED:
            return MnemonicInfo(stem, width)

    if m in SUFFIXABLE:
        # Unsuffixed form; width must come from a register operand.
        return MnemonicInfo(m, None)

    raise UnknownMnemonic(mnemonic)


def is_control_transfer(info: MnemonicInfo) -> bool:
    return info.base in ("jmp", "j", "call", "ret")
