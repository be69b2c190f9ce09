"""The side-effect configuration language.

The paper describes MAO's approach to modelling instruction side effects:

    "MAO uses a table-driven approach to model side effects.  A tiny
    configuration language specifies opcodes, operands being modified, flags
    set, and other potential side effects.  A generator program constructs
    C tables for use by MAO."

This module defines that tiny language and its parser.  The specification
itself lives in :data:`SPEC`; ``sideeffects_gen.py`` is the generator program
that turns it into the checked-in ``_sideeffects_tables.py``, and
``sideeffects.py`` turns an instruction's entry into the one record that
data-flow analysis, the passes and the timing models read.

Grammar (one instruction per line, ``#`` comments)::

    insn BASE[@ARITY] [use(ITEMS)] [def(ITEMS)] [flags(KEY=F1,F2 ...)] [barrier]

ITEMS are operand designators (``src`` = first operand, ``dst`` = last,
``op0``/``op1``/``op2`` = positional) or implicit registers (``%rax``).
``flags`` keys: ``w`` (written), ``r`` (read; the token ``cc`` means
"depends on the condition code"), ``clear`` (written with a known zero
value), ``result`` (flags that reflect the destination value — ``test dst,
dst`` would reproduce them), ``undef`` (architecturally undefined after the
instruction).  ``@ARITY`` selects a variant by operand count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

_VALID_FLAGS = {"CF", "PF", "AF", "ZF", "SF", "OF", "cc"}
_VALID_ITEMS_RE = re.compile(r"^(src|dst|op\d+|%[a-z0-9]+)$")


@dataclass(frozen=True)
class SideEffectSpec:
    """Parsed side-effect description for one (base, arity) pair."""

    base: str
    arity: Optional[int]          # None = any operand count
    uses: Tuple[str, ...]         # operand designators / implicit registers
    defs: Tuple[str, ...]
    flags_written: FrozenSet[str]
    flags_read: FrozenSet[str]    # may contain "cc"
    flags_cleared: FrozenSet[str]
    flags_result: FrozenSet[str]  # reproduce-by-test subset
    flags_undef: FrozenSet[str]
    barrier: bool = False         # call/ret/syscall: clobbers everything


class SpecError(Exception):
    pass


_CLAUSE_RE = re.compile(r"(use|def|flags)\(([^)]*)\)|barrier")


def _parse_items(text: str, lineno: int) -> Tuple[str, ...]:
    items = tuple(text.split())
    for item in items:
        if not _VALID_ITEMS_RE.match(item):
            raise SpecError("line %d: bad operand item %r" % (lineno, item))
    return items


def _parse_flags(text: str, lineno: int) -> Dict[str, FrozenSet[str]]:
    result: Dict[str, FrozenSet[str]] = {}
    for part in text.split():
        if "=" not in part:
            raise SpecError("line %d: bad flags clause %r" % (lineno, part))
        key, names = part.split("=", 1)
        if key not in ("w", "r", "clear", "result", "undef"):
            raise SpecError("line %d: bad flags key %r" % (lineno, key))
        flags = frozenset(names.split(",")) - {""}
        unknown = flags - _VALID_FLAGS
        if unknown:
            raise SpecError("line %d: unknown flags %s" % (lineno, unknown))
        result[key] = flags
    return result


def parse_spec(text: str) -> List[SideEffectSpec]:
    """Parse the configuration language into spec records."""
    specs: List[SideEffectSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 2)
        if parts[0] != "insn" or len(parts) < 2:
            raise SpecError("line %d: expected 'insn BASE ...'" % lineno)
        name = parts[1]
        if "@" in name:
            base, arity_text = name.split("@", 1)
            arity: Optional[int] = int(arity_text)
        else:
            base, arity = name, None
        rest = parts[2] if len(parts) == 3 else ""

        uses: Tuple[str, ...] = ()
        defs: Tuple[str, ...] = ()
        flags: Dict[str, FrozenSet[str]] = {}
        barrier = False
        for match in _CLAUSE_RE.finditer(rest):
            if match.group(0) == "barrier":
                barrier = True
            elif match.group(1) == "use":
                uses = _parse_items(match.group(2), lineno)
            elif match.group(1) == "def":
                defs = _parse_items(match.group(2), lineno)
            elif match.group(1) == "flags":
                flags = _parse_flags(match.group(2), lineno)
        specs.append(SideEffectSpec(
            base=base,
            arity=arity,
            uses=uses,
            defs=defs,
            flags_written=flags.get("w", frozenset()),
            flags_read=flags.get("r", frozenset()),
            flags_cleared=flags.get("clear", frozenset()),
            flags_result=flags.get("result", frozenset()),
            flags_undef=flags.get("undef", frozenset()),
            barrier=barrier,
        ))
    return specs


ARITH_FLAGS = "w=CF,PF,AF,ZF,SF,OF result=ZF,SF,PF"
LOGIC_FLAGS = "w=CF,PF,AF,ZF,SF,OF clear=CF,OF result=ZF,SF,PF undef=AF"
INCDEC_FLAGS = "w=PF,AF,ZF,SF,OF result=ZF,SF,PF"
SHIFT_FLAGS = "w=CF,PF,AF,ZF,SF,OF undef=AF,OF"
MUL_FLAGS = "w=CF,PF,AF,ZF,SF,OF undef=PF,AF,ZF,SF"

#: The full specification for the supported subset.
SPEC = """
# -- moves ------------------------------------------------------------------
insn mov      use(src) def(dst)
insn movabs   use(src) def(dst)
insn movsx    use(src) def(dst)
insn movzx    use(src) def(dst)
insn lea      use(src) def(dst)
insn xchg     use(src dst) def(src dst)
insn bswap    use(dst) def(dst)
insn cmov     use(src dst) def(dst) flags(r=cc)
insn set      def(dst) flags(r=cc)

# -- integer ALU --------------------------------------------------------------
insn add      use(src dst) def(dst) flags({arith})
insn sub      use(src dst) def(dst) flags({arith})
insn adc      use(src dst) def(dst) flags({arith} r=CF)
insn sbb      use(src dst) def(dst) flags({arith} r=CF)
insn and      use(src dst) def(dst) flags({logic})
insn or       use(src dst) def(dst) flags({logic})
insn xor      use(src dst) def(dst) flags({logic})
insn cmp      use(src dst) flags(w=CF,PF,AF,ZF,SF,OF)
insn test     use(src dst) flags({logic})
insn inc      use(dst) def(dst) flags({incdec})
insn dec      use(dst) def(dst) flags({incdec})
insn neg      use(dst) def(dst) flags({arith})
insn not      use(dst) def(dst)
insn bt       use(src dst) flags(w=CF undef=PF,AF,SF,OF)

# -- shifts -------------------------------------------------------------------
insn shl@1    use(dst) def(dst) flags({shift})
insn shl@2    use(src dst) def(dst) flags({shift})
insn shr@1    use(dst) def(dst) flags({shift})
insn shr@2    use(src dst) def(dst) flags({shift})
insn sar@1    use(dst) def(dst) flags({shift})
insn sar@2    use(src dst) def(dst) flags({shift})
insn rol@1    use(dst) def(dst) flags(w=CF,OF undef=OF)
insn rol@2    use(src dst) def(dst) flags(w=CF,OF undef=OF)
insn ror@1    use(dst) def(dst) flags(w=CF,OF undef=OF)
insn ror@2    use(src dst) def(dst) flags(w=CF,OF undef=OF)

# -- multiply / divide --------------------------------------------------------
insn imul@1   use(op0 %rax) def(%rax %rdx) flags({mul})
insn imul@2   use(src dst) def(dst) flags({mul})
insn imul@3   use(op0 op1) def(op2) flags({mul})
insn mul@1    use(op0 %rax) def(%rax %rdx) flags({mul})
insn idiv@1   use(op0 %rax %rdx) def(%rax %rdx) flags(w=CF,PF,AF,ZF,SF,OF undef=CF,PF,AF,ZF,SF,OF)
insn div@1    use(op0 %rax %rdx) def(%rax %rdx) flags(w=CF,PF,AF,ZF,SF,OF undef=CF,PF,AF,ZF,SF,OF)

# -- sign extensions into rax/rdx ---------------------------------------------
insn cltq     use(%rax) def(%rax)
insn cwtl     use(%rax) def(%rax)
insn cqto     use(%rax) def(%rdx)
insn cltd     use(%rax) def(%rdx)

# -- stack --------------------------------------------------------------------
insn push     use(op0 %rsp) def(%rsp)
insn pop      def(op0 %rsp) use(%rsp)
insn leave    use(%rbp) def(%rsp %rbp)

# -- control transfer ---------------------------------------------------------
insn jmp      use(op0)
insn j        flags(r=cc)
insn call     use(op0) barrier
insn ret      barrier
insn syscall  barrier
insn hlt      barrier
insn ud2      barrier
insn int3     barrier
insn cpuid    def(%rax %rbx %rcx %rdx) use(%rax %rcx) barrier
insn rdtsc    def(%rax %rdx)

# -- nops / hints -------------------------------------------------------------
insn nop
insn pause
insn mfence
insn lfence
insn sfence
insn prefetchnta use(op0)
insn prefetcht0  use(op0)
insn prefetcht1  use(op0)
insn prefetcht2  use(op0)

# -- SSE scalar ---------------------------------------------------------------
insn movss    use(src) def(dst)
insn movsd    use(src) def(dst)
insn movaps   use(src) def(dst)
insn movups   use(src) def(dst)
insn movd     use(src) def(dst)
insn addss    use(src dst) def(dst)
insn addsd    use(src dst) def(dst)
insn subss    use(src dst) def(dst)
insn subsd    use(src dst) def(dst)
insn mulss    use(src dst) def(dst)
insn mulsd    use(src dst) def(dst)
insn divss    use(src dst) def(dst)
insn divsd    use(src dst) def(dst)
insn xorps    use(src dst) def(dst)
insn xorpd    use(src dst) def(dst)
insn pxor     use(src dst) def(dst)
insn ucomiss  use(src dst) flags(w=CF,PF,ZF clear=AF,SF,OF)
insn ucomisd  use(src dst) flags(w=CF,PF,ZF clear=AF,SF,OF)
insn comiss   use(src dst) flags(w=CF,PF,ZF clear=AF,SF,OF)
insn comisd   use(src dst) flags(w=CF,PF,ZF clear=AF,SF,OF)
insn cvtss2sd use(src) def(dst)
insn cvtsd2ss use(src) def(dst)
insn cvtsi2ss use(src) def(dst)
insn cvtsi2sd use(src) def(dst)
insn cvtsi2ssq use(src) def(dst)
insn cvtsi2sdq use(src) def(dst)
insn cvttss2si use(src) def(dst)
insn cvttsd2si use(src) def(dst)
insn cvttss2siq use(src) def(dst)
insn cvttsd2siq use(src) def(dst)
""".format(arith=ARITH_FLAGS, logic=LOGIC_FLAGS, incdec=INCDEC_FLAGS,
           shift=SHIFT_FLAGS, mul=MUL_FLAGS)


def parse_builtin_spec() -> List[SideEffectSpec]:
    return parse_spec(SPEC)
