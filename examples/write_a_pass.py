#!/usr/bin/env python3
"""Writing a custom MAO pass (the paper's Fig. 3 template).

"Writing a pass is easy and follows the template shown in Figure 3 ...
The optimization pass is a C++ class derived from a base class
MaoFunctionPass and contains a Go() function ... To make passes externally
visible, an invocation of REGISTER_FUNC_PASS is required."

The Python equivalents: subclass MaoFunctionPass, implement Go(), decorate
with @register_func_pass.  This example implements the Fig. 3
name-printing pass plus a small real one: rewriting `movl $0, %reg` into
the shorter `xorl %reg, %reg` when flags are dead.

Run:  python examples/write_a_pass.py
"""

from repro.analysis.dataflow import Liveness
from repro.ir import parse_unit
from repro.passes import MaoFunctionPass, run_passes
from repro.passes.manager import register_func_pass
from repro.x86.instruction import Instruction
from repro.x86.operands import Immediate, RegisterOperand


@register_func_pass("HELLO")
class HelloPass(MaoFunctionPass):
    """The paper's Fig. 3 minimal pass: print the function name."""

    def Go(self) -> bool:
        self.Trace(0, "Func: %s", self.function.name)
        return True


@register_func_pass("ZEROIDIOM")
class ZeroIdiomPass(MaoFunctionPass):
    """Rewrite `movl $0, %reg` to `xorl %reg, %reg` (2 bytes shorter).

    xor writes flags while mov does not, so the rewrite needs flag
    liveness — the same data-flow apparatus the built-in passes use.
    ``self.cfg()`` is the function's CFG: the one an earlier pass handed
    on, else a fresh build.  This pass leaves ``KEEPS_CFG`` unset, so the
    pipeline does not hand the CFG on after it (see ``MaoFunctionPass``).
    """

    OPTIONS = {"count_only": False}

    def Go(self) -> bool:
        cfg = self.cfg()
        liveness = Liveness(cfg)
        for block in cfg.blocks:
            for entry in block.entries:
                insn = entry.insn
                if not (insn.base == "mov" and len(insn.operands) == 2):
                    continue
                src, dst = insn.operands
                if not (isinstance(src, Immediate) and src.value == 0
                        and src.symbol is None
                        and isinstance(dst, RegisterOperand)
                        and dst.reg.width in (32, 64)):
                    continue
                if liveness.flags_live_after(block, entry):
                    continue       # xor would clobber observed flags
                self.bump("rewritten")
                if not self.option("count_only"):
                    entry.insn = Instruction(
                        "xorl" if dst.reg.width == 32 else "xorq",
                        [RegisterOperand(dst.reg), dst])
        return True


SOURCE = """
.text
.globl f
.type f, @function
f:
    movl $0, %eax          # rewritable (flags dead)
    movl $0, %ebx
    cmpl %ecx, %edx
    movl $0, %esi          # NOT rewritable: the jcc below reads flags
    je .L
    addl $1, %eax
.L:
    ret
"""


def main() -> None:
    unit = parse_unit(SOURCE)
    result = run_passes(unit, "HELLO:ZEROIDIOM")
    print("rewritten:", result.total("ZEROIDIOM", "rewritten"))
    print(unit.to_asm())


if __name__ == "__main__":
    main()
