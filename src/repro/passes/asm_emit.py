"""ASM — the assembly-emission pass, and LFIND — loop finding.

Reading/parsing the input is a pass called by default as the first pass;
emission is the ``ASM`` pass, whose ``o`` option names the output file
(paper example: ``ASM=o[/dev/null]``).  When running analysis-only passes,
ASM can simply be omitted.

``LFIND`` is the loop-finding analysis pass used in the paper's
command-line example (``--mao=LFIND=trace[0]``): it builds the CFG and the
loop structure graph and reports what it found through the standard
tracing facility and its stats.
"""

from __future__ import annotations

import sys

from repro.analysis.loops import build_lsg
from repro.passes.base import MaoFunctionPass, MaoUnitPass
from repro.passes.manager import register_func_pass, register_unit_pass


@register_unit_pass("ASM")
class AssemblyEmissionPass(MaoUnitPass):
    """Write the unit back out as textual assembly."""

    OPTIONS = {"o": "-"}
    # Emission is the effect: replaying a cached result would skip it.
    SIDE_EFFECTS = True

    def Go(self) -> bool:
        target = str(self.option("o"))
        text = self.unit.to_asm()
        if target in ("-", ""):
            sys.stdout.write(text)
        else:
            with open(target, "w") as handle:
                handle.write(text)
        self.bump("entries_emitted", len(self.unit))
        return True


@register_func_pass("LFIND")
class LoopFindingPass(MaoFunctionPass):
    """Build the LSG and report loop statistics."""

    OPTIONS = {}

    def Go(self) -> bool:
        self.Trace(3, "Func: %s", self.function.name)
        cfg = self.cfg()
        lsg = build_lsg(cfg)
        self.bump("blocks", len(cfg.blocks))
        self.bump("loops", len(lsg))
        for loop in lsg.non_root_loops():
            if not loop.is_reducible:
                self.bump("irreducible")
            self.Trace(1, "loop header=%r depth=%d blocks=%d reducible=%s",
                       loop.header, loop.depth(), len(loop.all_blocks()),
                       loop.is_reducible)
        if cfg.unresolved_branches:
            self.bump("unresolved_branches", len(cfg.unresolved_branches))
        return True
