"""LSDFIT — fit loops into the Loop Stream Detector line budget (§III.C.f).

"The loop must execute a minimum of 64 iterations, must not span more than
four 16-byte decoding lines, and may only contain certain types of
branches."  Figures 4/5 show a loop spread over six decode lines; inserting
six NOPs ahead of it packs the body into four lines and doubles the loop's
speed.

For each innermost loop whose body *could* fit the LSD line budget at a
better starting offset, the pass inserts single-byte NOPs immediately
before the loop so the body's first byte lands on the offset that minimizes
the number of decode lines spanned.  (NOPs ahead of the loop execute once
per loop entry — cheap next to streaming every iteration.)
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.loops import build_lsg
from repro.analysis.relax import relax_section
from repro.ir.entries import InstructionEntry, LabelEntry
from repro.passes.base import MaoFunctionPass
from repro.passes.manager import register_func_pass
from repro.passes.loop16 import lines_spanned, loop_extent, minimal_lines
from repro.passes.util import make_nop


@register_func_pass("LSDFIT")
class LsdFitPass(MaoFunctionPass):
    """NOP-shift loops so they span no more decode lines than necessary."""

    OPTIONS = {
        "line": 16,
        "max_lines": 4,       # the LSD line budget
        "count_only": False,
    }

    def Go(self) -> bool:
        line_bytes = int(self.option("line"))
        max_lines = int(self.option("max_lines"))
        cfg = self.cfg()
        lsg = build_lsg(cfg)
        if not lsg.non_root_loops():
            return True
        layout = relax_section(self.unit, self.function.section)

        for loop in lsg.inner_loops():
            if not loop.is_reducible:
                continue
            extent = loop_extent(loop, layout)
            if extent is None:
                continue
            start, end = extent
            size = end - start
            minimal = minimal_lines(size, line_bytes)
            if minimal > max_lines or size == 0:
                self.bump("too_big")
                continue
            spanned = lines_spanned(start, end, line_bytes)
            if spanned <= max(minimal, 1) or spanned <= max_lines:
                continue
            # Find the smallest forward shift that reaches the budget.
            shift = self._best_shift(start, size, line_bytes, max_lines)
            if shift is None:
                continue
            anchor = self._loop_anchor(loop)
            if anchor is None:
                continue
            self.bump("loops_shifted")
            self.bump("nops_inserted", shift)
            self.Trace(1, "shifting loop at %#x by %d nops (%d->%d lines)",
                       start, shift,
                       spanned, lines_spanned(start + shift,
                                              end + shift, line_bytes))
            if not self.option("count_only"):
                for _ in range(shift):
                    self.unit.insert_before(
                        anchor, InstructionEntry(make_nop()))
        return True

    @staticmethod
    def _best_shift(start: int, size: int, line_bytes: int,
                    max_lines: int) -> Optional[int]:
        for shift in range(1, line_bytes):
            if lines_spanned(start + shift, start + shift + size,
                             line_bytes) <= max_lines:
                return shift
        return None

    @staticmethod
    def _loop_anchor(loop):
        header = loop.header
        first = header.first
        if first is None:
            return None
        anchor = first
        node = first.prev
        while node is not None and isinstance(node, LabelEntry):
            anchor = node
            node = node.prev
        return anchor
