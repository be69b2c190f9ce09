#!/usr/bin/env python3
"""Chasing micro-architectural performance cliffs (paper §III.C).

Reproduces the paper's two headline alignment anecdotes on the simulated
Core-2:

1. the 252.eon short loop that runs ~20% slower when it straddles a
   16-byte decode line — and the LOOP16 pass fixing it;
2. the Fig. 4/5 loop that doubles in speed once six NOPs shift it into the
   Loop Stream Detector's four-line budget — via the LSDFIT pass.

Run:  python examples/alignment_cliffs.py
"""

from repro import api
from repro.ir import parse_unit
from repro.passes import run_passes
from repro.workloads import kernels


def cycles_of(source, spec=None):
    unit = parse_unit(source)
    if spec:
        run_passes(unit, spec)
    return api.simulate(unit, "core2", max_steps=3_000_000).stats


def eon_cliff() -> None:
    print("== the 252.eon decode-line cliff ==")
    for pre in (0, 9):
        base = cycles_of(kernels.eon_loop(pre_bytes=pre))
        fixed = cycles_of(kernels.eon_loop(pre_bytes=pre), "LOOP16")
        print("  loop at +%d bytes: %6d cycles | after LOOP16: %6d "
              "(%+.1f%%)" % (pre, base.cycles, fixed.cycles,
                             100 * (base.cycles / fixed.cycles - 1)))


def lsd_cliff() -> None:
    print("\n== the Fig. 4/5 Loop Stream Detector cliff ==")
    base = cycles_of(kernels.fig4_loop(0))
    fixed = cycles_of(kernels.fig4_loop(0), "LSDFIT")
    print("  initial layout: %d cycles (LSD uops: %d)"
          % (base.cycles, base["LSD_UOPS"]))
    print("  after LSDFIT:   %d cycles (LSD uops: %d) -> %.2fx"
          % (fixed.cycles, fixed["LSD_UOPS"],
             base.cycles / fixed.cycles))


if __name__ == "__main__":
    eon_cliff()
    lsd_cliff()
