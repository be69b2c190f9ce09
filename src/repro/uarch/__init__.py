"""Trace-driven micro-architectural timing model.

This subpackage substitutes for the real Intel Core-2 / AMD Opteron hardware
of the paper's evaluation.  Each performance cliff the paper describes maps
to an explicit mechanism:

* 16-byte instruction decode lines (§III.C.e — short-loop alignment),
* the Loop Stream Detector (§III.C.f — loops must fit a line budget),
* a ``PC >> 5``-indexed branch predictor (§III.C.g and Fig. 1 — aliasing),
* asymmetric execution ports and a forwarding-bandwidth limit
  (§III.F — ``RESOURCE_STALLS:RS_FULL`` scheduling effects),
* a small set-associative data cache with non-temporal-hint support
  (§III.E.k — inverse prefetching).

The model times the basic blocks ``repro.sim`` executes (or a collected
trace) and reports PMU-style counters, including ``CPU_CYCLES``.
"""

from repro.uarch.model import ProcessorModel
from repro.uarch.profiles import core2, opteron, pentium4, blinded_profile
from repro.uarch.pipeline import (
    FastForwardEngine,
    PipelineSimulator,
    SimStats,
    fast_forward_stats,
    simulate_program,
    simulate_trace,
    simulate_unit,
)
from repro.uarch import counters, tables

__all__ = [
    "ProcessorModel",
    "core2",
    "opteron",
    "pentium4",
    "blinded_profile",
    "PipelineSimulator",
    "FastForwardEngine",
    "simulate_trace",
    "simulate_program",
    "simulate_unit",
    "fast_forward_stats",
    "SimStats",
    "counters",
    "tables",
]
