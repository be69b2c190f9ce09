"""PyMAO — a reproduction of "MAO: An Extensible Micro-Architectural
Optimizer" (Hundt, Raman, Thuresson, Vachharajani — CGO 2011).

The supported front door is :mod:`repro.api`::

    from repro import api

    result = api.optimize(open("hot.s").read(), "REDZEE:REDTEST:LOOP16")
    sim = api.simulate(result.unit, "core2")

The lower-level entry points stay re-exported for convenience::

    from repro import parse_unit, run_passes, run_unit, simulate_trace
    from repro import core2, opteron
    from repro.uarch import simulate_unit

    unit = parse_unit(open("hot.s").read())
    run_passes(unit, "REDZEE:REDTEST:LOOP16")
    run, stats = simulate_unit(unit, core2())

``simulate_trace`` times a trace the caller already holds
(``run_unit(unit, collect_trace=True).trace``).

Subpackages:

* ``repro.x86`` — assembler substrate: parser, registers, encoder,
  decoder, side-effect tables.
* ``repro.ir`` — the MAO IR (entry list, sections, functions).
* ``repro.analysis`` — CFG, data-flow, Havlak loops, repeated relaxation.
* ``repro.passes`` — the optimization passes and the pass manager.
* ``repro.sim`` — architectural interpreter.
* ``repro.uarch`` — micro-architectural timing model (Core-2 / Opteron).
* ``repro.mbench`` — the §IV microbenchmark/parameter-detection framework.
* ``repro.workloads`` — paper kernels, corpus generator, SPEC-named
  synthetic benchmarks.
* ``repro.profiling`` — sampling, annotation, reuse distance, edge
  profiles.
* ``repro.api`` — the supported facade (``optimize`` / ``simulate`` /
  ``optimize_many``).
* ``repro.obs`` — tracing spans, the metrics registry, trace sinks.
* ``repro.batch`` — corpus engine: multi-file scheduler plus the
  persistent content-addressed artifact cache.
"""

__version__ = "0.1.0"

from repro import obs
from repro.ir import MaoUnit, parse_unit
from repro.passes import PassPipeline, run_passes
from repro.sim import run_unit
from repro.uarch import core2, opteron, simulate_trace
from repro import api

__all__ = [
    "__version__",
    "MaoUnit",
    "parse_unit",
    "PassPipeline",
    "run_passes",
    "run_unit",
    "core2",
    "opteron",
    "simulate_trace",
    "api",
    "obs",
]
