#!/usr/bin/env python3
"""Hot-path performance harness: encoding cache, incremental relaxation
and flag liveness.

Measures the optimize→assemble hot path (the paper's §III overhead
argument: MAO must be cheap enough to sit inside every compile) and
records the numbers in ``BENCH_hotpath.json`` so the perf trajectory is
tracked from PR to PR.  Repeated relaxation (``relax_*`` rows):

* **baseline** — the pre-fast-path configuration: the full re-walk
  relaxation oracle (``tests/analysis/relax_reference.py``) with the
  encoding cache disabled;
* **fast** — incremental relaxation with a warm encoding cache.

Flag liveness (``liveness_corpus``): the compile spec's passes run over
the corpus twice, and every flag question they ask goes once to the
whole-function fixpoint (``tests/analysis/liveness_fixpoint.py``,
baseline) and once to the demand-driven query (fast); each side is the
time spent building and asking its analysis.

The fast path must be *bit-identical* to the baseline: the harness
diffs section images and symbol tables, the liveness answers and the
optimized text, and a gate fails on wrong output.  Full runs also gate
the corpus speedups at ``MIN_SPEEDUP`` and ``MIN_LIVENESS_SPEEDUP``.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full run
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick \
        -o /tmp/pymao_bench_hotpath.json                         # smoke
    python scripts/perf_report.py BENCH_hotpath.json             # render
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.isdir(os.path.join(_REPO_ROOT, "src", "repro")):
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(_REPO_ROOT, "scripts"))
sys.path.insert(0, _REPO_ROOT)   # the reference engine lives in tests/

from perf_report import finish, gate, prefixed  # noqa: E402
from repro.analysis.dataflow import Liveness  # noqa: E402
from repro.analysis.relax import relax_section  # noqa: E402
from repro.ir import parse_unit  # noqa: E402
from repro.passes import PassPipeline  # noqa: E402
from repro.passes.manager import get_pass, parse_pass_spec  # noqa: E402
from repro.workloads.corpus import CorpusConfig, generate_corpus_text  # noqa: E402
from repro.x86 import encoder  # noqa: E402
from tests.analysis.liveness_fixpoint import FixpointLiveness  # noqa: E402
from tests.analysis.relax_reference import relax_section_reference  # noqa: E402

#: Full runs only: incremental + warm cache over the reference re-walk
#: on the corpus workload.
MIN_SPEEDUP = 2.0
#: Full runs only: the liveness query over the fixpoint on the questions
#: the compile spec asks of the corpus.
MIN_LIVENESS_SPEEDUP = 10.0

#: The ``compile`` workload's pass spec.
COMPILE_SPEC = "REDZEE:REDTEST:REDMOV:ADDADD:SCHED:LOOP16"

#: A relaxation-heavy kernel: chained branch spans sized so promotions
#: ripple backward one per sweep — the worst case that motivated repeated
#: relaxation (paper §II).
def _cascade_text(chains: int) -> str:
    parts = [".text", "casc:"]
    filler = "\n".join("    addl $1, %eax" for _ in range(41))
    for i in range(chains):
        parts.append("    jmp .T%d" % i)
        parts.append(filler)
        if i > 0:
            parts.append(".T%d:" % (i - 1))
    parts.append("    jmp .Tend")
    parts.append(".T%d:" % (chains - 1))
    parts.append("\n".join("    addl $2, %ebx" for _ in range(45)))
    parts.append(".Tend:")
    parts.append("    ret")
    return "\n".join(parts) + "\n"


def _layout_fingerprint(layout) -> tuple:
    return (layout.size, layout.iterations, layout.symtab,
            layout.code_image())


def bench_relax(text: str, repeats: int) -> dict:
    """Repeated relaxation: baseline (reference + cold cache) vs. fast
    (incremental + warm cache)."""
    unit_base = parse_unit(text)
    unit_fast = parse_unit(text)
    section_base = unit_base.get_section(".text")
    section_fast = unit_fast.get_section(".text")

    encoder.reset_encoding_cache()
    with encoder.encoding_cache_disabled():
        start = time.perf_counter()
        for _ in range(repeats):
            layout_base = relax_section_reference(unit_base, section_base)
        baseline_s = time.perf_counter() - start

    encoder.reset_encoding_cache()
    start = time.perf_counter()
    for _ in range(repeats):
        layout_fast = relax_section(unit_fast, section_fast)
    fast_s = time.perf_counter() - start
    cache = encoder.encoding_cache_stats()

    identical = (_layout_fingerprint(layout_base)
                 == _layout_fingerprint(layout_fast))
    return {
        "baseline_s": round(baseline_s, 6),
        "fast_s": round(fast_s, 6),
        "speedup": round(baseline_s / fast_s, 3),
        "relax_iterations": layout_fast.iterations,
        "byte_identical": identical,
        "cache_hits": int(cache["hits"]),
        "cache_misses": int(cache["misses"]),
        "cache_bypasses": int(cache["bypasses"]),
        "cache_hit_rate": round(cache["hit_rate"], 4),
    }


@contextlib.contextmanager
def _passes_use(engine, spec: str):
    """Point every pass of *spec* that asks flag liveness at *engine*."""
    modules = {sys.modules[get_pass(name).__module__]
               for name, _ in parse_pass_spec(spec)}
    modules = [module for module in modules
               if getattr(module, "Liveness", None) is Liveness]
    for module in modules:
        module.Liveness = engine
    try:
        yield
    finally:
        for module in modules:
            module.Liveness = Liveness


def _timed(engine, clock: list, answers: list):
    """*engine* with its construction and its questions timed into
    ``clock[0]`` and its answers appended to *answers*."""

    class Timed(engine):
        def __init__(self, cfg) -> None:
            start = time.perf_counter()
            super().__init__(cfg)
            clock[0] += time.perf_counter() - start

        def flags_live_after(self, block, entry):
            start = time.perf_counter()
            live = super().flags_live_after(block, entry)
            clock[0] += time.perf_counter() - start
            answers.append(sorted(live))
            return live

    return Timed


def bench_liveness(text: str) -> dict:
    """The compile spec over *text*, its flag questions answered by the
    fixpoint (baseline) and by the query (fast)."""
    sides = {}
    for side, engine in (("baseline", FixpointLiveness), ("fast", Liveness)):
        clock, answers = [0.0], []
        unit = parse_unit(text)
        with _passes_use(_timed(engine, clock, answers), COMPILE_SPEC):
            PassPipeline.from_spec(COMPILE_SPEC).run(unit)
        sides[side] = (clock[0], answers, unit.to_asm())
    baseline_s, baseline_answers, baseline_asm = sides["baseline"]
    fast_s, fast_answers, fast_asm = sides["fast"]
    return {
        "baseline_s": round(baseline_s, 6),
        "fast_s": round(fast_s, 6),
        "speedup": round(baseline_s / fast_s, 3),
        "questions": len(fast_answers),
        "identical": (baseline_answers == fast_answers
                      and baseline_asm == fast_asm),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="hot-path perf harness (cache, incremental relax, "
                    "flag liveness)")
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--scale", type=float, default=None,
                        help="corpus scale (default 0.02, quick 0.005)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="relaxation sweeps to time (default 20, "
                             "quick 5)")
    parser.add_argument("-o", "--output", default=None,
                        help="JSON output path (default: "
                             "BENCH_hotpath.json next to the repo root)")
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None \
        else (0.005 if args.quick else 0.02)
    repeats = args.repeats if args.repeats is not None \
        else (5 if args.quick else 20)
    output = args.output or os.path.join(_REPO_ROOT, "BENCH_hotpath.json")

    corpus_text = generate_corpus_text(CorpusConfig(seed=1, scale=scale))
    cascade_text = _cascade_text(chains=4 if args.quick else 8)

    print("workload: corpus scale=%s (%d bytes of asm), %d relax repeats"
          % (scale, len(corpus_text), repeats))

    metrics = {}
    metrics.update(prefixed("relax_corpus",
                            bench_relax(corpus_text, repeats)))
    metrics.update(prefixed("relax_cascade",
                            bench_relax(cascade_text, repeats)))
    metrics.update(prefixed("liveness_corpus", bench_liveness(corpus_text)))
    gates = [gate("relax_corpus.byte_identical", "==", True),
             gate("relax_cascade.byte_identical", "==", True),
             gate("liveness_corpus.identical", "==", True)]
    if not args.quick:
        gates += [gate("relax_corpus.speedup", ">=", MIN_SPEEDUP),
                  gate("liveness_corpus.speedup", ">=",
                       MIN_LIVENESS_SPEEDUP)]
    config = {"quick": args.quick, "scale": scale, "repeats": repeats}
    return finish("hotpath", config, metrics, gates, output)


if __name__ == "__main__":
    sys.exit(main())
