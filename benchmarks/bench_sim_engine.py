#!/usr/bin/env python3
"""Simulation-engine performance harness: compiled blocks + per-block
timing + loop fast-forward.

Measures the execute→time path on steady-state loop workloads (the bulk
of every micro-benchmark the detectors run) and records the numbers in
``BENCH_sim.json`` so the perf trajectory is tracked from PR to PR:

* **baseline** — the reference configuration: the per-step interpreter
  that decodes every instruction on every step
  (``tests/sim/reference_interp.py``), a fully materialized trace list,
  and the per-record pipeline walk with no fast-forward
  (``tests/uarch/record_walk.py``);
* **fast** — ``api.simulate``: basic blocks of compiled step functions,
  each executed block timed in one call, steady-state iterations
  fast-forwarded algebraically.

Each side runs once to warm up, then five timed samples alternate
between the sides; the reported times are the medians and the
samples are recorded beside them.  The fast path must be
*counter-identical* to the baseline: the harness diffs every
``SimStats`` counter (and the architectural run result), and a gate
fails on wrong timing.  A differential section sweeps the paper's
anecdote kernels on both processor models as an extra equality net.
Quick and full runs hold the steady loop to ``MIN_STEADY_SPEEDUP`` and
the hash kernel to ``MIN_HASH_SPEEDUP``.  The hash kernel is
backend-bound: fast-forward must skip at least ``MIN_HASH_FF_SHARE`` of
its records on the back end's clock, on core2 and on opteron, whose
back end runs its independent chains at two rates.  The loop nest
(252.eon's short loop inside its outer loop) must be skipped at the
outer level: at least ``MIN_NEST_FF_SHARE`` of its records
fast-forwarded, and ``MIN_STEADY_SPEEDUP`` like the steady loop.  The
interpreter replays each skipped loop's validated iteration without
handing its blocks to the engine, so on each of these four workloads
the block executions the engine checks one at a time while skipping
(``ff_checked``) may not exceed the loops it entered.  A
sampled section runs the hash kernel sampled every ``SAMPLE_PERIOD``
steps on the reference interpreter and on the block-compiled one: the
samples and the run must be identical, and the hot blocks generated as
on any other run (its speedup is recorded without a gate).

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_engine.py            # full run
    PYTHONPATH=src python benchmarks/bench_sim_engine.py --quick \
        -o /tmp/pymao_bench_sim_engine.json                         # smoke
    python scripts/perf_report.py BENCH_sim.json                    # render
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.isdir(os.path.join(_REPO_ROOT, "src", "repro")):
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(_REPO_ROOT, "scripts"))
sys.path.insert(0, _REPO_ROOT)   # the reference engines live in tests/

from perf_report import finish, gate, prefixed  # noqa: E402
from repro import api  # noqa: E402
from repro.ir import parse_unit  # noqa: E402
from repro.sim import interp  # noqa: E402
from repro.uarch import pipeline  # noqa: E402
from repro.uarch.profiles import core2, opteron  # noqa: E402
from repro.workloads import kernels  # noqa: E402
from tests.sim import reference_interp  # noqa: E402
from tests.uarch.record_walk import simulate_reference  # noqa: E402

#: Timed samples per side (after one warm-up run each).
REPEATS = 5

#: Fast over baseline on the steady loop, quick and full runs.
MIN_STEADY_SPEEDUP = 2.0

#: Fast over baseline on the hash kernel: the fast path must never be
#: slower than the baseline it replaced.
MIN_HASH_SPEEDUP = 1.0

#: Share of the hash kernel's records that fast-forward skips on core2,
#: where its back end falls behind the front end by a fixed number of
#: cycles per iteration (99.3% at full size, 96.4% quick), and on
#: opteron, where its chains fall behind at 7 and 9 cycles per
#: iteration (99.7% full, 98.1% quick).
MIN_HASH_FF_SHARE = 0.9

#: Share of the loop nest's records that fast-forward skips.
MIN_NEST_FF_SHARE = 0.9

#: Steps between samples in the sampled section (a prime, like the
#: periods ``mao profile`` is given).
SAMPLE_PERIOD = 997


def _run_state(result) -> tuple:
    """Architectural fingerprint of a finished run."""
    state = result.state
    return (result.steps, result.reason, tuple(sorted(state.gp.items())),
            tuple(sorted(state.flags.snapshot().items())), state.rip)


def _baseline(unit, model):
    """The reference interpreter's trace, walked per record."""
    result = reference_interp.run_unit(unit, collect_trace=True)
    return result, simulate_reference(result.trace, model)


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def _alternate(sides: dict) -> tuple:
    """Run each of the ``baseline`` and ``fast`` *sides* once to warm up,
    then REPEATS timed samples taking turns; returns each side's last
    run and its samples."""
    samples = {"baseline": [], "fast": []}
    runs = {side: run() for side, run in sides.items()}      # warm-up
    for index in range(REPEATS):
        order = ("baseline", "fast") if index % 2 == 0 \
            else ("fast", "baseline")
        for side in order:
            if side == "fast":
                # Block-cache and fast-forward stats of the last fast run.
                interp.reset_block_cache_stats()
                pipeline.reset_fast_forward_stats()
            seconds, runs[side] = _timed(sides[side])
            samples[side].append(round(seconds, 6))
    return runs, samples


def bench_engine(name: str, source: str, model) -> dict:
    """One steady-state workload: baseline walk vs. the full fast path,
    as the medians of REPEATS alternating samples after a warm-up."""
    unit = parse_unit(source)
    runs, samples = _alternate({
        "baseline": lambda: _baseline(unit, model),
        "fast": lambda: api.simulate(unit, model)})
    blk = interp.block_cache_stats()
    ff = pipeline.fast_forward_stats()

    result_base, stats_base = runs["baseline"]
    sim = runs["fast"]
    result_fast, stats_fast = sim.result, sim.stats
    baseline_s = statistics.median(samples["baseline"])
    fast_s = statistics.median(samples["fast"])
    identical = (stats_base.counters == stats_fast.counters
                 and _run_state(result_base) == _run_state(result_fast))
    return {
        "workload": name,
        "model": model.name,
        "instructions": result_fast.steps,
        "cycles": stats_fast.cycles,
        "baseline_s": round(baseline_s, 6),
        "fast_s": round(fast_s, 6),
        "baseline_samples_s": samples["baseline"],
        "fast_samples_s": samples["fast"],
        "speedup": round(baseline_s / fast_s, 3),
        "counter_identical": identical,
        "block_cache_hits": int(blk["block_hits"]),
        "block_cache_compiled": int(blk["blocks_compiled"]),
        "block_cache_hit_rate": round(blk["hit_rate"], 4),
        "ff_loops": int(ff["loops_entered"]),
        "ff_iterations": int(ff["iterations_fast_forwarded"]),
        "ff_records": int(ff["records_fast_forwarded"]),
        "ff_record_share": round(ff["records_fast_forwarded"]
                                 / result_fast.steps, 4),
        "ff_checked": int(ff["executions_checked"]),
    }


def bench_sampled(name: str, source: str) -> dict:
    """A sampled run on the reference interpreter against one on the
    block-compiled interpreter, as the medians of REPEATS alternating
    samples after a warm-up."""
    unit = parse_unit(source)
    runs, samples = _alternate({
        "baseline": lambda: reference_interp.run_unit(
            unit, sample_period=SAMPLE_PERIOD),
        "fast": lambda: interp.run_unit(unit, sample_period=SAMPLE_PERIOD)})
    baseline_s = statistics.median(samples["baseline"])
    fast_s = statistics.median(samples["fast"])
    base, fast = runs["baseline"], runs["fast"]
    return {
        "workload": name,
        "period": SAMPLE_PERIOD,
        "instructions": fast.steps,
        "samples": len(fast.samples),
        "baseline_s": round(baseline_s, 6),
        "fast_s": round(fast_s, 6),
        "baseline_samples_s": samples["baseline"],
        "fast_samples_s": samples["fast"],
        "speedup": round(baseline_s / fast_s, 3),
        "samples_identical": (base.samples == fast.samples
                              and _run_state(base) == _run_state(fast)),
        "blocks_generated":
            int(interp.block_cache_stats()["blocks_generated"]),
    }


def bench_differential(quick: bool) -> dict:
    """Counter equality of the fast path across the anecdote corpus."""
    scale = 0.25 if quick else 1.0
    outer = max(2, int(400 * scale))
    cases = [
        ("fig1_nop", kernels.mcf_fig1(insert_nop=True, outer=outer)),
        ("fig1_base", kernels.mcf_fig1(insert_nop=False, outer=outer)),
        ("fig4_lsd", kernels.fig4_loop(shift_nops=6,
                                       iterations=int(2000 * scale))),
        ("fig4_base", kernels.fig4_loop(shift_nops=0,
                                        iterations=int(2000 * scale))),
        ("hash_fwd", kernels.hash_bench(trip=int(3000 * scale))),
        ("nested", kernels.nested_short_loops(outer=int(1500 * scale))),
        ("eon", kernels.eon_loop(outer=int(600 * scale))),
    ]
    models = [core2(), opteron()]
    checked = 0
    mismatches = []
    for case_name, source in cases:
        for model in models:
            base, ref = _baseline(parse_unit(source), model)
            sim = api.simulate(source, model)
            run, fast = sim.result, sim.stats
            checked += 1
            if (ref.counters != fast.counters
                    or _run_state(base) != _run_state(run)):
                mismatches.append("%s/%s" % (case_name, model.name))
    return {
        "cases_checked": checked,
        "mismatches": ", ".join(mismatches),
        "counter_identical": not mismatches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="simulation-engine perf harness (compiled blocks + "
                    "per-block timing + loop fast-forward)")
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--outer", type=int, default=None,
                        help="outer trip count of the steady-loop "
                             "workload (default 8000, quick 1500)")
    parser.add_argument("-o", "--output", default=None,
                        help="JSON output path (default: BENCH_sim.json "
                             "next to the repo root)")
    args = parser.parse_args(argv)

    outer = args.outer if args.outer is not None \
        else (1500 if args.quick else 8000)
    output = args.output or os.path.join(_REPO_ROOT, "BENCH_sim.json")

    # The steady loop: Fig. 4's three-block body at its unshifted
    # placement.  Frontend-bound with an iteration-invariant record
    # signature, so the fast-forward engine validates and skips it on the
    # front end's clock; the hash kernel is backend-bound (its back end
    # falls behind by a fixed number of cycles per iteration), so it is
    # validated and skipped on the back end's clock.
    steady_src = kernels.fig4_loop(shift_nops=0, iterations=outer)
    hash_src = kernels.hash_bench(trip=outer * 2)
    # The loop nest: eon's eight-trip inner loop never repeats often
    # enough on its own, but every outer iteration is identical.
    nest_outer = 150 if args.quick else 600
    nest_src = kernels.eon_loop(outer=nest_outer)
    model = core2()

    print("workload: fig4 steady loop x%d + hash kernel x%d + eon nest "
          "x%d (core2), hash kernel on opteron and sampled every %d"
          % (outer, outer * 2, nest_outer, SAMPLE_PERIOD))

    metrics = {}
    metrics.update(prefixed("sim_steady_loop",
                            bench_engine("fig4_steady", steady_src, model)))
    metrics.update(prefixed("sim_hash_kernel",
                            bench_engine("hash_fwd", hash_src, model)))
    metrics.update(prefixed("sim_hash_opteron",
                            bench_engine("hash_fwd", hash_src, opteron())))
    metrics.update(prefixed("sim_loop_nest",
                            bench_engine("eon_nest", nest_src, model)))
    metrics.update(prefixed("sim_sampled",
                            bench_sampled("hash_fwd", hash_src)))
    metrics.update(prefixed("differential", bench_differential(args.quick)))
    gates = [
        gate("sim_steady_loop.counter_identical", "==", True),
        gate("sim_steady_loop.speedup", ">=", MIN_STEADY_SPEEDUP),
        gate("sim_hash_kernel.counter_identical", "==", True),
        gate("sim_hash_kernel.speedup", ">=", MIN_HASH_SPEEDUP),
        gate("sim_hash_kernel.ff_record_share", ">=", MIN_HASH_FF_SHARE),
        gate("sim_hash_opteron.counter_identical", "==", True),
        gate("sim_hash_opteron.ff_record_share", ">=", MIN_HASH_FF_SHARE),
        gate("sim_loop_nest.counter_identical", "==", True),
        gate("sim_loop_nest.ff_record_share", ">=", MIN_NEST_FF_SHARE),
        gate("sim_loop_nest.speedup", ">=", MIN_STEADY_SPEEDUP),
        gate("sim_sampled.samples_identical", "==", True),
        gate("sim_sampled.blocks_generated", ">=", 1),
        gate("differential.counter_identical", "==", True),
    ] + [
        gate(section + ".ff_checked", "<=", metrics[section + ".ff_loops"])
        for section in ("sim_steady_loop", "sim_hash_kernel",
                        "sim_hash_opteron", "sim_loop_nest")
    ]
    config = {"quick": args.quick, "outer": outer, "nest_outer": nest_outer,
              "repeats": REPEATS}
    return finish("sim", config, metrics, gates, output)


if __name__ == "__main__":
    sys.exit(main())
