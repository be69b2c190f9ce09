"""``simulate``: the paper's Fig. 7 loop.

One program is optimized with :data:`SPEC`, then the original and the
optimized code are simulated with ``api.simulate`` on ``core2`` and
``opteron``.  Programs are seeded builds of one SPEC-named program per
family of :mod:`repro.workloads.spec`, interleaved with the anecdote
kernels of :mod:`repro.workloads.kernels` at seeded sizes.
``fig4_loop`` (unshifted) runs through the steady-loop fast-forward;
``hash_bench`` is backend-bound, so fast-forward declines on it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from perfbench import checks
from perfbench.common import (Tracer, end_to_end, geomean, peak_rss_mb_self,
                              rollup, span_total)
from perfbench.gauge import HostSpeed

SPEC = "LOOP16:NOPIN=seed[2]:REDMOV:REDTEST:SCHED"
CORES = ("core2", "opteron")
MAX_STEPS = 5_000_000

#: One SPEC-named program per micro-architectural family of
#: ``repro.workloads.spec``: short loop (the eon regressions), window loop
#: (fast-forward engages on Opteron), fan-out (the SCHED wins) and plain.
#: The seed draws each one's build variant, not its name, so every run
#: simulates the same mix; a per-run draw of names moved throughput by a
#: fifth between seeds.
SPEC_PROGRAMS = ("252.eon", "181.mcf", "464.h264ref", "197.parser")


def _kernels(rng: random.Random) -> List[Tuple[str, str]]:
    """The anecdote kernels at seeded sizes of about 25 to 34 thousand
    simulated instructions each, near the SPEC programs' 38 to 54
    thousand, so the median simulation falls among many of like cost.
    With ``eon_loop`` and ``nested_short_loops`` at a third of that size,
    the median sat at the edge between the kernels and the SPEC programs
    and its ten-seed spread reached 41% against 18% for throughput."""
    from repro.workloads import kernels

    return [
        ("fig4_loop", kernels.fig4_loop(iterations=rng.randint(1800, 2200))),
        ("hash_bench", kernels.hash_bench(trip=rng.randint(1400, 1800))),
        ("eon_loop", kernels.eon_loop(pre_bytes=rng.randint(0, 3),
                                      outer=rng.randint(740, 880))),
        ("nested_short_loops",
         kernels.nested_short_loops(outer=rng.randint(1750, 2100))),
        ("mcf_fig1", kernels.mcf_fig1(outer=rng.randint(37, 45))),
    ]


#: Host seconds of one program (optimize + four simulations) on the
#: reference host (2 cores).  A run simulates the whole rounds that fill
#: ``--seconds`` there: a time limit cut a round at a point that moved
#: with the host's speed and moved the median simulation by a fifth.
NOMINAL_PROGRAM_S = 3.5
#: A run starts no program after this much operation time.
CAP_S = 120.0


def make_inputs(seed: int, rounds: int) -> List[Tuple[str, str]]:
    """Rounds of nine programs: a kernel, then a SPEC program, and so on,
    ending with the fifth kernel."""
    from repro.workloads.spec import build_benchmark

    rng = random.Random(seed)
    programs = []
    for _ in range(rounds):
        kernels = _kernels(rng)
        for kernel, name in zip(kernels, SPEC_PROGRAMS):
            programs.append(kernel)
            programs.append((name, build_benchmark(
                name, seed=rng.randrange(1 << 16)).source))
        programs.append(kernels[-1])
    return programs


@dataclass
class State:
    programs: List[Tuple[str, str]]


def setup(seed: int, seconds: int, tmp_root: str) -> State:
    from repro import api
    from repro.workloads import kernels

    per_round = 2 * len(SPEC_PROGRAMS) + 1
    rounds = max(1, round(seconds / NOMINAL_PROGRAM_S / per_round))
    state = State(programs=make_inputs(seed, rounds))
    warm = kernels.fig4_loop(iterations=50)
    api.simulate(api.optimize(warm, SPEC, cache=False).to_asm(), "core2")
    api.simulate(warm, "opteron")
    return state


def close(state: State) -> None:
    pass


def _written(source: str, memory: Any) -> Dict[int, int]:
    """Data bytes a run wrote, against the loader's image of *source*."""
    from repro.ir import parse_unit
    from repro.sim.loader import DATA_BASE, load_unit

    high = 0x10000000   # static data sections; the stack sits far above
    initial = checks.data_bytes(load_unit(parse_unit(source)).memory,
                                DATA_BASE, high)
    return checks.data_delta(initial,
                             checks.data_bytes(memory, DATA_BASE, high))


def _state_problems(runs: List[Tuple[str, str, str, Any, Any]]
                    ) -> List[str]:
    from repro.sim.loader import DATA_BASE, TEXT_BASE

    problems: List[str] = []
    for label, text, asm, before, after in runs:
        problems += checks.state_problems(
            label, before, after, _written(text, before.memory),
            _written(asm, after.memory), (TEXT_BASE, DATA_BASE))
    return problems


def measure(state: State, seconds: int, speed: HostSpeed
            ) -> Dict[str, Any]:
    """Optimize and simulate every program of the draw, gauging the
    host's speed after each call."""
    from repro import api

    calls: List[Tuple[float, int]] = []
    busy: List[Tuple[float, int]] = []
    instructions = 0
    speedups: List[float] = []
    runs: List[Tuple[str, str, str, Any, Any]] = []
    attempted = failed = 0
    errors: List[str] = []
    for name, text in state.programs:
        if sum(seconds for seconds, _ in busy) >= CAP_S:
            break
        start = time.perf_counter()
        try:
            attempted += 1
            asm = api.optimize(text, SPEC, jobs=1, cache=False).to_asm()
            busy.append((time.perf_counter() - start, speed.sample()))
            for core in CORES:
                pair = []
                for source in (text, asm):
                    attempted += 1
                    start = time.perf_counter()
                    sim = api.simulate(source, core, max_steps=MAX_STEPS)
                    calls.append((time.perf_counter() - start,
                                  speed.sample()))
                    busy.append(calls[-1])
                    instructions += sim.steps
                    pair.append(sim)
                speedups.append(pair[0].cycles / pair[1].cycles)
                runs.append(("%s@%s" % (name, core), text, asm,
                             pair[0].result, pair[1].result))
        except Exception as exc:  # an operation that raised is an error
            busy.append((time.perf_counter() - start, speed.sample()))
            failed += 1
            errors.append("%s: %s: %s" % (name, type(exc).__name__, exc))
    rss = peak_rss_mb_self()
    return {
        "attempted": attempted, "failed": failed, "errors": errors,
        "problems": _state_problems(runs), "peak_rss_mb": rss,
        "measured": end_to_end(speed, ("sim_kips", "sim_ms_p50",
                                       "sim_ms_tail"),
                               "kinstr/s", instructions / 1e3, busy, calls),
        "extra": [("code_speedup_geomean", geomean(speedups), "x",
                   "%d programs x cores" % len(speedups))],
    }


def trace(state: State, seconds: int, tracer: Tracer) -> Dict[str, Any]:
    """A fixed program count, each run untraced and traced in alternating
    order.  The traced run interprets with ``collect_trace=True`` and
    times the trace with ``simulate_trace``, whose counters equal the
    streaming path's."""
    from repro import api
    from repro.ir import parse_unit
    from repro.passes.manager import PassPipeline, parse_pass_spec
    from repro.sim import Interpreter, load_unit
    from repro.sim.interp import block_cache_stats
    from repro.uarch.pipeline import fast_forward_stats, simulate_trace
    from repro.uarch.tables import resolve_core

    count = max(2, int(seconds / NOMINAL_PROGRAM_S / 2))
    items = parse_pass_spec(SPEC)
    models = {core: resolve_core(core) for core in CORES}
    untraced_s = traced_s = 0.0
    problems: List[str] = []
    runs: List[Tuple[str, str, str, Any, Any]] = []
    speedups: List[float] = []
    instructions = cycles = 0
    block_hits = block_lookups = ff_loops = ff_records = 0

    def untraced(text: str) -> Dict[Tuple[str, int], Dict[str, int]]:
        start = time.perf_counter()
        asm = api.optimize(text, SPEC, jobs=1, cache=False).to_asm()
        counters = {}
        for core in CORES:
            for variant, source in enumerate((text, asm)):
                sim = api.simulate(source, core, max_steps=MAX_STEPS)
                counters[core, variant] = dict(sim.counters)
        nonlocal untraced_s
        untraced_s += time.perf_counter() - start
        return counters

    for index, (name, text) in enumerate(state.programs[:count]):
        if index % 2:
            expected = untraced(text)
        blk0, ff0 = block_cache_stats(), fast_forward_stats()
        got = {}
        start = time.perf_counter()
        with tracer.span("simulate.program"):
            with tracer.span("x86.parse", "x86"):
                unit = parse_unit(text)
            with tracer.span("passes.run", "passes"):
                PassPipeline(items).run(unit)
            with tracer.span("ir.emit", "ir"):
                asm = unit.to_asm()
            for core in CORES:
                pair = []
                for variant, source in enumerate((text, asm)):
                    with tracer.span("x86.parse", "x86"):
                        parsed = parse_unit(source)
                    with tracer.span("sim.load", "sim"):
                        program = load_unit(parsed)
                    with tracer.span("sim.interp", "sim"):
                        result = Interpreter(program, MAX_STEPS).run(
                            collect_trace=True)
                    with tracer.span("uarch.timing", "uarch"):
                        stats = simulate_trace(result.trace, models[core])
                    result.trace = None
                    got[core, variant] = dict(stats.counters)
                    instructions += result.steps
                    cycles += stats.cycles
                    pair.append((result, stats.cycles))
                speedups.append(pair[0][1] / pair[1][1])
                runs.append(("%s@%s" % (name, core), text, asm,
                             pair[0][0], pair[1][0]))
        traced_s += time.perf_counter() - start
        blk1, ff1 = block_cache_stats(), fast_forward_stats()
        hits = int(blk1["block_hits"]) - int(blk0["block_hits"])
        block_hits += hits
        block_lookups += hits + int(blk1["blocks_compiled"]) \
            - int(blk0["blocks_compiled"])
        ff_loops += int(ff1["loops_entered"]) - int(ff0["loops_entered"])
        ff_records += int(ff1["records_fast_forwarded"]) \
            - int(ff0["records_fast_forwarded"])
        if index % 2 == 0:
            expected = untraced(text)
        if expected != got:
            problems.append("%s: traced counters differ from api.simulate"
                            % name)
    problems += _state_problems(runs)
    spans = tracer.spans
    roll = rollup(spans)
    values = {
        "x86.parse_s": span_total(spans, "x86.parse"),
        "passes_s": span_total(spans, "passes.run"),
        "ir.emit_s": span_total(spans, "ir.emit"),
        "sim.load_s": span_total(spans, "sim.load"),
        "sim.interp_s": span_total(spans, "sim.interp"),
        "uarch.timing_s": span_total(spans, "uarch.timing"),
        "sim.instructions": instructions,
        "sim.block_cache.hit_rate": block_hits / block_lookups
        if block_lookups else 0.0,
        "uarch.ff.loops": ff_loops,
        "uarch.ff.record_share": ff_records / instructions,
        "uarch.cycles_total": cycles,
        "uarch.code_speedup_geomean": geomean(speedups),
        "simulate.unattributed_s": roll.unattributed_s,
    }
    return {"attempted": count, "failed": 0, "errors": [],
            "problems": problems, "metrics": values,
            "untraced_s": untraced_s, "traced_s": traced_s, "rollup": roll}
