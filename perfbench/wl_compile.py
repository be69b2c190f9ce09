"""``compile``: generated "core library" files through the full pass spec.

One operation optimizes one file with ``api.optimize(text, SPEC,
jobs=1)`` and emits it with ``.to_asm()``: no artifact cache, no
simulation, so parsing, the passes, their analyses and the encoder do
all the work.  Files come from :mod:`repro.workloads.corpus` in size
classes that vary function count and function size, so the
superlinear per-function pass cost shows in the tail.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from perfbench import checks
from perfbench.common import (Tracer, end_to_end, peak_rss_mb_self, rollup,
                              span_total)
from perfbench.gauge import HostSpeed

SPEC = "REDZEE:REDTEST:REDMOV:ADDADD:SCHED:LOOP16"

#: The stat each pass reports as its own transformation count.
APPLIED_STAT = {"REDZEE": "removed", "REDTEST": "removed",
                "REDMOV": "rewritten", "ADDADD": "folded",
                "SCHED": "instructions_moved", "LOOP16": "aligned"}

#: One round: a file of each ``(scale, functions)`` class, in this order.
#: Files run from ~7 KiB to ~35 KiB and functions from ~5 KiB to ~35 KiB.
#: The middle class appears five times, between three cheaper files and
#: four dearer ones, so the median file falls in the middle of it; the
#: 35 KiB single-function class three times, so the tail sample (the 11th
#: largest) falls in the middle of that one.  With the middle class only
#: three times a round, the median moved by a tenth between seeds:
#: files of one size class differ in cost by their contents.
SIZE_CLASSES = [(0.002, 1), (0.0003, 1), (0.001, 2), (0.0005, 2),
                (0.001, 2), (0.002, 1), (0.001, 2), (0.0005, 1),
                (0.001, 2), (0.0015, 3), (0.002, 1), (0.001, 2)]

#: Host seconds one round takes on the reference host (2 cores).  A run
#: optimizes the whole rounds that fit in ``--seconds`` there: a time
#: limit cut rounds at a point that moved with the host's speed, and so
#: moved the median file.
NOMINAL_ROUND_S = 4.4
#: A run starts no file after this much operation time.
CAP_S = 120.0


def _rounds(seconds: float) -> int:
    return max(1, int(seconds / NOMINAL_ROUND_S))


def make_inputs(seed: int, rounds: int) -> List[Tuple[str, str]]:
    """``rounds`` rounds of generated files, as ``(name, text)``."""
    from repro.workloads.corpus import CorpusConfig, generate_corpus_text

    rng = random.Random(seed)
    files = []
    for round_index in range(rounds):
        for class_index, (scale, functions) in enumerate(SIZE_CLASSES):
            config = CorpusConfig(seed=rng.randrange(1 << 30), scale=scale,
                                  functions=functions)
            files.append(("r%02d_c%d.s" % (round_index, class_index),
                          generate_corpus_text(config)))
    return files


@dataclass
class State:
    inputs: List[Tuple[str, str]]
    spec_items: List[Tuple[str, Dict[str, Any]]]


@dataclass
class _Output:
    """What the checks need from one optimized file."""

    name: str
    source: str
    asm: str
    applied: Dict[str, int]
    mao_image: bytes
    fill_regions: List[Tuple[int, int]] = field(default_factory=list)


def setup(seed: int, seconds: int, tmp_root: str) -> State:
    from repro import api
    from repro.passes.manager import parse_pass_spec
    from repro.workloads.corpus import CorpusConfig, generate_corpus_text

    state = State(inputs=make_inputs(seed, _rounds(seconds)),
                  spec_items=parse_pass_spec(SPEC))
    # Warm-up on a file outside the draw: lazy imports and first-use
    # tables are paid here, not in the first timed operation.
    warm = generate_corpus_text(CorpusConfig(seed=~seed, scale=0.0003,
                                             functions=1))
    api.optimize(warm, SPEC, jobs=1, cache=False).to_asm()
    return state


def close(state: State) -> None:
    pass


def _optimize(text: str, name: str
              ) -> Tuple[Any, str, float, Dict[str, int]]:
    """The untraced operation: (unit, asm, seconds, applied counts)."""
    from repro import api

    start = time.perf_counter()
    result = api.optimize(text, SPEC, jobs=1, filename=name, cache=False)
    asm = result.to_asm()
    elapsed = time.perf_counter() - start
    applied = {p: result.pipeline.total(p, stat)
               for p, stat in APPLIED_STAT.items()}
    return result.unit, asm, elapsed, applied


def _layout(unit: Any) -> Any:
    """The optimized unit's own relaxed layout.  Unlike the tests'
    ``mao_text_layout`` it does not re-parse the emitted text, so the gas
    check also catches ``to_asm`` writing something other than the unit."""
    from repro.analysis.relax import relax_section

    return relax_section(unit, unit.get_section(".text"))


def _output(name: str, text: str, unit: Any, asm: str,
            applied: Dict[str, int], layout: Any) -> _Output:
    return _Output(name=name, source=text, asm=asm, applied=applied,
                   mao_image=layout.code_image(),
                   fill_regions=list(layout.fill_regions()))


def _check(outputs: List[_Output]) -> List[str]:
    problems: List[str] = []
    for out in outputs:
        problems += checks.text_image_problems(out.name, out.asm,
                                               out.mao_image,
                                               out.fill_regions)
        problems += checks.pass_count_problems(out.name, out.applied,
                                               out.source)
    return problems


def measure(state: State, seconds: int, speed: HostSpeed
            ) -> Dict[str, Any]:
    """Optimize every generated file, one at a time, gauging the host's
    speed after each."""
    done: List[Tuple[float, int]] = []
    busy: List[Tuple[float, int]] = []
    kib = 0.0
    failed = 0
    errors: List[str] = []
    outputs: List[_Output] = []
    for name, text in state.inputs:
        if sum(seconds for seconds, _ in busy) >= CAP_S:
            break
        start = time.perf_counter()
        try:
            unit, asm, elapsed, applied = _optimize(text, name)
        except Exception as exc:  # an operation that raised is an error
            busy.append((time.perf_counter() - start, speed.sample()))
            failed += 1
            errors.append("%s: %s: %s" % (name, type(exc).__name__, exc))
            continue
        done.append((elapsed, speed.sample()))
        busy.append(done[-1])
        kib += len(text) / 1024.0
        outputs.append(_output(name, text, unit, asm, applied,
                               _layout(unit)))
    rss = peak_rss_mb_self()
    return {
        "attempted": len(done) + failed, "failed": failed,
        "errors": errors, "problems": _check(outputs), "peak_rss_mb": rss,
        "measured": end_to_end(speed, ("compile_kb_per_s",
                                       "compile_file_ms_p50",
                                       "compile_file_ms_tail"),
                               "KiB/s", kib, busy, done),
    }


def _traced_operation(tracer: Tracer, state: State, name: str,
                      text: str) -> Tuple[Any, str, Dict[str, int]]:
    from repro.ir import parse_unit
    from repro.passes.manager import PassPipeline

    applied: Dict[str, int] = {}
    with tracer.span("compile.file"):
        with tracer.span("x86.parse", "x86"):
            unit = parse_unit(text, filename=name)
        for pass_name, options in state.spec_items:
            with tracer.span("passes.%s" % pass_name, "passes"):
                result = PassPipeline([(pass_name, options)]).run(unit)
            applied[pass_name] = result.total(pass_name,
                                              APPLIED_STAT[pass_name])
        with tracer.span("ir.emit", "ir"):
            asm = unit.to_asm()
    return unit, asm, applied


def trace(state: State, seconds: int, tracer: Tracer) -> Dict[str, Any]:
    """A fixed file count, each file optimized untraced and traced in
    alternating order; the traced run goes one pass at a time."""
    from repro.analysis.cfg import build_cfg
    from repro.x86.encoder import encoding_cache_stats

    count = max(1, _rounds(seconds) // 2) * len(SIZE_CLASSES)
    untraced_s = traced_s = 0.0
    probes = Tracer()
    problems: List[str] = []
    outputs: List[_Output] = []
    hits = misses = 0
    relax_iterations = 0
    for index, (name, text) in enumerate(state.inputs[:count]):
        order = (False, True) if index % 2 == 0 else (True, False)
        for traced in order:
            if not traced:
                _, plain_asm, elapsed, _ = _optimize(text, name)
                untraced_s += elapsed
                continue
            before = encoding_cache_stats()
            start = time.perf_counter()
            unit, asm, applied = _traced_operation(tracer, state, name, text)
            traced_s += time.perf_counter() - start
            with probes.span("analysis.cfg", "analysis"):
                for function in unit.functions:
                    build_cfg(function, unit)
            with probes.span("analysis.relax", "analysis"):
                layout = _layout(unit)
            after = encoding_cache_stats()
            hits += after["hits"] - before["hits"]
            misses += after["misses"] - before["misses"]
            relax_iterations += layout.iterations
            outputs.append(_output(name, text, unit, asm, applied, layout))
        if plain_asm != asm:
            problems.append("%s: pass-at-a-time output differs from the "
                            "one-shot pipeline" % name)
    problems += _check(outputs)
    spans = tracer.spans
    roll = rollup(spans)
    values: Dict[str, float] = {
        "x86.parse_s": span_total(spans, "x86.parse"),
        "ir.emit_s": span_total(spans, "ir.emit"),
        "passes_s": roll.self_s.get("passes", 0.0),
        "analysis.cfg_s": span_total(probes.spans, "analysis.cfg"),
        "analysis.relax_s": span_total(probes.spans, "analysis.relax"),
        "analysis.relax_iterations": relax_iterations,
        "x86.encoder.hit_rate": hits / (hits + misses) if hits + misses
        else 0.0,
        "x86.encoder.misses": misses,
        "compile.unattributed_s": roll.unattributed_s,
    }
    for pass_name in APPLIED_STAT:
        values["passes.%s_s" % pass_name] = span_total(
            spans, "passes.%s" % pass_name)
        values["passes.%s.applied" % pass_name] = sum(
            out.applied[pass_name] for out in outputs)
    return {"attempted": count, "failed": 0, "errors": [],
            "problems": problems, "metrics": values,
            "untraced_s": untraced_s, "traced_s": traced_s, "rollup": roll}
