"""The parameter-discovery engine (nanoBench-style, paper §IV automated).

Given only a processor *oracle* — something microbenchmarks can be run
against, never a parameter listing — the engine runs a staged harness of
generated microbenchmark ladders (:mod:`repro.mbench.detect`) and emits a
complete ``pymao.uarch/1`` document:

* **Stage 1** (independent): decode-line size, branch-predictor index
  shift, and per-class chain latencies.
* **Stage 2** (needs the line size): decode width, LSD engagement
  threshold.
* **Stage 3** (needs the threshold): LSD line budget, then stream width.
* **Stage 4** (model fitting): mispredict penalty, then forwarding
  bandwidth, then per-class port sets — each by running a probe on the
  oracle and on *candidate* models built from everything inferred so
  far, keeping the candidate whose cycle counts match exactly (the
  nanoBench "fit the simulator to the measurement" move).
* **Cross-check**: the assembled model replays a battery drawn from
  every ladder family; cycle-exact agreement with the oracle is
  reported per benchmark.

Parameters the ladders cannot identify (issue width and RS size — the
timing model never reads them; predictor table size beyond aliasing
reach; memory-system details) are taken from the hypothesis document's
``fixed`` section or the model defaults and reported as *assumed*, never
silently mixed with measurements.

Determinism: every task is a pure function of the oracle model, tasks
are merged in declaration order (not completion order), and the result
document excludes wall-clock fields — so any ``jobs`` count produces
byte-identical documents.  Worker tasks are module-level functions,
picklable for the process pool that ``jobs > 1`` runs them on.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.mbench import detect
from repro.mbench.processor import Processor
from repro.uarch import tables
from repro.uarch.model import ProcessorModel

#: Instruction classes whose latency the chain ladders measure.
LATENCY_CLASSES = ("alu", "lea", "shift", "mul", "div", "load",
                   "fp_add", "fp_mul")

#: Instruction classes whose port sets stage 4 tries to fit.
PORT_CLASSES = ("lea", "shift")


class DiscoveryError(RuntimeError):
    """The harness could not complete (a probe failed to retire)."""


def _base_model(inferred: Dict[str, Any], ranges: Dict[str, Any],
                name: str = "candidate") -> ProcessorModel:
    """The best model buildable from what has been inferred so far.

    Unset parameters fall back to the hypothesis document's ``fixed``
    pins, then to the :class:`ProcessorModel` defaults — the same
    completion rule the final document uses.
    """
    params = dict(ranges.get("fixed", {}))
    params.update(inferred)
    return tables.model_from_params(name, params)


# ---------------------------------------------------------------------------
# Ladder tasks.  Each is a module-level function (process-pool
# picklable) taking (model, inferred, ranges) and returning
# (updates, evidence): parameter-path -> value, plus the measurements
# that justify them.
# ---------------------------------------------------------------------------

def _task_line_size(model, inferred, ranges):
    value = detect.DetectDecodeLineSize(Processor(model))
    return ({"frontend.decode_line_bytes": value},
            {"ladder": "alignment-slide period"})


def _task_bp_shift(model, inferred, ranges):
    value = detect.DetectBranchPredictorShift(Processor(model))
    return ({"branch_predictor.index_shift": value},
            {"ladder": "branch-pair aliasing distance"})


def _task_latency(model, inferred, ranges, klass):
    value = detect.DetectChainLatency(Processor(model), klass)
    return ({"instructions.%s.latency" % klass: value},
            {"ladder": "serial chain, differenced"})


def _task_decode_width(model, inferred, ranges):
    line = inferred["frontend.decode_line_bytes"]
    value = detect.DetectDecodeWidth(Processor(model), line)
    return ({"frontend.decode_width": value},
            {"ladder": "dense-line per-line cost",
             "note": "identified up to the per-line ceiling class"})


def _task_lsd_threshold(model, inferred, ranges):
    line = inferred["frontend.decode_line_bytes"]
    value = detect.DetectLsdIterationThreshold(Processor(model), line)
    if value is None:
        return ({"lsd.enabled": False},
                {"ladder": "LSD_UOPS onset bisection",
                 "note": "no streaming observed; LSD disabled"})
    return ({"lsd.enabled": True, "lsd.min_iterations": value},
            {"ladder": "LSD_UOPS onset bisection"})


def _task_lsd_capacity(model, inferred, ranges):
    if not inferred.get("lsd.enabled"):
        return ({}, {"ladder": "LSD_UOPS body growth",
                     "note": "skipped: LSD disabled"})
    proc = Processor(model)
    line = inferred["frontend.decode_line_bytes"]
    threshold = inferred["lsd.min_iterations"]
    budget = detect.DetectLsdLineBudgetByCounter(proc, line, threshold)
    stream = detect.DetectLsdStreamWidth(proc, line, budget, threshold)
    return ({"lsd.max_lines": budget, "lsd.stream_width": stream},
            {"ladder": "LSD_UOPS body growth + streamed-uop slope"})


def _task_penalty(model, inferred, ranges):
    candidates = _candidate_values(
        ranges, "branch_predictor.mispredict_penalty", list(range(2, 33)))
    base = _base_model(inferred, ranges)
    value = detect.DetectMispredictPenalty(Processor(model), base,
                                           candidates=candidates)
    if value is None:
        return ({}, {"ladder": "alternating-branch model fit",
                     "note": "no candidate matched; penalty left assumed"})
    return ({"branch_predictor.mispredict_penalty": value},
            {"ladder": "alternating-branch model fit",
             "candidates": list(candidates)})


def _task_forwarding(model, inferred, ranges):
    candidates = _candidate_values(
        ranges, "backend.forwarding_bw", list(range(1, 9)))
    base = _base_model(inferred, ranges)
    value = detect.DetectForwardingBandwidthMatch(Processor(model), base,
                                                 candidates=candidates)
    if value is None:
        return ({}, {"ladder": "retire-pressure model fit",
                     "note": "no candidate matched; bandwidth left assumed"})
    return ({"backend.forwarding_bw": value},
            {"ladder": "retire-pressure model fit",
             "candidates": list(candidates)})


def _task_ports(model, inferred, ranges, klass):
    path = "instructions.%s.ports" % klass
    base = _base_model(inferred, ranges)
    default = list(base.port_map[klass])
    candidates = _candidate_values(ranges, path, [])
    candidates = [list(c) for c in candidates]
    if default not in candidates:
        candidates.append(default)
    value = detect.DetectPortSet(Processor(model), base, klass, candidates)
    if value is None:
        return ({}, {"ladder": "solo + antagonist-pair model fit",
                     "note": "true port set outside the hypothesis space"})
    return ({path: list(value)},
            {"ladder": "solo + antagonist-pair model fit",
             "candidates": candidates})


def _candidate_values(ranges: Dict[str, Any], path: str,
                      fallback: List[Any]) -> List[Any]:
    """Candidate grid for *path*: the hypothesis document's draw choices
    when the parameter is drawn there, else *fallback*."""
    try:
        return list(tables.draw_choices(ranges, path))
    except (KeyError, ValueError):
        return fallback


#: Task registry: name -> (function, extra args).  Declaration order is
#: the deterministic merge order.
_TASK_FNS = {
    "line_size": (_task_line_size, ()),
    "bp_shift": (_task_bp_shift, ()),
    "decode_width": (_task_decode_width, ()),
    "lsd_threshold": (_task_lsd_threshold, ()),
    "lsd_capacity": (_task_lsd_capacity, ()),
    "penalty": (_task_penalty, ()),
    "forwarding": (_task_forwarding, ()),
}
for _klass in LATENCY_CLASSES:
    _TASK_FNS["latency_%s" % _klass] = (_task_latency, (_klass,))
for _klass in PORT_CLASSES:
    _TASK_FNS["ports_%s" % _klass] = (_task_ports, (_klass,))

#: Stages: tasks within one stage are independent (run in parallel);
#: each stage sees every earlier stage's inferences.
_STAGES: List[List[str]] = [
    ["line_size", "bp_shift"] + ["latency_%s" % k for k in LATENCY_CLASSES],
    ["decode_width", "lsd_threshold"],
    ["lsd_capacity"],
    ["penalty"],
    ["forwarding"],
    ["ports_%s" % k for k in PORT_CLASSES],
]


def _exec_task(payload: Tuple[str, ProcessorModel, Dict[str, Any],
                              Dict[str, Any]]):
    """Run one ladder task (module-level for process-pool pickling)."""
    name, model, inferred, ranges = payload
    fn, extra = _TASK_FNS[name]
    updates, evidence = fn(model, inferred, ranges, *extra)
    return name, updates, evidence


def _run_stage(names: List[str], model: ProcessorModel,
               inferred: Dict[str, Any], ranges: Dict[str, Any],
               jobs: int):
    """Execute one stage's tasks, merging results in declaration order."""
    payloads = [(name, model, dict(inferred), ranges) for name in names]
    if jobs <= 1 or len(payloads) == 1:
        outcomes = [_exec_task(p) for p in payloads]
    else:
        with ProcessPoolExecutor(min(jobs, len(payloads))) as pool:
            outcomes = list(pool.map(_exec_task, payloads))
    by_name = {name: (updates, evidence)
               for name, updates, evidence in outcomes}
    merged_updates: Dict[str, Any] = {}
    merged_evidence: Dict[str, Any] = {}
    for name in names:                      # declaration order, not arrival
        updates, evidence = by_name[name]
        merged_updates.update(updates)
        merged_evidence[name] = evidence
    return merged_updates, merged_evidence


# ---------------------------------------------------------------------------
# Cross-check battery: one probe per ladder family, replayed on the
# assembled model and compared cycle-for-cycle with the oracle.
# ---------------------------------------------------------------------------

def _battery_sources(inferred: Dict[str, Any]) -> List[Tuple[str, str]]:
    line = inferred.get("frontend.decode_line_bytes", 16)
    align = line.bit_length() - 1
    sources = [
        ("chain_alu", detect._chain_source("alu", 200, 8)),
        ("chain_mul", detect._chain_source("mul", 200, 8)),
        ("chain_fp_mul", detect._chain_source("fp_mul", 200, 8)),
        ("dense_lines", detect._nop_loop_source(48, 12 * line, align)),
        ("retire_pressure", detect._forwarding_probe_source()),
        ("mispredict", detect._penalty_source(96)),
        ("port_solo_lea", detect._port_probe_sources("lea")[0]),
        ("port_pair_shift", detect._port_probe_sources("shift")[1]),
    ]
    if inferred.get("lsd.enabled"):
        trips = inferred["lsd.min_iterations"] + 96
        nops = inferred["lsd.max_lines"] * line - 10
        sources.append(("lsd_stream",
                        detect._nop_loop_source(trips, nops, align)))
    return sources


def _crosscheck(oracle: ProcessorModel, candidate: ProcessorModel,
                inferred: Dict[str, Any]) -> Dict[str, Any]:
    benchmarks = []
    matched = 0
    for name, source in _battery_sources(inferred):
        expect = detect._run_source(oracle, source)["CPU_CYCLES"]
        got = detect._run_source(candidate, source)["CPU_CYCLES"]
        benchmarks.append({"benchmark": name, "oracle_cycles": expect,
                           "model_cycles": got, "match": got == expect})
        matched += got == expect
    return {"benchmarks": benchmarks, "matched": matched,
            "total": len(benchmarks)}


# ---------------------------------------------------------------------------
# The engine entry point.
# ---------------------------------------------------------------------------

def run_discovery(oracle: ProcessorModel, *, name: str = "discovered",
                  jobs: int = 1,
                  ranges: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Infer *oracle*'s parameters; return the raw engine report.

    The report carries ``params`` (every dotted path of the assembled
    model), ``inferred``/``assumed`` partitions, per-task ``evidence``
    and the ``crosscheck`` battery.  :func:`repro.discover.discover`
    wraps it in a :class:`~repro.discover.DiscoverResult`.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    ranges = ranges if ranges is not None else tables.load_ranges()

    inferred: Dict[str, Any] = {}
    evidence: Dict[str, Any] = {}
    for stage in _STAGES:
        updates, stage_evidence = _run_stage(stage, oracle, inferred,
                                             ranges, jobs)
        inferred.update(updates)
        evidence.update(stage_evidence)

    model = _base_model(inferred, ranges, name=name)
    doc = tables.model_to_doc(model)
    all_paths = sorted(set(_all_param_paths(model)))
    inferred_paths = sorted(inferred)
    fixed = ranges.get("fixed", {})
    assumed = {path: tables.param_value(model, path)
               for path in all_paths if path not in inferred}
    crosscheck = _crosscheck(oracle, model, inferred)
    return {
        "name": name,
        "doc": doc,
        "params": {path: tables.param_value(model, path)
                   for path in all_paths},
        "inferred": {path: inferred[path] for path in inferred_paths},
        "assumed": assumed,
        "pinned": sorted(set(fixed) - set(inferred_paths)),
        "evidence": evidence,
        "crosscheck": crosscheck,
    }


def _all_param_paths(model: ProcessorModel) -> List[str]:
    paths = list(tables._SCALAR_PATHS)
    for klass in model.latency:
        paths.append("instructions.%s.latency" % klass)
        paths.append("instructions.%s.ports" % klass)
    return paths
