"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 30 \
        --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs a fixed amount of work twice, untraced and traced,
and reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

A failed correctness check prints ``"correct": false`` and exits 1.
Without the program's sources beside it the benchmark exits 2 and prints
no result.

The interpreter's string-hash seed is part of the input: the benchmark
re-executes itself with ``PYTHONHASHSEED`` derived from ``--seed``, and
every process it starts inherits it, so one seed gives one set-iteration
order everywhere.  The ``serve`` check compares the server's documents
with in-process results byte for byte, and ``pymao.predict/1``'s
``critical_path`` breaks ties between equally long chains in hash order
(see ``perfbench/tests/test_perfbench.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

#: Set-ups measured per untraced run (this process's own plus children);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Rounds of the reference tasks an untraced run takes before its first
#: set-up and after its last; ``compile`` and ``simulate`` add a round
#: after each operation.
BRACKET_ROUNDS = 10
#: Problems printed before the result line.
SHOW_PROBLEMS = 20
#: How far, as a share of the traced wall, the per-layer self times may
#: fall from it: the root spans' own bookkeeping, a few microseconds per
#: operation.
ATTRIBUTION_TOLERANCE = 0.01


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compile", "simulate", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, tear down, print the set-up time")
    return parser.parse_args(argv)


def load_declared() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, per kind, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in doc[kind]}
            for kind in ("end_to_end", "per_layer")}


def workload_module(name: str) -> Any:
    from perfbench import wl_compile, wl_serve, wl_simulate

    return {"compile": wl_compile, "simulate": wl_simulate,
            "serve": wl_serve}[name]


def child_setup_s(args: argparse.Namespace) -> float:
    """One set-up in a fresh interpreter, imports included."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("set-up run failed:\n%s" % proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def assemble(declared: Dict[str, str], values: Dict[str, float],
             fill_zero: bool) -> Dict[str, Dict[str, Any]]:
    """Every declared metric, in declaration order, with its unit.  A
    per-layer metric the workload does not exercise reads 0."""
    unknown = set(values) - set(declared)
    missing = set(declared) - set(values)
    if unknown or (missing and not fill_zero):
        raise RuntimeError("metrics differ from BENCHMARK.json: unknown %s,"
                           " missing %s" % (sorted(unknown), sorted(missing)))
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in declared.items()}


def report_traced(outcome: Dict[str, Any]) -> Dict[str, float]:
    """The rollup lines and the trace-wide metrics.

    The traced wall is timed around each traced operation apart from
    the tracer; layer self times plus the unattributed remainder must
    come within :data:`ATTRIBUTION_TOLERANCE` of it, or the spans missed
    part of the work and the run fails its check.
    """
    roll = outcome["rollup"]
    wall = outcome["traced_s"]
    untraced = outcome["untraced_s"]
    parts = sorted(roll.self_s.items()) + [("unattributed",
                                            roll.unattributed_s)]
    for layer, seconds in parts:
        print("  self %-14s %10.4f s  %5.1f%%"
              % (layer, seconds, 100.0 * seconds / wall))
    total = sum(seconds for _, seconds in parts)
    gap = (wall - total) / wall
    print("  sum of self times %.6f s, traced wall %.6f s (%.4f%% apart)"
          % (total, wall, 100.0 * gap))
    if abs(gap) > ATTRIBUTION_TOLERANCE:
        outcome["problems"].append(
            "layer self times add up to %.6f s, the traced wall is %.6f s"
            % (total, wall))
    return {"obs.traced_wall_s": wall,
            "obs.trace_overhead_frac": (wall - untraced) / untraced}


def report_measured(outcome: Dict[str, Any], setup: List[float],
                    slowdown: float) -> Dict[str, float]:
    """Print the workload's own metric names; return the end-to-end
    values.  Timings are at the reference host's speed, with the value
    as measured in brackets; ``setup_s`` is divided by the run's median
    *slowdown*."""
    from perfbench.common import median

    attempted, failed = outcome["attempted"], outcome["failed"]
    values = {"success_rate": (attempted - failed) / attempted,
              "peak_rss_mb": outcome["peak_rss_mb"],
              "setup_s": median(setup) / slowdown}
    print("  host slowdown %.4f (run median)" % slowdown)
    lines = []
    for key, (name, value, measured, unit, note) in \
            outcome["measured"].items():
        values[key] = value
        lines.append((name, value, unit, "(%.4f) %s" % (measured, note)))
    lines += outcome.get("extra", []) + [
        ("error_rate", failed / attempted, "",
         "%d of %d" % (failed, attempted)),
        ("peak_rss_mb", values["peak_rss_mb"], "MB", ""),
        ("setup_s", values["setup_s"], "s",
         "(%.4f) median of %s" % (median(setup), ", ".join(
             "%.3f" % s for s in setup)))]
    for name, value, unit, note in lines:
        print("  %-22s %12.4f %-9s %s" % (name, value, unit, note))
    return values


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    hash_seed = str(args.seed % (1 << 32))
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + argv, env)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no PyMAO sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    from perfbench.common import Tracer
    from perfbench.gauge import HostSpeed

    declared = load_declared()
    module = workload_module(args.workload)
    cpus = sorted(os.sched_getaffinity(0))
    if args.workload != "serve":
        # One thread does all the work: keep it, and the reference tasks
        # that gauge the host's speed, on one CPU.
        cpus = cpus[:1]
        os.sched_setaffinity(0, cpus)
    timed = not (args.trace or args.setup_only)
    tmp_root = os.path.join(OUT, "%s-%d-%d" % (args.workload, args.seed,
                                               os.getpid()))
    os.makedirs(tmp_root)
    # Temporary files (the gas check's, the server's) stay in the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = tmp_root
    speed = HostSpeed(cpus) if timed else None
    try:
        if speed:
            speed.sample(BRACKET_ROUNDS)
        start = time.perf_counter()
        state = module.setup(args.seed, args.seconds, tmp_root)
        setup_s = time.perf_counter() - start
        try:
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            tracer = Tracer()
            if args.trace:
                outcome = module.trace(state, args.seconds, tracer)
            else:
                outcome = module.measure(state, args.seconds, speed)
        finally:
            module.close(state)
        if speed:
            setup = [setup_s] + [child_setup_s(args)
                                 for _ in range(SETUP_SAMPLES - 1)]
            speed.sample(BRACKET_ROUNDS)
    finally:
        if speed:
            speed.close()
        shutil.rmtree(tmp_root, ignore_errors=True)

    print("perfbench workload=%s seed=%d seconds=%d trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    if args.trace:
        values = dict(outcome["metrics"])
        values.update(report_traced(outcome))
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        tracer.write(os.path.join(OUT, "spans", "%s-seed%d.jsonl"
                                  % (args.workload, args.seed)))
        metrics = assemble(declared["per_layer"], values, fill_zero=True)
        for name in values:
            print("  %-34s %14.6f %s" % (name, values[name],
                                         metrics[name]["unit"]))
    else:
        values = report_measured(outcome, setup, speed.slowdown)
        metrics = assemble(declared["end_to_end"], values, fill_zero=False)
    for line in outcome["errors"][:SHOW_PROBLEMS]:
        print("error: %s" % line, file=sys.stderr)
    problems = outcome["problems"]
    for line in problems[:SHOW_PROBLEMS]:
        print("check failed: %s" % line, file=sys.stderr)
    print(json.dumps({"correct": not problems,
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
