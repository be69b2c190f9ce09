#!/usr/bin/env python3
"""Autotuner harness: `mao tune` vs the hand-written default spec on
every anecdote kernel x {core2, opteron}.

Three claims, one tracked file:

* **Never worse** — the tuned spec's predicted cycles-per-iteration is
  <= the default ``REDTEST:LOOP16`` pipeline's on every kernel x core.
  The default spec is always in the tuner's seed set, so this holds by
  construction whenever the seeds are scored; the gate additionally
  covers the early-stop path (where the baseline already sits on the
  static lower bound and nothing is scored at all).
* **Search efficiency** — prefix-artifact sharing + early stopping must
  execute ``MIN_EFFICIENCY`` (3x) fewer pass runs than exhaustively
  materializing every
  generated candidate from scratch (``total_steps`` in the tune
  accounting: sum of spec lengths over all candidates the search
  created, including ones never admitted).
* **Warm replay** — a second tune of the same input through a fresh
  cache handle over the same store must execute **zero** pass runs and
  return the identical winner: the search is fully replayed from the
  shared artifact store.

Results land in ``BENCH_tune.json``, a ``mao-bench/2`` record with
one never-worse, zero-run and same-winner gate per kernel x core.

Usage::

    PYTHONPATH=src python benchmarks/bench_tune.py          # full run
    PYTHONPATH=src python benchmarks/bench_tune.py --quick \
        -o /tmp/pymao_bench_tune.json                       # smoke
    python scripts/perf_report.py BENCH_tune.json           # render
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.isdir(os.path.join(_REPO_ROOT, "src", "repro")):
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(_REPO_ROOT, "scripts"))

from perf_report import finish, gate, prefixed  # noqa: E402
from repro import api  # noqa: E402
from repro.batch.cache import ArtifactCache  # noqa: E402
from repro.tune import DEFAULT_SPEC  # noqa: E402
from repro.workloads import kernels  # noqa: E402

CORES = ("core2", "opteron")

KERNELS = ("mcf_fig1", "eon_loop", "fig4_loop", "hash_bench",
           "nested_short_loops")

QUICK_KERNELS = ("mcf_fig1", "fig4_loop", "hash_bench")

#: The gate: caching + early stop must beat exhaustive enumeration of
#: the same candidate set by at least this factor in pass executions.
MIN_EFFICIENCY = 3.0


def default_cycles(source: str, core: str) -> float:
    """Predicted cycles/iteration of the hand-written default spec —
    exactly what an untuned `mao --mao=REDTEST:LOOP16` run would get."""
    optimized = api.optimize(source, DEFAULT_SPEC)
    return api.predict(optimized.unit, core).cycles


def tune_row(name: str, core: str, cache_root: str) -> dict:
    source = getattr(kernels, name)()
    base_cycles = default_cycles(source, core)

    cache_dir = os.path.join(cache_root, "%s-%s" % (name, core))
    start = time.perf_counter()
    cold = api.tune(source, core, cache=ArtifactCache(cache_dir))
    cold_s = time.perf_counter() - start

    # Warm replay through a *fresh* handle over the same store: the
    # search must reconstruct every prefix from disk, running nothing.
    start = time.perf_counter()
    warm = api.tune(source, core, cache=ArtifactCache(cache_dir))
    warm_s = time.perf_counter() - start

    row = {
        "default_cycles": round(base_cycles, 4),
        "tuned_cycles": round(cold.winner_cycles, 4),
        "winner_spec": cold.winner_spec or "",
        "stop": str(cold.early_stop.get("reason")),
        "never_worse": bool(cold.winner_cycles <= base_cycles + 1e-9),
        "cold.executed": cold.pass_runs.get("executed", 0),
        "cold.cache_hits": cold.pass_runs.get("cache_hits", 0),
        "cold.naive_steps": cold.pass_runs.get("total_steps", 0),
        "cold.seconds": round(cold_s, 4),
        "warm.executed": warm.pass_runs.get("executed", 0),
        "warm.cache_hits": warm.pass_runs.get("cache_hits", 0),
        "warm.seconds": round(warm_s, 4),
        "warm_winner_identical": bool(warm.winner == cold.winner),
    }
    print("%-20s %-8s default %6.2f tuned %6.2f %-28s runs %3d/%3d "
          "warm %d stop=%s"
          % (name, core, base_cycles, cold.winner_cycles,
             cold.winner_spec or "<none>", row["cold.executed"],
             row["cold.naive_steps"], row["warm.executed"], row["stop"]))
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark the pass-pipeline autotuner against the "
                    "default spec")
    parser.add_argument("--quick", action="store_true",
                        help="smaller kernel matrix for CI smoke")
    parser.add_argument("-o", "--output",
                        default=os.path.join(_REPO_ROOT, "BENCH_tune.json"),
                        help="output JSON path (default: repo root)")
    args = parser.parse_args(argv)

    names = QUICK_KERNELS if args.quick else KERNELS
    cores = ("core2",) if args.quick else CORES

    metrics = {}
    gates = []
    naive = executed = 0
    with tempfile.TemporaryDirectory(prefix="pymao-bench-tune-") as root:
        for name in names:
            for core in cores:
                row = tune_row(name, core, root)
                naive += row["cold.naive_steps"]
                executed += row["cold.executed"]
                prefix = "%s.%s" % (name, core)
                metrics.update(prefixed(prefix, row))
                gates += [gate(prefix + ".never_worse", "==", True),
                          gate(prefix + ".warm.executed", "==", 0),
                          gate(prefix + ".warm_winner_identical", "==",
                               True)]

    metrics.update({
        "naive_steps": naive,
        "executed": executed,
        "efficiency": naive / float(executed) if executed
        else float(naive or 1),
    })
    gates.append(gate("efficiency", ">=", MIN_EFFICIENCY))
    config = {"quick": bool(args.quick), "cores": list(cores),
              "kernels": list(names), "default_spec": DEFAULT_SPEC}
    return finish("tune", config, metrics, gates, args.output)


if __name__ == "__main__":
    sys.exit(main())
