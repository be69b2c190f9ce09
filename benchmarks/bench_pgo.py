#!/usr/bin/env python3
"""Profile-guided re-optimization vs the static default pipeline on a
skewed (Zipf-like) request mix over the anecdote kernel corpus.

The serving fiction: each kernel is a compilation input arriving with a
different request rate.  A profile (``pymao.profile/1``) is ingested per
input with weight = its request count; the PGO engine classifies the
corpus into hot / warm / cold tiers and spends the tuning budget only on
the hot decile, optimizing the rest with the default ``REDTEST:LOOP16``
spec (warm) or passing it through untouched (cold).

Two claims, one tracked file:

* **Cheaper than tuning everything** — a full autotune of every corpus
  input must cost at least ``MIN_PASS_RUN_FACTOR`` (3x) the pass runs
  of profile-guided mode (``pass_run_factor``).
* **Better than the static default** — the request-weighted total of
  *simulated* cycles under profile-guided specs must be strictly below
  optimizing every input with the static default spec
  (``cycles_saved >= 1``).  The win comes from the hot tier riding the
  tuner's winner; warm inputs tie the static default by construction.

At least one input must land in the hot tier, or the mix exercises
nothing.  Results land in ``BENCH_pgo.json``, a ``mao-bench/2`` record.

Usage::

    PYTHONPATH=src python benchmarks/bench_pgo.py          # full run
    PYTHONPATH=src python benchmarks/bench_pgo.py --quick \
        -o /tmp/pymao_bench_pgo.json                       # smoke
    python scripts/perf_report.py BENCH_pgo.json           # render
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
from repro.pgo import PgoPolicy, ProfileStore, build_profile  # noqa: E402
from repro.tune import DEFAULT_SPEC  # noqa: E402
from repro.workloads import kernels  # noqa: E402

CORE = "core2"

#: Zipf-like request mix: (kernel, factory kwargs, requests).  The
#: unmodified ``fig4_loop`` carries the bulk of the traffic, so the hot
#: tier concentrates the tuning budget where the cycles actually
#: accrue; the long tail is kernel *variants* (shifted alignment,
#: injected nops, prefix padding) — each a distinct input the
#: tune-everything strawman has to pay full search cost for.
MIX = (
    ("fig4_loop", {}, 64),
    ("mcf_fig1", {}, 18),
    ("eon_loop", {}, 9),
    ("nested_short_loops", {}, 6),
    ("hash_bench", {}, 4),
    ("fig4_loop", {"shift_nops": 2}, 3),
    ("fig4_loop", {"shift_nops": 4}, 2),
    ("mcf_fig1", {"insert_nop": True}, 2),
    ("eon_loop", {"pre_bytes": 8}, 1),
    ("hash_bench", {"scheduled": True}, 1),
)

QUICK_MIX = (
    ("fig4_loop", {}, 60),
    ("mcf_fig1", {}, 20),
    ("eon_loop", {}, 10),
    ("fig4_loop", {"shift_nops": 2}, 6),
    ("fig4_loop", {"shift_nops": 4}, 4),
    ("mcf_fig1", {"insert_nop": True}, 4),
)

#: Sampling parameters for the ingested profiles.
PERIOD = 97
SEED = 7

#: Candidate budget handed to each hot-tier tune (and to the
#: tune-everything strawman, so the comparison is apples-to-apples).
TUNE_BUDGET_PER_INPUT = 24

#: Hot = the smallest weight-descending prefix covering this fraction
#: of total sample weight.  0.55 puts exactly the heaviest input in the
#: hot tier for both mixes above.
HOT_FRACTION = 0.55

#: The cost gate: a full autotune of the corpus must cost at least this
#: factor of PGO's pass executions.
MIN_PASS_RUN_FACTOR = 3.0


def input_label(kernel: str, kwargs: dict) -> str:
    if not kwargs:
        return kernel
    inner = ",".join("%s=%s" % (key, kwargs[key]) for key in sorted(kwargs))
    return "%s[%s]" % (kernel, inner)


def policy() -> PgoPolicy:
    return PgoPolicy(hot_fraction=HOT_FRACTION,
                     tune_budget=10_000,
                     tune_budget_per_input=TUNE_BUDGET_PER_INPUT)


def simulated_cycles(asm: str) -> int:
    return int(api.simulate(asm, CORE).cycles)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark profile-guided re-optimization against "
                    "the static default spec and a full autotune")
    parser.add_argument("--quick", action="store_true",
                        help="smaller kernel mix for CI smoke")
    parser.add_argument("-o", "--output",
                        default=os.path.join(_REPO_ROOT, "BENCH_pgo.json"),
                        help="output JSON path (default: repo root)")
    args = parser.parse_args(argv)

    mix = [(input_label(kernel, kwargs),
            getattr(kernels, kernel)(**kwargs), count)
           for kernel, kwargs, count in (QUICK_MIX if args.quick else MIX)]

    rows = {name: {"requests": count} for name, _, count in mix}

    with tempfile.TemporaryDirectory(prefix="pymao-bench-pgo-") as root:
        # -- Mode A: static default spec on every input -------------------
        for name, source, _ in mix:
            optimized = api.optimize(source, DEFAULT_SPEC)
            rows[name]["static_cycles"] = simulated_cycles(
                optimized.unit.to_asm())

        # -- Mode B: full autotune of every input (the strawman) ----------
        tune_all_runs = 0
        start = time.perf_counter()
        for index, (name, source, _) in enumerate(mix):
            cache = ArtifactCache(os.path.join(root, "tune-all",
                                               "input-%d" % index))
            tuned = api.tune(source, CORE,
                             budget=TUNE_BUDGET_PER_INPUT, cache=cache)
            executed = tuned.pass_runs.get("executed", 0)
            tune_all_runs += executed
            rows[name]["tune_all_cycles"] = simulated_cycles(tuned.asm)
            rows[name]["tune_all_pass_runs"] = executed
        tune_all_s = time.perf_counter() - start

        # -- Mode C: profile-guided ---------------------------------------
        store = ProfileStore(os.path.join(root, "profiles"))
        for name, source, count in mix:
            store.ingest(build_profile(source, period=PERIOD,
                                       seed=SEED, weight=float(count)))
        start = time.perf_counter()
        guided = api.optimize_many(
            [(name, source) for name, source, _ in mix],
            profile_guided=True,
            core=CORE,
            profile_dir=store.root,
            pgo_policy=policy(),
            cache=ArtifactCache(os.path.join(root, "pgo-cache"),
                                salt="bench-pgo"))
        pgo_s = time.perf_counter() - start
        pgo_runs = 0
        for item in guided:
            if not item.ok:
                raise SystemExit("guided optimize failed for %s: %s"
                                 % (item.name, item.error))
            row = rows[item.name]
            row["tier"] = item.pgo["tier"]
            row["origin"] = item.pgo["origin"]
            row["spec"] = item.pgo["spec"] or ""
            row["pgo_cycles"] = simulated_cycles(item.asm)
            row["pgo_pass_runs"] = item.pgo.get("pass_runs", 0)
            pgo_runs += row["pgo_pass_runs"]

    metrics = {}
    for name, _, _ in mix:
        row = rows[name]
        print("%-20s req %3d tier %-4s %-32s static %7d pgo %7d runs %3d"
              % (name, row["requests"], row["tier"],
                 row["spec"] or "<passthrough>", row["static_cycles"],
                 row["pgo_cycles"], row["pgo_pass_runs"]))
        metrics.update(prefixed(name, row))

    static_total = sum(rows[name]["static_cycles"] * count
                       for name, _, count in mix)
    pgo_total = sum(rows[name]["pgo_cycles"] * count
                    for name, _, count in mix)
    metrics.update({
        "static_cycles": static_total,
        "pgo_cycles": pgo_total,
        "cycles_saved": static_total - pgo_total,
        "pgo_pass_runs": pgo_runs,
        "tune_all_pass_runs": tune_all_runs,
        "pass_run_factor": tune_all_runs / float(max(pgo_runs, 1)),
        "hot_inputs": sum(1 for row in rows.values()
                          if row["tier"] == "hot"),
        "tune_all_seconds": round(tune_all_s, 4),
        "pgo_seconds": round(pgo_s, 4),
    })
    gates = [gate("cycles_saved", ">=", 1),
             gate("pass_run_factor", ">=", MIN_PASS_RUN_FACTOR),
             gate("hot_inputs", ">=", 1)]
    config = {
        "quick": bool(args.quick),
        "core": CORE,
        "default_spec": DEFAULT_SPEC,
        "period": PERIOD,
        "seed": SEED,
        "hot_fraction": HOT_FRACTION,
        "tune_budget_per_input": TUNE_BUDGET_PER_INPUT,
    }
    return finish("pgo", config, metrics, gates, args.output)


if __name__ == "__main__":
    sys.exit(main())
