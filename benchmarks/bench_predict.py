#!/usr/bin/env python3
"""Static-predictor cross-validation harness: the analytical throughput
model vs the trace simulator on every anecdote kernel x {core2, opteron}.

Three claims, one tracked file:

* **Accuracy** — for each kernel configuration the predicted
  cycles-per-iteration is compared against the simulator's *steady
  state* (two runs at different outer counts; delta-cycles over
  delta-iterations, which cancels startup and warmup).  Each
  configuration carries a pinned ``[lo, hi]`` band for the
  predicted/simulated ratio: two gates, one per edge.
  The bands encode the model's documented divergences: the
  branch-prediction-dominated nest (``nested_short_loops``) sits far
  below 1.0 by design — a static model cannot see §III.C.g aliasing —
  and short-trip loops amortize exit mispredicts the model does not
  charge for.
* **Ranking** — for each optimization-candidate pair (the kernels'
  built-in before/after variants mirroring the LOOP16, LSD-fit, and
  SCHED transforms) the model must agree with the simulator on which
  candidate wins, with agreement >= the pinned threshold.  Candidates
  compare by :meth:`Prediction.ranking_score` — headline cycles first,
  the LSD-engaged rate as the tiebreak.
* **Speed** — total prediction wall time must be ``MIN_SPEEDUP``
  (100x) cheaper than the simulation wall time it replaces, quick runs
  included: the two orders of magnitude are the reason the predictor
  exists.

Results land in ``BENCH_predict.json``, a ``mao-bench/2`` record.

Usage::

    PYTHONPATH=src python benchmarks/bench_predict.py          # full run
    PYTHONPATH=src python benchmarks/bench_predict.py --quick \
        -o /tmp/pymao_bench_predict.json                       # smoke
    python scripts/perf_report.py BENCH_predict.json           # render
"""

from __future__ import annotations

import argparse
import os
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.isdir(os.path.join(_REPO_ROOT, "src", "repro")):
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(_REPO_ROOT, "scripts"))

from perf_report import finish, gate  # noqa: E402
from repro import api  # noqa: E402
from repro.workloads import kernels  # noqa: E402

CORES = ("core2", "opteron")

#: Pinned ranking-agreement floor.  One known miss is priced in: on
#: opteron (32-byte decode lines, lsd_max_lines=1) the fig4 body is
#: never LSD-streamable, so the model ties the shifted/unshifted
#: variants that the simulator separates by one fetch line.
MIN_AGREEMENT = 0.75

#: Simulation wall time over prediction wall time, quick runs included.
MIN_SPEEDUP = 100.0

#: Kernel configurations.  ``factory(outer)`` builds the source at an
#: outer scale; ``iters(outer)`` is how many times the measured loop
#: body executes at that scale; ``(lo, hi)`` are the two scales the
#: steady state is measured between; ``band`` is the pinned
#: predicted/simulated ratio window (both cores); ``diverges`` names a
#: documented model blind spot priced into the band.
CONFIGS = [
    {
        "name": "eon_loop",
        "factory": lambda outer: kernels.eon_loop(pre_bytes=9, outer=outer),
        "loop": ".Lloop",
        "iters": lambda outer: 8 * outer,
        "scales": (300, 900),
        "quick_scales": (150, 450),
        "band": (0.25, 0.80),
        "diverges": "short-trip exit mispredicts",
    },
    {
        "name": "eon_loop+align",
        "factory": lambda outer: kernels.eon_loop(pre_bytes=9, outer=outer,
                                                  aligned=True),
        "loop": ".Lloop",
        "iters": lambda outer: 8 * outer,
        "scales": (300, 900),
        "quick_scales": (150, 450),
        "band": (0.15, 0.70),
        "diverges": "short-trip exit mispredicts",
    },
    {
        "name": "fig4_loop",
        "factory": lambda outer: kernels.fig4_loop(iterations=outer),
        "loop": ".Ll0",
        "iters": lambda outer: outer,
        "scales": (1200, 3600),
        "quick_scales": (600, 1800),
        "band": (0.55, 1.10),
        "diverges": None,
    },
    {
        "name": "fig4_loop+shift",
        "factory": lambda outer: kernels.fig4_loop(shift_nops=6,
                                                   iterations=outer),
        "loop": ".Ll0",
        "iters": lambda outer: outer,
        "scales": (1200, 3600),
        "quick_scales": (600, 1800),
        "band": (0.75, 1.45),
        "diverges": "LSD engagement is trip-count-dependent",
    },
    {
        "name": "hash_bench",
        "factory": lambda outer: kernels.hash_bench(trip=outer),
        "loop": ".Lloop",
        "iters": lambda outer: outer,
        "scales": (1200, 3600),
        "quick_scales": (600, 1800),
        "band": (0.60, 1.20),
        "diverges": None,
    },
    {
        "name": "hash_bench+sched",
        "factory": lambda outer: kernels.hash_bench(scheduled=True,
                                                    trip=outer),
        "loop": ".Lloop",
        "iters": lambda outer: outer,
        "scales": (1200, 3600),
        "quick_scales": (600, 1800),
        "band": (0.75, 1.25),
        "diverges": None,
    },
    {
        "name": "mcf_fig1",
        "factory": lambda outer: kernels.mcf_fig1(outer=outer),
        "loop": ".L3",
        "iters": lambda outer: 50 * outer,
        "scales": (80, 240),
        "quick_scales": (40, 120),
        "band": (0.40, 1.10),
        "diverges": None,
    },
    {
        "name": "nested_short_loops",
        "factory": lambda outer: kernels.nested_short_loops(outer=outer),
        "loop": ".Lcol",
        "iters": lambda outer: 2 * outer,
        "scales": (600, 1800),
        "quick_scales": (300, 900),
        "band": (0.02, 0.30),
        "diverges": "branch-prediction aliasing (SS:III.C.g)",
    },
]

#: Candidate pairs for ranking: (base config name, candidate config
#: name, the pass the candidate mirrors).  Both sides reuse the
#: steady-state measurements of the matrix above — no extra simulation.
CANDIDATE_PAIRS = [
    ("eon_loop", "eon_loop+align", "LOOP16"),
    ("fig4_loop", "fig4_loop+shift", "LSD fit"),
    ("hash_bench", "hash_bench+sched", "SCHED"),
]

#: A simulated cycles/iteration difference below this fraction is noise
#: for ranking purposes; such a pair is recorded but not scored.
MIN_SIM_DELTA = 0.03


def steady_state_cycles(config, core, quick):
    """Simulated steady cycles/iteration + total simulate seconds."""
    lo, hi = config["quick_scales"] if quick else config["scales"]
    cycles = {}
    sim_s = 0.0
    for outer in (lo, hi):
        source = config["factory"](outer)
        start = time.perf_counter()
        sim = api.simulate(source, core)
        sim_s += time.perf_counter() - start
        cycles[outer] = sim.cycles
    iters = config["iters"]
    steady = (cycles[hi] - cycles[lo]) / float(iters(hi) - iters(lo))
    return steady, sim_s


def band_gates(name, band):
    """The two edges of a pinned ratio band as gate rows."""
    lo, hi = band
    return [gate(name, ">=", lo), gate(name, "<=", hi)]


def run_matrix(quick, metrics, gates):
    """Cross-validate every configuration x core into *metrics* and
    *gates*; returns the prediction table and the steady simulated
    cycles (for ranking)."""
    predictions = {}
    steady_cycles = {}
    simulate_s = 0.0
    predict_s = 0.0
    for config in CONFIGS:
        for core in CORES:
            _lo, hi = (config["quick_scales"] if quick
                       else config["scales"])
            source = config["factory"](hi)
            start = time.perf_counter()
            prediction = api.predict(source, core, loop=config["loop"])
            predict_s += time.perf_counter() - start

            steady, sim_s = steady_state_cycles(config, core, quick)
            simulate_s += sim_s

            key = (config["name"], core)
            predictions[key] = prediction
            steady_cycles[key] = round(steady, 4)
            name = "%s.%s" % key
            metrics[name + ".bottleneck"] = prediction.bottleneck
            metrics[name + ".predicted_cycles"] = round(prediction.cycles, 4)
            metrics[name + ".simulated_cycles"] = steady_cycles[key]
            metrics[name + ".ratio"] = \
                prediction.cycles / steady if steady else 0.0
            gates += band_gates(name + ".ratio", config["band"])
    runs = len(CONFIGS) * len(CORES)
    metrics.update({
        "timing.simulate_s": round(simulate_s, 4),
        "timing.simulate_runs": 2 * runs,
        "timing.predict_s": round(predict_s, 4),
        "timing.predict_calls": runs,
        "speedup": round(simulate_s / predict_s, 1),
    })
    gates.append(gate("speedup", ">=", MIN_SPEEDUP))
    return predictions, steady_cycles


def rank_candidates(predictions, steady_cycles, metrics, gates):
    """Score each candidate pair: does the model pick the simulator's
    winner?  Ties in the model's ranking score count as a miss (the
    model failed to separate candidates the simulator separates)."""
    agreements = []
    for base, candidate, transform in CANDIDATE_PAIRS:
        for core in CORES:
            sim_base = steady_cycles[(base, core)]
            sim_cand = steady_cycles[(candidate, core)]
            delta = abs(sim_base - sim_cand) / max(sim_base, sim_cand)
            scored = delta >= MIN_SIM_DELTA
            sim_winner = "base" if sim_base <= sim_cand else "candidate"
            score_base = predictions[(base, core)].ranking_score()
            score_cand = predictions[(candidate, core)].ranking_score()
            if score_base < score_cand:
                model_winner = "base"
            elif score_cand < score_base:
                model_winner = "candidate"
            else:
                model_winner = "tie"
            agree = scored and model_winner == sim_winner
            if scored:
                agreements.append(agree)
            name = "rank.%s.%s" % (transform.replace(" ", "_"), core)
            metrics[name + ".simulated_winner"] = sim_winner
            metrics[name + ".predicted_winner"] = model_winner
            metrics[name + ".scored"] = scored
    metrics["ranking.scored_pairs"] = len(agreements)
    if agreements:
        metrics["ranking.agreement"] = round(
            sum(agreements) / float(len(agreements)), 4)
    gates.append(gate("ranking.agreement", ">=", MIN_AGREEMENT))


#: Kernels the ``--profile-matrix`` mode cross-validates on every
#: registry profile, and the broad sanity band applied there (new
#: data-only profiles have no hand-pinned per-kernel bands yet — the
#: matrix asserts the model stays within the same order of magnitude).
MATRIX_KERNELS = ("fig4_loop", "hash_bench", "hash_bench+sched")
MATRIX_BAND = (0.05, 3.0)


def run_profile_matrix(quick, metrics, gates):
    """Every registry profile x MATRIX_KERNELS, broad-band validated.

    This is the payoff of data-driven profiles: ``skylake``/``zen``
    (and any future drop-in document) flow through predict + simulate
    with zero code changes.
    """
    from repro.uarch import tables

    for config in CONFIGS:
        if config["name"] not in MATRIX_KERNELS:
            continue
        for core in tables.profile_names():
            _lo, hi = (config["quick_scales"] if quick
                       else config["scales"])
            source = config["factory"](hi)
            prediction = api.predict(source, core, loop=config["loop"])
            steady, _sim_s = steady_state_cycles(config, core, quick)
            name = "%s.%s" % (config["name"], core)
            metrics[name + ".predicted_cycles"] = round(prediction.cycles, 4)
            metrics[name + ".simulated_cycles"] = round(steady, 4)
            metrics[name + ".ratio"] = \
                prediction.cycles / steady if steady else 0.0
            gates += band_gates(name + ".ratio", MATRIX_BAND)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cross-validate the static throughput predictor "
                    "against the trace simulator")
    parser.add_argument("--quick", action="store_true",
                        help="smaller simulation scales for CI smoke")
    parser.add_argument("--profile-matrix", action="store_true",
                        help="cross-validate over the FULL profile "
                             "registry (core2/opteron/pentium4 plus "
                             "every data-only profile) instead of the "
                             "pinned two-core accuracy matrix")
    parser.add_argument("-o", "--output",
                        default=os.path.join(_REPO_ROOT,
                                             "BENCH_predict.json"),
                        help="output JSON path (default: repo root)")
    args = parser.parse_args(argv)

    metrics = {}
    gates = []
    config = {"quick": bool(args.quick)}
    if args.profile_matrix:
        run_profile_matrix(args.quick, metrics, gates)
        output = args.output
        if output.endswith("BENCH_predict.json"):
            output = output.replace("BENCH_predict.json",
                                    "BENCH_predict_matrix.json")
        config["kernels"] = list(MATRIX_KERNELS)
        return finish("predict-matrix", config, metrics, gates, output)

    predictions, steady_cycles = run_matrix(args.quick, metrics, gates)
    rank_candidates(predictions, steady_cycles, metrics, gates)
    config.update({"cores": list(CORES),
                   "configs": [c["name"] for c in CONFIGS],
                   "min_sim_delta": MIN_SIM_DELTA})
    return finish("predict", config, metrics, gates, args.output)


if __name__ == "__main__":
    sys.exit(main())
