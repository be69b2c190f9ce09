#!/usr/bin/env python3
"""Closed-loop load generator for the optimization service.

Models the deployment story the server exists for: many build workers
hammering one long-lived ``mao serve`` process, which amortizes one warm
artifact cache and one worker pool across all of them.  The
harness starts a real server subprocess (``mao serve --port 0``), then
drives a mixed 100-request workload — optimize requests over distinct
translation units plus a slice of simulate requests — through
``repro.server.client`` from several closed-loop client threads:

* **cold** — empty cache directory: every optimize request parses and
  runs the full pass pipeline server-side;
* **warm** — the identical workload again: every optimize request must
  *hit* and replay its stored artifact.

Recorded per round: throughput (requests/s), p50/p99 latency, optimize
cache hit rate, errors; and, from ``/metrics`` after both rounds, the
reply memo's ``server.memo.*`` (every simulate request after the first
is a memo hit).  The server is then SIGTERMed and must drain to exit
code 0.  Results land in ``BENCH_server.json``, a ``mao-bench/2`` record
whose gates require warm throughput >= ``MIN_SPEEDUP`` times cold (3x on
full runs, 2x on quick runs), a 100% warm hit rate, no failed requests,
byte-identical replies (the same asm in both rounds, and every simulate
reply's cycles, steps and counters equal to ``api.simulate``'s) and a
graceful exit.

Usage::

    PYTHONPATH=src python benchmarks/bench_server.py            # full run
    PYTHONPATH=src python benchmarks/bench_server.py --quick \
        -o /tmp/pymao_bench_server.json                         # smoke
    python scripts/perf_report.py BENCH_server.json             # render
"""

from __future__ import annotations

import argparse
import os
import queue
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.isdir(os.path.join(_REPO_ROOT, "src", "repro")):
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(_REPO_ROOT, "scripts"))

from perf_report import finish, gate, prefixed  # noqa: E402
from repro import api  # noqa: E402
from repro.server.client import Client  # noqa: E402
from repro.workloads.corpus import CorpusConfig, generate_corpus_text  # noqa: E402,E501

SPEC = "REDZEE:REDTEST:REDMOV:ADDADD"
SIM_MAX_STEPS = 60_000

#: Warm over cold throughput on one server, by run kind.
MIN_SPEEDUP = {"quick": 2.0, "full": 3.0}


def build_workload(n_requests: int, sim_share: float,
                   scale: float) -> list:
    """The mixed request list: ``("optimize", index, source)`` over
    distinct seeded translation units, plus ``("simulate",)`` items,
    deterministically interleaved."""
    n_sim = int(n_requests * sim_share)
    n_opt = n_requests - n_sim
    items = []
    for index in range(n_opt):
        config = CorpusConfig(seed=4000 + index, scale=scale, functions=2)
        items.append(("optimize", index, generate_corpus_text(config)))
    items.extend([("simulate",)] * n_sim)
    random.Random(42).shuffle(items)
    return items


class ServerProcess:
    """One ``mao serve`` subprocess on an ephemeral port."""

    def __init__(self, cache_dir: str, max_inflight: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", cache_dir,
             "--max-inflight", str(max_inflight),
             "--max-queue", "256"],
            stdout=subprocess.PIPE, text=True, env=env)
        line = self.proc.stdout.readline().strip()
        if "listening on" not in line:
            raise RuntimeError("server failed to start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])

    def shutdown(self) -> int:
        """SIGTERM and return the exit code (0 = graceful drain)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return -9


def run_round(port: int, workload: list, clients: int) -> dict:
    """Drive the whole workload closed-loop from *clients* threads."""
    work: "queue.Queue" = queue.Queue()
    for item in workload:
        work.put(item)
    latencies = []
    asm_by_index = {}
    simulated = []
    hits = misses = other = errors = 0
    lock = threading.Lock()

    def worker() -> None:
        nonlocal hits, misses, other, errors
        with Client(port=port, retries=8, backoff_s=0.05) as client:
            while True:
                try:
                    item = work.get_nowait()
                except queue.Empty:
                    return
                start = time.perf_counter()
                try:
                    if item[0] == "optimize":
                        result = client.optimize(item[2], SPEC,
                                                 filename="tu_%d.s"
                                                 % item[1])
                    else:
                        result = client.simulate(workload="hash_bench",
                                                 core="core2",
                                                 max_steps=SIM_MAX_STEPS)
                except Exception:
                    with lock:
                        errors += 1
                    continue
                elapsed = time.perf_counter() - start
                with lock:
                    latencies.append(elapsed)
                    if item[0] == "simulate":
                        simulated.append((result["cycles"], result["steps"],
                                          result["counters"]))
                    else:
                        asm_by_index[item[1]] = result["asm"]
                        state = result.get("cache")
                        if state == "hit":
                            hits += 1
                        elif state == "miss":
                            misses += 1
                        else:
                            other += 1

    start = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    latencies.sort()

    def percentile(fraction: float) -> float:
        if not latencies:
            return 0.0
        return latencies[int(fraction * (len(latencies) - 1))]

    looked_up = hits + misses + other
    return {
        "requests": len(workload),
        "errors": errors,
        "elapsed_s": round(elapsed, 6),
        "throughput_rps": round(len(workload) / elapsed, 3),
        "p50_ms": round(percentile(0.50) * 1000, 3),
        "p99_ms": round(percentile(0.99) * 1000, 3),
        "cache_hits": hits,
        "cache_misses": misses,
        "hit_rate": round(hits / looked_up, 4) if looked_up else 0.0,
        "_asm": asm_by_index,
        "_simulated": simulated,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="closed-loop load generator for mao serve (warm "
                    "shared-cache replay vs cold optimization)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload for CI smoke runs")
    parser.add_argument("--requests", type=int, default=None,
                        help="workload size (default 100, quick 16)")
    parser.add_argument("--clients", type=int, default=4,
                        help="closed-loop client threads (default 4)")
    parser.add_argument("--max-inflight", type=int, default=4,
                        help="server execution slots (default 4)")
    parser.add_argument("-o", "--output", default=None,
                        help="JSON output path (default: "
                             "BENCH_server.json next to the repo root)")
    args = parser.parse_args(argv)

    n_requests = args.requests if args.requests is not None \
        else (16 if args.quick else 100)
    scale = 0.002 if args.quick else 0.004
    output = args.output or os.path.join(_REPO_ROOT, "BENCH_server.json")

    workload = build_workload(n_requests, sim_share=0.12, scale=scale)
    n_opt = sum(1 for item in workload if item[0] == "optimize")
    print("workload: %d requests (%d optimize + %d simulate), "
          "%d clients, spec %s"
          % (n_requests, n_opt, n_requests - n_opt, args.clients, SPEC))

    workdir = tempfile.mkdtemp(prefix="pymao-bench-server-")
    try:
        server = ServerProcess(os.path.join(workdir, "cache"),
                               args.max_inflight)
        try:
            cold = run_round(server.port, workload, args.clients)
            warm = run_round(server.port, workload, args.clients)
            with Client(port=server.port) as client:
                values = client.metrics()["values"]
        finally:
            exit_code = server.shutdown()
        cold_asm = cold.pop("_asm")
        warm_asm = warm.pop("_asm")
        simulated = cold.pop("_simulated") + warm.pop("_simulated")
        sim = api.simulate(None, "core2", workload="hash_bench",
                           max_steps=SIM_MAX_STEPS)
        expected = (sim.cycles, sim.steps, dict(sim.counters))
        metrics = {
            "speedup": round(warm["throughput_rps"]
                             / cold["throughput_rps"], 3),
            "byte_identical": cold_asm == warm_asm
            and len(cold_asm) == n_opt
            and simulated == [expected] * (2 * (n_requests - n_opt)),
            "graceful_exit": exit_code == 0,
        }
        metrics.update(prefixed("server_cold", cold))
        metrics.update(prefixed("server_warm", warm))
        metrics.update(prefixed("server_memo", {
            name: values.get("server.memo." + name, 0)
            for name in ("hit", "miss", "evict", "bytes")}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    gates = [
        gate("server_warm.hit_rate", "==", 1.0),
        gate("server_cold.errors", "==", 0),
        gate("server_warm.errors", "==", 0),
        gate("byte_identical", "==", True),
        gate("graceful_exit", "==", True),
        gate("speedup", ">=", MIN_SPEEDUP["quick" if args.quick else "full"]),
    ]
    config = {
        "quick": args.quick,
        "requests": n_requests,
        "optimize_requests": n_opt,
        "simulate_requests": n_requests - n_opt,
        "clients": args.clients,
        "max_inflight": args.max_inflight,
        "spec": SPEC,
    }
    return finish("server", config, metrics, gates, output)


if __name__ == "__main__":
    sys.exit(main())
