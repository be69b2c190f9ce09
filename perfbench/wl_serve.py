"""``serve``: a real ``mao serve`` process under two closed-loop clients.

Each run starts a fresh server (default configuration, ephemeral port,
empty cache directory) on the first CPU the benchmark may use, and runs
its clients on the others: unpinned, the server's GIL hand-offs waited
on whichever CPU the host was slowing, and run-to-run throughput swung
twice as far as the single-threaded workloads' under the same drift.
Two client threads in this process, each with one keep-alive
:class:`repro.server.client.Client` (``retries=0``, so a refusal is a
failed operation), send a seeded, Zipf-skewed mix over
small translation units and kernels: ``/v1/optimize`` (a first touch
writes the artifact cache, repeats read it, and one request in 40 sends
a file never sent before), ``/v1/predict``, ``/v1/tune`` and a small
``/v1/simulate``.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from perfbench import checks
from perfbench.common import (Tracer, end_to_end, median,
                              peak_rss_mb_pid, rollup)
from perfbench.gauge import HostSpeed

SPEC = "REDZEE:REDTEST:REDMOV:ADDADD:SCHED:LOOP16"
CLIENTS = 2
ZIPF_S = 1.1
#: Each client's requests come in cycles of 40 with exactly these counts
#: per endpoint, in a seeded order, and draw every endpoint's inputs from
#: a seeded shuffle of a ticket list in which rank r holds
#: max(1, round(tickets * p_r)) tickets for Zipf probabilities p_r.  Exact
#: proportions keep the few expensive requests (tune, cold optimize) from
#: swinging a run's throughput the way independent draws did.
MIX = (("optimize", 27, 800), ("fresh", 1, 0), ("predict", 6, 240),
       ("tune", 2, 48), ("simulate", 4, 96))
#: One request in 40 optimizes a file no request has sent before (a
#: ``fresh`` slot): these are the slowest requests, and they fall evenly
#: across the run.  The Zipf pool's own first touches bunch up in its
#: first seconds, and while they were the slowest requests the latency
#: tail followed the host's speed in those seconds alone.
FRESH_EVERY = 40
#: Requests per second on the reference host (2 cores); sizes a run.
NOMINAL_RPS = 80.0
#: A run stops issuing requests after this long, whatever is left.
CAP_S = 120.0
#: Parts of a run's requests, with the host's speed gauged between them.
SEGMENTS = 16


@dataclass
class Pool:
    """The seeded inputs, in Zipf rank order per endpoint."""

    optimize: List[Tuple[str, str]]
    #: Per client, the files its ``fresh`` slots send, in order.
    fresh: List[List[Tuple[str, str]]]
    predict: List[Tuple[str, str, str]]     # (name@core, source, core)
    tune: List[Tuple[str, str]]
    simulate: List[Tuple[str, str, str]]


def _kernel_variants(rng: random.Random) -> List[Tuple[str, str]]:
    """Three variants of four kernels.  The variant fixes the code shape;
    the seed draws the trip counts, kept small so that a simulation costs
    about what a cold optimize does (larger ones made the latency tail a
    matter of which two simulations happened to overlap)."""
    from repro.workloads import kernels

    variants = []
    for index in range(3):
        variants += [
            ("fig4_loop.%d" % index, kernels.fig4_loop(
                shift_nops=3 * index, iterations=rng.randint(54, 66))),
            ("hash_bench.%d" % index, kernels.hash_bench(
                scheduled=index == 1, trip=rng.randint(54, 66))),
            ("eon_loop.%d" % index, kernels.eon_loop(
                pre_bytes=3 * index, outer=rng.randint(13, 17))),
            ("nested_short_loops.%d" % index, kernels.nested_short_loops(
                separated=index == 1, outer=rng.randint(20, 25))),
        ]
    return variants


def make_pool(seed: int, requests: int) -> Pool:
    """Each Zipf rank holds the same kind of input for every seed (a
    translation unit of a fixed size class, or a fixed kernel variant);
    the seed draws the contents.  Shuffling kinds across ranks moved
    throughput by a factor of two between seeds.  Each client gets the
    fresh files for *requests* requests."""
    from repro.workloads.corpus import CorpusConfig, generate_corpus_text

    rng = random.Random(seed)
    kernels = _kernel_variants(rng)
    optimize = []
    for index in range(72):
        optimize.append(("tu%03d.s" % index, generate_corpus_text(
            CorpusConfig(seed=rng.randrange(1 << 30), scale=0.0001,
                         functions=1))))
        if index % 6 == 5:
            optimize.append(kernels[index // 6])
    fresh = [[("new%d_%03d.s" % (client, index), generate_corpus_text(
        CorpusConfig(seed=rng.randrange(1 << 30), scale=0.0002,
                     functions=2)))
              for index in range(-(-requests // FRESH_EVERY))]
             for client in range(CLIENTS)]
    cores = itertools.cycle(("core2", "opteron"))
    # A warm fig4_loop tune still re-scores ~35 candidates (~0.5 s), which
    # alone set the latency tail and swung it between runs.
    tune = [k for k in kernels if not k[0].startswith("fig4_loop")]
    return Pool(optimize=optimize, fresh=fresh,
                predict=[("%s@%s" % (name, core), source, core)
                         for name, source in kernels
                         for core in ("core2", "opteron")],
                tune=tune[:6],
                simulate=[("%s@%s" % (name, core), source, core)
                          for (name, source), core in zip(kernels, cores)])


def _tickets(size: int, total: int) -> List[int]:
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, size + 1)]
    norm = sum(weights)
    return [index for index, weight in enumerate(weights)
            for _ in range(max(1, round(total * weight / norm)))]


def request_stream(pool: Pool, seed: int, client: int
                   ) -> Iterator[Tuple[str, Tuple]]:
    """One client's endless, seeded ``(endpoint, item)`` sequence."""
    rng = random.Random("%d/%d" % (seed, client))
    fresh = itertools.cycle(pool.fresh[client])
    tickets = {name: _tickets(len(getattr(pool, name)), total)
               for name, _, total in MIX if total}
    queues: Dict[str, List[int]] = {name: [] for name in tickets}
    slots = [name for name, count, _ in MIX for _ in range(count)]
    while True:
        rng.shuffle(slots)
        for name in slots:
            if name == "fresh":
                yield "optimize", next(fresh)
                continue
            if not queues[name]:
                queues[name] = list(tickets[name])
                rng.shuffle(queues[name])
            yield name, getattr(pool, name)[queues[name].pop()]


def _call(client: Any, endpoint: str, item: Tuple) -> Tuple[str, Any]:
    """One request; returns (cache state, what the checks compare)."""
    if endpoint == "optimize":
        name, source = item
        reply = client.optimize(source, SPEC, filename=name)
        return reply["cache"], hashlib.sha256(
            reply["asm"].encode()).hexdigest()
    if endpoint == "predict":
        _, source, core = item
        return "", client.predict(source, core)["prediction"]
    if endpoint == "tune":
        _, source = item
        reply = client.tune(source, "core2")
        return "", (reply["tune"]["winner"], reply["tune"]["leaderboard"],
                    reply["asm"])
    _, source, core = item
    reply = client.simulate(source, core)
    return "", (reply["cycles"], reply["steps"], reply["counters"])


@dataclass
class Record:
    endpoint: str
    key: str
    cache: str
    seconds: float
    ok: bool
    value: Any = None
    error: str = ""
    #: The whole request, its spans included, timed apart from the tracer.
    outer_s: float = 0.0


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    cache_dir: str
    drain: threading.Thread


@dataclass
class State:
    seed: int
    src: str
    tmp_root: str
    pool: Pool
    #: The CPUs the benchmark may use: the server gets the first.
    cpus: List[int] = field(default_factory=lambda: sorted(
        os.sched_getaffinity(0)))
    server: Optional[Server] = None
    servers_started: int = 0
    problems: List[str] = field(default_factory=list)


def start_server(state: State) -> Server:
    """A fresh ``mao serve`` with an empty cache; waits until it listens."""
    from repro.server.client import Client

    state.servers_started += 1
    run_dir = os.path.join(state.tmp_root,
                           "server%d" % state.servers_started)
    cache_dir = os.path.join(run_dir, "cache")
    os.makedirs(cache_dir)
    env = dict(os.environ, PYTHONPATH=state.src)
    with open(os.path.join(run_dir, "stderr.log"), "w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", cache_dir,
             "--profile-dir", os.path.join(run_dir, "profiles")],
            stdout=subprocess.PIPE, stderr=stderr, text=True, env=env)
    if len(state.cpus) > 1:
        os.sched_setaffinity(proc.pid, state.cpus[:1])
    deadline = time.monotonic() + 60
    line = ""
    while time.monotonic() < deadline and not line:
        ready, _, _ = select.select([proc.stdout], [], [], 1.0)
        if ready:
            line = proc.stdout.readline()
            if not line:
                break
    if "listening on" not in line:
        proc.kill()
        proc.wait()
        raise RuntimeError("mao serve did not start (see %s)" % run_dir)
    port = int(line.rsplit(":", 1)[1])
    drain = threading.Thread(target=proc.stdout.read, daemon=True)
    drain.start()
    server = Server(proc=proc, port=port, cache_dir=cache_dir, drain=drain)
    with Client(port=port, retries=0) as client:
        client.healthz()
    return server


def stop_server(state: State, server: Server) -> None:
    """SIGTERM must drain the server and exit 0."""
    server.proc.send_signal(signal.SIGTERM)
    try:
        code = server.proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        server.proc.kill()
        server.proc.wait()
        code = None
    server.drain.join(timeout=10)
    server.proc.stdout.close()
    if code != 0:
        state.problems.append("server exited %s on SIGTERM" % code)
    shutil.rmtree(server.cache_dir, ignore_errors=True)


def _warm_up(port: int, seed: int) -> None:
    """Inputs outside the pool, so the pool's cache entries start cold."""
    from repro.server.client import Client
    from repro.workloads import kernels
    from repro.workloads.corpus import CorpusConfig, generate_corpus_text

    warm_tu = generate_corpus_text(CorpusConfig(seed=~seed, scale=0.0001,
                                                functions=1))
    warm_kernel = kernels.fig4_loop(iterations=37)
    with Client(port=port, retries=0) as client:
        client.optimize(warm_tu, SPEC)
        client.predict(warm_kernel, "core2")
        client.tune(warm_kernel, "core2")
        client.simulate(warm_kernel, "opteron")


def setup(seed: int, seconds: int, tmp_root: str) -> State:
    import repro
    import repro.server.client  # noqa: F401  (the client layer's import)

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    state = State(seed=seed, src=src, tmp_root=tmp_root,
                  pool=make_pool(seed, _requests(seconds)[0]))
    state.server = start_server(state)
    try:
        _warm_up(state.server.port, seed)
    except BaseException:
        close(state)
        raise
    return state


def close(state: State) -> None:
    if state.server is not None:
        stop_server(state, state.server)
        state.server = None


def _streams(state: State) -> List[Iterator[Tuple[str, Tuple]]]:
    return [request_stream(state.pool, state.seed, index)
            for index in range(CLIENTS)]


def _run_clients(state: State, port: int,
                 streams: List[Iterator[Tuple[str, Tuple]]],
                 counts: List[int], deadline: float,
                 tracer: Optional[Tracer] = None
                 ) -> Tuple[List[List[Record]], float]:
    """Run client ``i`` for the next ``counts[i]`` requests of
    ``streams[i]``, or until *deadline* (a ``perf_counter`` time).
    Returns the per-client records and the wall time."""
    from repro.server.client import Client, ServerError

    tracer = tracer or Tracer(enabled=False)
    records: List[List[Record]] = [[] for _ in range(CLIENTS)]
    crashes: List[BaseException] = []
    start = time.perf_counter()

    def loop(index: int) -> None:
        if len(state.cpus) > 1:
            os.sched_setaffinity(0, state.cpus[1:])   # this thread only
        stream = itertools.islice(streams[index], counts[index])
        try:
            with Client(port=port, retries=0, timeout=60) as client:
                for endpoint, item in stream:
                    outer = time.perf_counter()
                    if outer >= deadline:
                        break
                    with tracer.span("serve.request"):
                        with tracer.span("server.%s" % endpoint, "server"):
                            t0 = time.perf_counter()
                            try:
                                cache, value = _call(client, endpoint, item)
                                record = Record(endpoint, item[0], cache,
                                                time.perf_counter() - t0,
                                                True, value)
                            except ServerError as exc:
                                record = Record(endpoint, item[0], "",
                                                time.perf_counter() - t0,
                                                False, error=str(exc))
                    record.outer_s = time.perf_counter() - outer
                    records[index].append(record)
        except BaseException as exc:  # re-raised in the main thread
            crashes.append(exc)

    threads = [threading.Thread(target=loop, args=(index,))
               for index in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.perf_counter()) + 60)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish")
    if crashes:
        raise crashes[0]
    return records, time.perf_counter() - start


def _check(state: State, records: List[Record]) -> List[str]:
    """Every response must equal the in-process result for its input."""
    from repro import api

    items = {("optimize", item[0]): item
             for item in itertools.chain(*state.pool.fresh)}
    for endpoint in ("optimize", "predict", "tune", "simulate"):
        for item in getattr(state.pool, endpoint):
            items[endpoint, item[0]] = item
    expected: Dict[Tuple[str, str], Any] = {}
    problems: List[str] = []
    for record in records:
        if not record.ok:
            continue
        key = (record.endpoint, record.key)
        if key not in expected:
            item = items[key]
            if record.endpoint == "optimize":
                asm = api.optimize(item[1], SPEC, cache=False).to_asm()
                expected[key] = hashlib.sha256(asm.encode()).hexdigest()
            elif record.endpoint == "predict":
                expected[key] = api.predict(item[1], item[2]).to_dict()
            elif record.endpoint == "tune":
                doc = api.tune(item[1], "core2", cache=False)
                tuned = doc.to_dict()
                expected[key] = (tuned["winner"], tuned["leaderboard"],
                                 doc.asm)
            else:
                sim = api.simulate(item[1], item[2])
                expected[key] = (sim.cycles, sim.steps, dict(sim.counters))
        problems += checks.equal_problems("/v1/%s %s" % key, expected[key],
                                          record.value)
    return problems


def _metrics(port: int) -> Dict[str, float]:
    from repro.server.client import Client

    with Client(port=port, retries=0) as client:
        return client.metrics()["values"]


def _requests(seconds: float) -> List[int]:
    return [max(20, int(seconds * NOMINAL_RPS / CLIENTS))] * CLIENTS


def measure(state: State, seconds: int, speed: HostSpeed
            ) -> Dict[str, Any]:
    """A fixed request count per client, sized to take ``seconds`` on the
    reference host: a time limit would let a faster run reach the cheap,
    all-hit part of the ticket sequences sooner and inflate its rate.
    The requests go in :data:`SEGMENTS` parts, and the host's speed is
    gauged between them, when no request is in flight: run beside the
    requests, the gauge would take CPU time from the server and clients.
    """
    streams = _streams(state)
    deadline = time.perf_counter() + CAP_S
    records: List[Record] = []
    walls: List[Tuple[float, int]] = []
    latencies: List[Tuple[float, int]] = []
    speed.sample()
    total = _requests(seconds)
    for part in range(SEGMENTS):
        counts = [count * (part + 1) // SEGMENTS - count * part // SEGMENTS
                  for count in total]
        per_client, wall = _run_clients(state, state.server.port, streams,
                                        counts, deadline)
        mark = speed.sample()
        walls.append((wall, mark))
        for record in (r for rs in per_client for r in rs):
            records.append(record)
            if record.ok:
                latencies.append((record.seconds, mark))
    rss = peak_rss_mb_pid(state.server.proc.pid)
    close(state)
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if not r.ok),
        "errors": [r.error for r in records if not r.ok],
        "problems": state.problems + _check(state, records),
        "peak_rss_mb": rss,
        "measured": end_to_end(speed, ("serve_rps", "serve_ms_p50",
                                       "serve_ms_tail"),
                               "req/s", len(latencies), walls, latencies,
                               "%d clients, closed loop" % CLIENTS),
    }


def trace(state: State, seconds: int, tracer: Tracer) -> Dict[str, Any]:
    """Four quarters, untraced, traced, traced, untraced, each sending the
    same opening requests to a fresh server, so that server age and order
    weigh on both sides alike.  Per-layer numbers come from the traced
    quarters and their ``/metrics`` deltas."""
    counts = _requests(seconds / 4.0)
    plain: List[Record] = []
    records: List[Record] = []
    counters: Dict[str, float] = {}
    for quarter, traced in enumerate((False, True, True, False)):
        if quarter:
            state.server = start_server(state)
            _warm_up(state.server.port, state.seed)
        before = _metrics(state.server.port)
        per_client, _ = _run_clients(
            state, state.server.port, _streams(state), counts,
            time.perf_counter() + CAP_S / 4, tracer if traced else None)
        after = _metrics(state.server.port)
        close(state)
        (records if traced else plain).extend(
            r for rs in per_client for r in rs)
        if traced:
            for name, value in after.items():
                counters[name] = counters.get(name, 0) + value \
                    - before.get(name, 0)

    ok = [r for r in records if r.ok]

    def p50(endpoint: str, cache: Optional[str] = None) -> float:
        return median([r.seconds * 1e3 for r in ok
                       if r.endpoint == endpoint
                       and (cache is None or r.cache == cache)])

    optimize = [r for r in ok if r.endpoint == "optimize"]
    hits = counters.get("batch.cache.hit", 0)
    misses = counters.get("batch.cache.miss", 0)
    spans = tracer.spans
    roll = rollup(spans)
    values = {
        "server.requests_s": roll.self_s.get("server", 0.0),
        "server.optimize.hit_ms_p50": p50("optimize", "hit"),
        "server.optimize.miss_ms_p50": p50("optimize", "miss"),
        "server.predict_ms_p50": p50("predict"),
        "server.tune_ms_p50": p50("tune"),
        "server.simulate_ms_p50": p50("simulate"),
        "server.optimize.coalesced_share": sum(
            1 for r in optimize if r.cache == "coalesced") / len(optimize)
        if optimize else 0.0,
        "batch.cache.hit_rate": hits / (hits + misses) if hits + misses
        else 0.0,
        "batch.cache.stores": counters.get("batch.cache.store", 0),
        "tune.pass_runs": counters.get("tune.pass_runs", 0),
        "server.rejected": counters.get("server.rejected", 0),
        "server.timeouts": counters.get("server.timeouts", 0),
        "serve.unattributed_s": roll.unattributed_s,
    }
    both = plain + records
    return {"attempted": len(both),
            "failed": sum(1 for r in both if not r.ok),
            "errors": [r.error for r in both if not r.ok],
            "problems": state.problems + _check(state, both),
            "metrics": values, "rollup": roll,
            "untraced_s": sum(r.outer_s for r in plain),
            "traced_s": sum(r.outer_s for r in records)}
