"""The sharded optimization fleet: front door + N process workers.

One ``mao serve`` process executes every pipeline behind a single GIL,
so its throughput is capped at one core no matter how many the host
has.  ``mao fleet`` removes that ceiling with a two-tier shape:

* a **front door** — this module: one asyncio process that owns
  admission control and backpressure for the whole fleet, terminates
  client connections, and *routes* each request instead of executing
  anything CPU-bound itself;
* **N workers** — plain ``mao serve`` subprocesses on loopback
  ephemeral ports (the existing :mod:`repro.server.http` framing is the
  local transport), each with its own GIL, its own worker pool, and its
  own in-memory state, all sharing **one on-disk artifact cache**.

**Cache-affinity routing.**  Requests are placed with a consistent-hash
ring (:mod:`repro.server.ring`) keyed by the request's *artifact cache
key* (salt + source sha + injective spec encoding — exactly the key the
worker will look up).  Identical requests therefore land on the worker
whose in-memory state and singleflight table are warm.  Affinity is an
optimization, never a correctness requirement: the content-addressed
store is shared, so *any* worker can serve *any* key — a put by worker
A is a hit for worker B (cross-instance coherence; pinned by tests).

**Zero dropped admitted requests.**  The front door admits a request
iff the fleet has capacity (``workers x worker_inflight`` executing
slots plus ``max_queue``); everything else is refused up front with
``503 + Retry-After``.  Once admitted, a request always ends in a real
response: forwarding retries across the ring's preference order when a
worker is draining or unreachable, and waits out transient all-busy
windows, bounded end-to-end by ``request_timeout_s`` (``504``).

**Rolling restarts.**  ``POST /admin/restart`` drains one worker at a
time: the member leaves the ring (its keys reroute to ring successors
with bounded movement), the worker process finishes its inflight
requests under SIGTERM's graceful-drain contract, a replacement is
spawned on the same *slot id* and rejoins the ring — re-inheriting the
same ring segment, whose artifacts are already warm on the shared
store.  Admitted requests never drop across the whole cycle.

``GET /healthz`` aggregates every worker's health (live ``inflight`` /
``queue_depth`` per worker plus fleet totals and ring membership);
``GET /metrics`` merges every worker's registry snapshot with the front
door's own counters into one ``pymao.trace/1`` metrics event.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.batch.cache import (
    DEFAULT_MAX_BYTES,
    default_cache_dir,
    default_salt,
)
from repro.result import register_schema
from repro.server import work
from repro.server.app import Service, ServiceThread
from repro.server.http import (
    ProtocolError,
    Request,
    Response,
    read_response,
    render_request,
    render_response,
)
from repro.server.ring import DEFAULT_REPLICAS, HashRing

#: Schema tag carried by fleet-level response envelopes (/healthz).
FLEET_SCHEMA = register_schema("fleet", "pymao.fleet/1")

#: Headers never forwarded between hops (owned per-connection).
_HOP_HEADERS = ("connection", "content-length", "host", "keep-alive")

#: How long a spawned worker may take to print its listening line.
WORKER_START_TIMEOUT_S = 30.0


@dataclass
class FleetConfig:
    """Everything a :class:`FleetServer` needs to run."""

    host: str = "127.0.0.1"
    port: int = 8423                  # 0 = ephemeral (bound port on start)
    workers: int = 2                  # worker process count
    worker_backend: str = "thread"    # each worker's pool kind
    worker_inflight: int = 1          # execution slots per worker
    worker_queue: int = 64            # per-worker admitted-waiting bound
    max_queue: int = 64               # front-door queue on top of slots
    request_timeout_s: float = 120.0  # admission-to-response bound
    max_body_bytes: int = 8 * 1024 * 1024
    retry_after_s: float = 1.0        # advisory backoff floor on 503s
    cache: bool = True
    cache_dir: Optional[str] = None   # None = default_cache_dir()
    cache_salt: Optional[str] = None  # None = default_salt()
    max_cache_bytes: int = DEFAULT_MAX_BYTES
    ring_replicas: int = DEFAULT_REPLICAS
    drain_grace_s: float = 60.0
    #: Root of the shared PGO profile store each worker's profile
    #: endpoint serves; ``None`` = :func:`repro.pgo.default_profile_dir`.
    profile_dir: Optional[str] = None
    #: Artificial pre-execution delay per work item inside each worker
    #: (the server's ``test_delay_s`` hook) — the fleet bench uses it as
    #: a pinned per-request service floor; never set in production.
    worker_test_delay_s: float = 0.0

    def capacity(self) -> int:
        return self.workers * self.worker_inflight + self.max_queue


class ForwardError(Exception):
    """One forward attempt failed at the transport/framing level."""


class WorkerSlot:
    """One fleet slot: a stable ring member id bound to a sequence of
    worker process generations."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.member = "w%d" % index
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.generation = 0
        self.state = "down"            # down | live | draining

    def describe(self) -> Dict[str, Any]:
        return {"slot": self.index, "member": self.member,
                "state": self.state, "port": self.port,
                "generation": self.generation}


def _worker_env() -> Dict[str, str]:
    """The child's environment: whatever ``repro`` tree this process is
    running from must be importable in the worker."""
    import repro

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class FleetServer(Service):
    """The front door: admission + consistent-hash routing over N
    ``mao serve`` worker subprocesses."""

    name = "fleet"
    request_id_format = "fleet-%06d"
    full_message = "fleet at capacity (admitted >= %d)"
    routes = {**Service.routes, ("POST", "/admin/restart"): "_restart"}

    def __init__(self, config: FleetConfig, *,
                 registry: Optional[obs.Registry] = None) -> None:
        super().__init__(config, registry=registry)
        self.ring = HashRing(replicas=config.ring_replicas)
        self._slots: List[WorkerSlot] = []
        self._restart_lock: Optional[asyncio.Lock] = None
        #: member -> idle upstream connections [(reader, writer, gen)].
        self._pools: Dict[str, List[Tuple[asyncio.StreamReader,
                                          asyncio.StreamWriter, int]]] = {}
        salt = config.cache_salt or default_salt()
        self._key_salt = salt.encode("utf-8")

    # -- worker lifecycle ---------------------------------------------------

    def _worker_argv(self) -> List[str]:
        config = self.config
        argv = [sys.executable, "-m", "repro.cli", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--parallel-backend", config.worker_backend,
                "--max-inflight", str(config.worker_inflight),
                "--max-queue", str(config.worker_queue),
                "--timeout", "%g" % config.request_timeout_s,
                "--max-body-bytes", str(config.max_body_bytes)]
        if config.cache:
            argv += ["--cache-dir",
                     config.cache_dir or default_cache_dir()]
            if config.cache_salt:
                argv += ["--cache-salt", config.cache_salt]
        else:
            argv += ["--no-cache"]
        if config.profile_dir:
            argv += ["--profile-dir", config.profile_dir]
        if config.worker_test_delay_s:
            argv += ["--test-delay-s", "%g" % config.worker_test_delay_s]
        return argv

    def _spawn_worker_sync(self, slot: WorkerSlot) -> None:
        """Start one worker subprocess and wait for its bound port.
        Blocking — always called through the loop's executor."""
        proc = subprocess.Popen(self._worker_argv(),
                                stdout=subprocess.PIPE, text=True,
                                env=_worker_env())
        # A worker that hangs before printing its listening line must not
        # block start-up or a rolling restart forever.
        ready, _, _ = select.select([proc.stdout], [], [],
                                    WORKER_START_TIMEOUT_S)
        line = proc.stdout.readline().strip() if ready else ""
        if "listening on" not in line:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            raise RuntimeError("worker %s failed to start: %r"
                               % (slot.member, line))
        slot.proc = proc
        slot.port = int(line.rsplit(":", 1)[1])
        slot.generation += 1
        slot.state = "live"

    def _stop_worker_sync(self, slot: WorkerSlot) -> int:
        """SIGTERM one worker and wait for its graceful drain."""
        proc = slot.proc
        if proc is None:
            return 0
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=self.config.drain_grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        proc.stdout.close()
        slot.proc = None
        slot.port = None
        slot.state = "down"
        return code

    def _close_pool(self, member: str) -> None:
        for _reader, writer, _gen in self._pools.pop(member, []):
            writer.close()

    # -- lifecycle ----------------------------------------------------------

    async def _open(self) -> None:
        config = self.config
        if config.workers < 1:
            raise ValueError("fleet needs at least one worker")
        if config.worker_inflight < 1:
            raise ValueError("worker_inflight must be >= 1")
        if config.worker_backend not in ("thread", "process"):
            raise ValueError("unknown worker backend %r"
                             % config.worker_backend)
        self._restart_lock = asyncio.Lock()
        self._slots = [WorkerSlot(i) for i in range(config.workers)]
        try:
            await asyncio.gather(*[
                self._loop.run_in_executor(None, self._spawn_worker_sync,
                                           slot)
                for slot in self._slots])
        except Exception:
            for slot in self._slots:
                if slot.proc is not None:
                    await self._loop.run_in_executor(
                        None, self._stop_worker_sync, slot)
            raise
        for slot in self._slots:
            self.ring.add(slot.member)
        self.registry.gauge("fleet.workers_live", len(self.ring))

    async def _close(self) -> None:
        """Stop the workers once the inflight forwards have finished."""
        for slot in self._slots:
            self.ring.remove(slot.member)
            self._close_pool(slot.member)
        await asyncio.gather(*[
            self._loop.run_in_executor(None, self._stop_worker_sync, slot)
            for slot in self._slots])

    def _publish_gauges(self) -> None:
        self.registry.gauge("fleet.admitted", self._admitted)

    # -- admission + forwarding ---------------------------------------------

    def routing_key(self, request: Request) -> str:
        """The consistent-hash key for *request*: its endpoint row's
        ``route_key`` over the decoded body (see :data:`work.ENDPOINTS`
        — the artifact cache key for optimize, the input digest for
        tune and profile).  Anything else, or anything unparsable,
        falls back to a raw body hash; the routed worker answers the
        400 with the real diagnostics."""
        row = work.ENDPOINTS.get(request.path)
        if row is not None and row.route_key is not None:
            try:
                key = row.route_key(json.loads(request.body.decode("utf-8")),
                                    self._key_salt)
            except (ProtocolError, ValueError, UnicodeDecodeError,
                    TypeError, AttributeError):
                key = None
            if key is not None:
                return key
        body_sha = hashlib.sha256(request.body).hexdigest()
        return "body\x00%s\x00%s" % (request.path, body_sha)

    def _live_slot(self, member: str) -> Optional[WorkerSlot]:
        for slot in self._slots:
            if slot.member == member and slot.state == "live":
                return slot
        return None

    async def _serve(self, request: Request, rid: str, span: Any,
                     keep_alive: bool,
                     headers: Dict[str, str]) -> Tuple[int, bytes]:
        member, response = await self._route_and_forward(request, rid)
        out_headers = dict(headers)
        out_headers["X-Worker"] = member
        if "retry-after" in response.headers:
            out_headers["Retry-After"] = response.headers["retry-after"]
        return response.status, render_response(
            response.status, response.body,
            content_type=response.headers.get("content-type",
                                              "application/json"),
            keep_alive=keep_alive, headers=out_headers)

    async def _route_and_forward(self, request: Request,
                                 rid: str) -> Tuple[str, Response]:
        """Forward an *admitted* request until a worker produces a real
        response.  Retries across the ring's preference order on
        draining/unreachable workers, and waits out all-busy windows;
        the caller's ``wait_for`` bounds the whole loop."""
        key = self.routing_key(request)
        fwd_headers = {name: value for name, value in
                       request.headers.items()
                       if name not in _HOP_HEADERS}
        fwd_headers["x-request-id"] = rid
        data = render_request(request.method, request.path, request.body,
                              headers=fwd_headers, keep_alive=True)
        first = True
        while True:
            if not first:
                await asyncio.sleep(0.05)
            first = False
            busy: Optional[Tuple[str, Response]] = None
            for member in self.ring.preference(key):
                slot = self._live_slot(member)
                if slot is None:
                    continue
                try:
                    response = await self._forward_once(slot, data)
                except ForwardError:
                    self.registry.inc("fleet.forward_errors")
                    continue
                if response.status == 503:
                    # Draining worker: reroute now.  Busy worker: note
                    # it and keep looking — a ring neighbour with free
                    # slots serves the request (the shared store makes
                    # any worker correct, affinity is an optimization).
                    if b'"draining"' in response.body:
                        self.registry.inc("fleet.rerouted")
                        continue
                    busy = (member, response)
                    continue
                if member != self.ring.route_or_none(key):
                    self.registry.inc("fleet.spills")
                self.registry.inc("fleet.forwarded")
                return member, response
            if busy is not None:
                # Whole fleet at capacity right now: the request is
                # admitted, so wait for a slot instead of bouncing the
                # 503 to the client.
                self.registry.inc("fleet.busy_waits")
                continue
            # No live worker at all (mid-restart window): wait for the
            # replacement to join.
            self.registry.inc("fleet.no_worker_waits")

    async def _acquire_conn(self, slot: WorkerSlot):
        pool = self._pools.setdefault(slot.member, [])
        while pool:
            reader, writer, generation = pool.pop()
            if generation == slot.generation and not writer.is_closing():
                return reader, writer, True
            writer.close()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", slot.port)
        except OSError as exc:
            raise ForwardError("connect to %s: %s" % (slot.member, exc))
        self.registry.inc("fleet.upstream_connects")
        return reader, writer, False

    async def _forward_once(self, slot: WorkerSlot,
                            data: bytes) -> Response:
        """One request over the worker's keep-alive pool.  A failure on
        a pooled connection is replayed once on a fresh one (the worker
        may have closed the idle socket); a fresh-connection failure is
        the caller's problem (reroute)."""
        for fresh_retry in (False, True):
            reader, writer, reused = await self._acquire_conn(slot)
            generation = slot.generation
            try:
                writer.write(data)
                await writer.drain()
                response = await read_response(
                    reader, max_body_bytes=self.config.max_body_bytes)
            except (ProtocolError, ConnectionError, OSError,
                    asyncio.IncompleteReadError) as exc:
                writer.close()
                if reused and not fresh_retry:
                    continue
                raise ForwardError("forward to %s: %s" % (slot.member, exc))
            if response.keep_alive and slot.state == "live" \
                    and generation == slot.generation:
                self._pools.setdefault(slot.member, []).append(
                    (reader, writer, generation))
            else:
                writer.close()
            return response
        raise ForwardError("unreachable")   # pragma: no cover

    # -- worker queries (healthz/metrics fan-out) ---------------------------

    async def _query_worker(self, slot: WorkerSlot,
                            path: str) -> Optional[Dict[str, Any]]:
        data = render_request("GET", path, keep_alive=True)
        try:
            response = await asyncio.wait_for(
                self._forward_once(slot, data), timeout=10.0)
            if response.status != 200:
                return None
            payload = json.loads(response.body.decode("utf-8"))
            return payload if isinstance(payload, dict) else None
        except (ForwardError, asyncio.TimeoutError, ValueError,
                UnicodeDecodeError):
            return None

    async def _health(self, request: Request, rid: str) -> Dict[str, Any]:
        from repro import __version__

        live = [slot for slot in self._slots if slot.state == "live"]
        healths = await asyncio.gather(*[
            self._query_worker(slot, "/healthz") for slot in live])
        by_member = {slot.member: health
                     for slot, health in zip(live, healths)}
        workers = []
        inflight = queue_depth = 0
        degraded = False
        for slot in self._slots:
            entry = slot.describe()
            health = by_member.get(slot.member)
            entry["health"] = health
            if slot.state != "live" or health is None:
                degraded = True
            else:
                inflight += int(health.get("inflight", 0))
                queue_depth += int(health.get("queue_depth", 0))
            workers.append(entry)
        status = "draining" if self._draining else (
            "degraded" if degraded else "ok")
        return {"schema": FLEET_SCHEMA,
                "status": status,
                "version": __version__,
                "request_id": rid,
                "workers": workers,
                "inflight": inflight,
                "queue_depth": queue_depth,
                "admitted": self._admitted,
                "capacity": self.config.capacity(),
                "ring": self.ring.describe(),
                "cache": self.config.cache}

    async def _metrics(self, request: Request,
                       rid: str) -> Dict[str, Any]:
        live = [slot for slot in self._slots if slot.state == "live"]
        snapshots = await asyncio.gather(*[
            self._query_worker(slot, "/metrics") for slot in live])
        values = [snap.get("values", {}) for snap in snapshots
                  if snap is not None]
        values.append(self.registry.snapshot(collectors=False))
        event = obs.metrics_event(merge_metric_values(values))
        event["request_id"] = rid
        event["workers"] = len(live)
        return event

    # -- rolling restart ----------------------------------------------------

    async def _restart(self, request: Request, rid: str) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        if request.body:
            parsed = request.json()
            if not isinstance(parsed, dict):
                raise ProtocolError(400, "restart body must be a JSON "
                                         "object")
            data = parsed
        target = data.get("worker")
        if target is None:
            targets = list(self._slots)          # rolling: all, one by one
        else:
            if not isinstance(target, int) \
                    or not 0 <= target < len(self._slots):
                raise ProtocolError(400, "field 'worker' must be a slot "
                                         "index in [0, %d)"
                                    % len(self._slots))
            targets = [self._slots[target]]
        if self._draining:
            raise ProtocolError(503, "draining")
        start = time.monotonic()
        restarted = []
        async with self._restart_lock:
            for slot in targets:
                await self._restart_slot(slot)
                restarted.append(slot.describe())
        return {"schema": FLEET_SCHEMA, "request_id": rid,
                "restarted": restarted,
                "elapsed_s": round(time.monotonic() - start, 6),
                "ring": self.ring.describe()}

    async def _restart_slot(self, slot: WorkerSlot) -> None:
        """Drain one worker while the ring reroutes its keys, then
        bring up its replacement and re-add it."""
        self.registry.inc("fleet.restarts")
        self.ring.remove(slot.member)
        self.registry.gauge("fleet.workers_live", len(self.ring))
        slot.state = "draining"
        self._close_pool(slot.member)
        await self._loop.run_in_executor(None, self._stop_worker_sync,
                                         slot)
        await self._loop.run_in_executor(None, self._spawn_worker_sync,
                                         slot)
        self.ring.add(slot.member)
        self.registry.gauge("fleet.workers_live", len(self.ring))


def merge_metric_values(
        snapshots: List[Dict[str, Any]]) -> Dict[str, float]:
    """Merge per-worker registry snapshots into one fleet view.

    Counters and gauges are summed (``server.inflight`` across workers
    *is* the fleet's inflight).  Histogram summary components keep
    their meaning instead of being summed blindly: ``*.min`` is the
    min, ``*.max`` the max, and ``*.mean`` is recomputed from the
    merged ``*.sum`` / ``*.count`` pair when both exist.
    """
    merged: Dict[str, float] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if isinstance(value, bool) \
                    or not isinstance(value, (int, float)):
                continue
            if name not in merged:
                merged[name] = value
            elif name.endswith(".min"):
                merged[name] = min(merged[name], value)
            elif name.endswith(".max"):
                merged[name] = max(merged[name], value)
            else:
                merged[name] += value
    for name in [n for n in merged if n.endswith(".mean")]:
        stem = name[:-len(".mean")]
        count = merged.get(stem + ".count")
        total = merged.get(stem + ".sum")
        if count and total is not None:
            merged[name] = total / count
    return dict(sorted(merged.items()))


class FleetThread(ServiceThread):
    """Run a :class:`FleetServer` on a background thread — the test and
    bench harness (``with FleetThread(config) as fleet:``)."""

    service_cls = FleetServer

    @property
    def fleet(self) -> Optional[FleetServer]:
        return self.server
