"""The asyncio optimization service.

One long-lived :class:`MaoServer` turns the :mod:`repro.api` facade and
the :mod:`repro.batch` artifact cache into a network service, so many
clients amortize one warm cache and one worker pool.  It serves every
``POST /v1/*`` endpoint in :data:`repro.server.work.ENDPOINTS` (optimize,
batch, predict, tune, simulate, profile), plus:

* ``GET /healthz`` — liveness + admission state;
* ``GET /metrics`` — the :data:`repro.obs.REGISTRY` snapshot as a
  ``pymao.trace/1`` metrics event.

**Admission control.**  CPU-bound work never runs on the event loop; it
is shipped to a bounded worker pool (thread or process, chosen by
``ServerConfig.parallel_backend``).  A request is *admitted* iff fewer than
``max_inflight + max_queue`` admitted requests exist; everything else is
refused up front with ``503`` + ``Retry-After`` (backpressure, not
buffering).  Admitted requests wait on a semaphore for one of the
``max_inflight`` execution slots, bounded by ``request_timeout_s``
end-to-end.  Once admitted, a request is never dropped: it ends in a
response (200/4xx/504), even during drain.

**Many cores.**  ``parallel_backend="process"`` runs the pool as
``max_inflight`` worker processes, each with its own GIL, behind this
one front process: one admission queue, one singleflight table and one
artifact cache for every core.  Each process-pool outcome carries the
worker's counter deltas (``batch.cache.*``, ``pass.*``, ...) and
histogram observations (``predict.seconds``, ``tune.seconds``), which
are added to this server's registry, so the counters and histograms in
``/metrics`` match on either pool kind; the gauges are the server's own.

**Shared cache.**  Optimize, batch and tune share one content-addressed
:class:`~repro.batch.cache.ArtifactCache` store; identical concurrent
requests to a coalescing endpoint (optimize) additionally share one
execution — followers await the leader's pool future (shielded, so
one impatient client cannot cancel work others depend on) instead of
re-optimizing.  Servers that share a ``cache_dir`` share its artifacts,
so a fresh server replays everything a drained one stored: restarting
is ``SIGTERM`` followed by a new ``mao serve`` over the same directory.

**Drain.**  ``SIGTERM``/``SIGINT`` (or :meth:`MaoServer.request_drain`)
closes the listener, nudges idle keep-alive connections closed, lets
every inflight request finish, flushes the trace sink, and returns — the
process exits 0.
"""

from __future__ import annotations

import asyncio
import itertools
import signal
import socket
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from repro import obs
from repro.batch.cache import (
    DEFAULT_MAX_BYTES,
    default_cache_dir,
    default_salt,
)
from repro.result import register_schema
from repro.server import work
from repro.server.http import (
    ProtocolError,
    Request,
    error_payload,
    read_request,
    render_json,
)

#: Schema tag carried by every JSON response envelope.
SERVER_SCHEMA = register_schema("server", "pymao.server/1")

#: How long the thread harness waits for a server to start or stop.
_THREAD_TIMEOUT_S = 120.0


@dataclass
class ServerConfig:
    """Everything a :class:`MaoServer` needs to run."""

    host: str = "127.0.0.1"
    port: int = 8423                  # 0 = ephemeral (bound port on start)
    parallel_backend: str = "thread"  # worker pool kind: thread | process
    max_inflight: int = 4             # concurrently executing requests
    max_queue: int = 16               # admitted-but-waiting bound
    request_timeout_s: float = 120.0  # admission-to-response bound
    max_body_bytes: int = 8 * 1024 * 1024
    retry_after_s: float = 1.0        # advisory backoff floor on 503s
    cache: bool = True
    cache_dir: Optional[str] = None   # None = default_cache_dir()
    cache_salt: Optional[str] = None
    max_cache_bytes: int = DEFAULT_MAX_BYTES
    trace_out: Optional[str] = None   # pymao.trace/1 JSONL, flushed on drain
    drain_grace_s: float = 60.0
    #: Root of the PGO profile store the profile endpoint serves;
    #: ``None`` = :func:`repro.pgo.default_profile_dir`.
    profile_dir: Optional[str] = None
    #: Artificial pre-execution delay per work item.  Test/bench hook for
    #: holding execution slots open deterministically; never set in
    #: production configs.
    test_delay_s: float = 0.0

    def capacity(self) -> int:
        return self.max_inflight + self.max_queue

    def cache_spec(self) -> work.CacheSpec:
        if not self.cache:
            return None
        root = self.cache_dir or default_cache_dir()
        salt = self.cache_salt or default_salt()
        return (root, salt, self.max_cache_bytes)


def _delayed(delay_s: float, path: str,
             payload: Dict[str, Any]) -> Dict[str, Any]:
    """:func:`work.execute` after sleeping *delay_s* (the
    ``test_delay_s`` hook); top-level so it pickles like ``execute``."""
    time.sleep(delay_s)
    return work.execute(path, payload)


class MaoServer:
    """The service: listener, keep-alive loop, error envelope, admission
    (503 past ``config.capacity()``, 504 past ``request_timeout_s``),
    drain, and execution over a worker pool.  Counters are named
    ``server.*``."""

    def __init__(self, config: ServerConfig, *,
                 registry: Optional[obs.Registry] = None) -> None:
        self.config = config
        self.registry = registry if registry is not None else obs.REGISTRY
        self.port: Optional[int] = None      # bound port after start()
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._drain_requested: Optional[asyncio.Event] = None
        self._admitted = 0
        self._executing = 0
        self._conn_tasks: Set[asyncio.Task] = set()
        self._idle_writers: Set[asyncio.StreamWriter] = set()
        self._request_seq = itertools.count(1)
        self._executor = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._singleflight: Dict[str, "asyncio.Future"] = {}

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        config = self.config
        if config.parallel_backend not in ("thread", "process"):
            raise ValueError("unknown server backend %r"
                             % config.parallel_backend)
        if config.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self._loop = asyncio.get_running_loop()
        self._drain_requested = asyncio.Event()
        pool_cls = (ThreadPoolExecutor if config.parallel_backend == "thread"
                    else ProcessPoolExecutor)
        self._executor = pool_cls(max_workers=config.max_inflight)
        self._slots = asyncio.Semaphore(config.max_inflight)
        self._server = await asyncio.start_server(
            self._handle_conn, config.host, config.port)
        for sock in self._server.sockets or []:
            if sock.family in (socket.AF_INET, socket.AF_INET6):
                self.port = sock.getsockname()[1]
                break

    async def run(self, *, install_signals: bool = True,
                  ready=None) -> None:
        """Start, serve until drain is requested, then drain."""
        await self.start()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(signum, self.request_drain)
        try:
            if ready is not None:
                ready(self)
            await self._drain_requested.wait()
        finally:
            if install_signals:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    self._loop.remove_signal_handler(signum)
            await self.drain()

    def request_drain(self) -> None:
        """Signal-safe (from the loop thread) drain trigger."""
        self._draining = True
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def drain(self) -> None:
        """Stop accepting, finish inflight, shut the pool down and flush
        the trace sink."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Idle keep-alive connections sit in read_request() forever;
        # closing their transports turns that into a clean EOF.
        for writer in list(self._idle_writers):
            writer.close()
        pending = [task for task in self._conn_tasks if not task.done()]
        if pending:
            _done, not_done = await asyncio.wait(
                pending, timeout=self.config.drain_grace_s)
            for task in not_done:
                task.cancel()
            if not_done:
                await asyncio.gather(*not_done, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self.config.trace_out:
            sink = obs.JsonlSink(self.config.trace_out)
            try:
                obs.write_trace(sink, obs.finish_spans(),
                                server="%s:%s" % (self.config.host,
                                                  self.port))
            finally:
                sink.close()

    # -- connection handling ------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            await self._conn_loop(reader, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._conn_tasks.discard(task)
            self._idle_writers.discard(writer)
            writer.close()

    async def _conn_loop(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        while True:
            self._idle_writers.add(writer)
            try:
                request = await read_request(
                    reader, max_body_bytes=self.config.max_body_bytes)
            except ProtocolError as exc:
                self.registry.inc("server.protocol_errors")
                writer.write(render_json(
                    exc.status, error_payload(exc.status, exc.message),
                    keep_alive=False))
                await writer.drain()
                return
            finally:
                self._idle_writers.discard(writer)
            if request is None:
                return
            keep_alive = request.keep_alive and not self._draining
            response = await self._dispatch(request, keep_alive)
            writer.write(response)
            await writer.drain()
            if not keep_alive:
                return

    # -- routing ------------------------------------------------------------

    async def _dispatch(self, request: Request, keep_alive: bool) -> bytes:
        rid = request.headers.get("x-request-id") \
            or "req-%06d" % next(self._request_seq)
        self.registry.inc("server.requests")
        headers = {"X-Request-Id": rid}
        route = (request.method, request.path)
        try:
            if request.method == "POST" and request.path in work.ENDPOINTS:
                return await self._admit(request, rid, keep_alive, headers)
            if route == ("GET", "/healthz"):
                return render_json(200, self._health(rid),
                                   keep_alive=keep_alive, headers=headers)
            if route == ("GET", "/metrics"):
                return render_json(200, self._metrics(rid),
                                   keep_alive=keep_alive, headers=headers)
            self.registry.inc("server.not_found")
            return render_json(404, error_payload(
                404, "no route for %s %s" % route, rid),
                keep_alive=keep_alive, headers=headers)
        except ProtocolError as exc:
            return render_json(exc.status,
                               error_payload(exc.status, exc.message, rid),
                               keep_alive=keep_alive, headers=headers)
        except Exception as exc:   # a handler bug, not a client error
            self.registry.inc("server.errors")
            return render_json(500, error_payload(
                500, "internal error: %s: %s" % (type(exc).__name__, exc),
                rid), keep_alive=keep_alive, headers=headers)

    # -- admission ----------------------------------------------------------

    async def _admit(self, request: Request, rid: str, keep_alive: bool,
                     headers: Dict[str, str]) -> bytes:
        config = self.config
        # Admission decision: accept-and-finish, or refuse now.  A
        # draining server accepts nothing new; a full one sheds load
        # instead of buffering it.
        capacity = config.capacity()
        if self._draining or self._admitted >= capacity:
            self.registry.inc("server.rejected")
            return render_json(503, error_payload(
                503, "draining" if self._draining
                else "at capacity (inflight+queued >= %d)" % capacity, rid),
                keep_alive=keep_alive,
                headers={**headers,
                         "Retry-After": "%g" % config.retry_after_s})
        self._admitted += 1
        self._publish_gauges()
        try:
            with obs.detached_span("request:%s" % request.path,
                                   request_id=rid,
                                   bytes=len(request.body)) as span:
                try:
                    status, response = await asyncio.wait_for(
                        self._serve(request, rid, span, keep_alive,
                                    headers),
                        timeout=config.request_timeout_s)
                except asyncio.TimeoutError:
                    self.registry.inc("server.timeouts")
                    if span:
                        span.attach(outcome="timeout")
                    return render_json(504, error_payload(
                        504, "request exceeded %.1fs"
                        % config.request_timeout_s, rid),
                        keep_alive=keep_alive, headers=headers)
                if span:
                    span.attach(status=status)
                return response
        finally:
            self._admitted -= 1
            self._publish_gauges()
            obs.adopt_span(None, span)

    # -- observability ------------------------------------------------------

    def _health(self, rid: str) -> Dict[str, Any]:
        from repro import __version__

        return {"schema": SERVER_SCHEMA,
                "status": "draining" if self._draining else "ok",
                "version": __version__,
                "request_id": rid,
                "inflight": self._executing,
                "queue_depth": self._admitted - self._executing,
                "queued": self._admitted - self._executing,
                "max_inflight": self.config.max_inflight,
                "max_queue": self.config.max_queue,
                "cache": self.config.cache_spec() is not None}

    def _metrics(self, rid: str) -> Dict[str, Any]:
        event = obs.metrics_event(self.registry.snapshot())
        event["request_id"] = rid
        return event

    def _publish_gauges(self) -> None:
        """Keep the live admission state visible as registry gauges, so
        ``/metrics`` reports the same ``inflight`` / ``queue_depth``
        numbers ``/healthz`` does — the backpressure tests assert
        against these."""
        self.registry.gauge("server.inflight", self._executing)
        self.registry.gauge("server.queue_depth",
                            self._admitted - self._executing)

    # -- execution ----------------------------------------------------------

    async def _serve(self, request: Request, rid: str, span: Any,
                     keep_alive: bool,
                     headers: Dict[str, str]) -> Tuple[int, bytes]:
        async with self._slots:
            self._executing += 1
            self._publish_gauges()
            try:
                status, payload = await self._execute(request, rid, span)
            finally:
                self._executing -= 1
                self._publish_gauges()
        return status, render_json(status, payload, keep_alive=keep_alive,
                                   headers=headers)

    async def _execute(self, request: Request, rid: str,
                       span: Any) -> Tuple[int, Dict[str, Any]]:
        path = request.path
        row = work.ENDPOINTS[path]
        data = request.json()
        if not isinstance(data, dict):
            raise ProtocolError(400, "request body must be a JSON object")
        payload = row.prepare(data, self.config)
        payload["want_spans"] = obs.enabled()
        payload["want_counters"] = self.config.parallel_backend == "process"
        if row.coalesce is not None:
            # Singleflight: identical concurrent requests share one pool
            # future.  It is shielded so a follower's (or the leader's)
            # timeout cancels only its own wait, never the shared work.
            key = row.coalesce(payload)
            future = self._singleflight.get(key)
            coalesced = future is not None
            if future is None:
                future = self._singleflight[key] = self._pool(path, payload)
                future.add_done_callback(
                    lambda _f: self._singleflight.pop(key, None))
            outcome = await asyncio.shield(future)
        else:
            coalesced = False
            outcome = await self._pool(path, payload)
        if outcome["status"] == "error":
            self.registry.inc("server.client_errors")
            if span:
                span.attach(error=outcome["kind"])
            return 400, error_payload(400, outcome["error"], rid)
        if outcome.get("span") is not None and span:
            obs.adopt_span(span, obs.Span.from_dict(outcome["span"]))
        reply = {name: outcome[name] for name in row.reply}
        if coalesced:
            reply["cache"] = "coalesced"
        if span:
            span.attach(**row.span(payload, reply))
        if row.counter is not None:
            self.registry.inc(row.counter.format(**reply))
        reply.update(schema=SERVER_SCHEMA, request_id=rid)
        return 200, reply

    def _pool(self, path: str, payload: Dict[str, Any]) -> "asyncio.Future":
        delay = self.config.test_delay_s
        if delay:
            future = self._loop.run_in_executor(self._executor, _delayed,
                                                delay, path, payload)
        else:
            future = self._loop.run_in_executor(self._executor,
                                                work.execute, path, payload)
        if payload["want_counters"]:
            # A callback, not the awaiting request: a coalesced run adds
            # its metrics once, even after every waiter timed out.
            future.add_done_callback(self._add_worker_metrics)
        return future

    def _add_worker_metrics(self, future: "asyncio.Future") -> None:
        if future.cancelled() or future.exception() is not None:
            return
        outcome = future.result()
        for name, delta in outcome.get("counters", {}).items():
            self.registry.inc(name, delta)
        for name, value in outcome.get("observations", ()):
            self.registry.observe(name, value)


class ServerThread:
    """Run a :class:`MaoServer` on a background thread — the in-process
    harness tests and benches use (``with ServerThread(config) as s:``).
    ``server`` is the running server once ready."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.server: Optional[MaoServer] = None
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:     # surface startup failures
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()

        def on_ready(bound: MaoServer) -> None:
            self.server = bound
            self.port = bound.port
            self._ready.set()

        await MaoServer(self.config).run(install_signals=False,
                                         ready=on_ready)

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=_THREAD_TIMEOUT_S)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") \
                from self._startup_error
        if self.port is None:
            raise RuntimeError("server did not become ready")
        return self

    def stop(self) -> None:
        if (self._loop is not None and self.server is not None
                and not self._loop.is_closed()):
            try:
                self._loop.call_soon_threadsafe(self.server.request_drain)
            except RuntimeError:
                pass               # loop torn down between check and call
        self._thread.join(timeout=_THREAD_TIMEOUT_S)

    def __exit__(self, *exc_info) -> None:
        self.stop()

