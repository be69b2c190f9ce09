"""``repro.server.client`` — the blocking client for the service.

A thin, dependency-free wrapper over :mod:`http.client` with the retry
discipline the server's backpressure contract calls for:

* **503** is not an error, it is *load shedding*: the client honours the
  ``Retry-After`` header (floored by its own jittered exponential
  backoff) and retries up to ``retries`` times before raising
  :class:`ServerBusy`;
* **connection resets / refusals** are retried the same way (a draining
  server closes idle connections; a restarting one refuses briefly) and
  end in :class:`ServerUnavailable`;
* every other non-2xx status raises :class:`ServerError` immediately —
  a 400 will not become a 200 by retrying.

One :class:`Client` keeps **one keep-alive connection** and reuses it
across sequential requests — reconnecting per call would multiply
connection churn by the request count (``client.connects`` counts real
connections; the scripted-fake test pins it at one per client).  A
reused connection can go *stale*: a server is allowed to close an idle
keep-alive socket at any time (a draining server always does), and the
client only discovers that when the next send fails.  That failure
says nothing about server health, so it is **replayed once on a fresh
connection without consuming the retry budget or sleeping** — only a
failure on a never-used connection counts against ``retries``.

Backoff is exponential with full jitter (``uniform(0, base * 2^attempt)``,
capped) so a thundering herd of rejected clients does not re-arrive in
lockstep.  One :class:`Client` owns one connection and is **not**
thread-safe; use one per thread (the bench does).
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

DEFAULT_PORT = 8423


class ServerError(Exception):
    """A non-2xx response that retrying cannot fix."""

    def __init__(self, status: int, message: str,
                 payload: Optional[Dict[str, Any]] = None) -> None:
        super().__init__("HTTP %d: %s" % (status, message))
        self.status = status
        self.payload = payload or {}


class ServerBusy(ServerError):
    """503 backpressure outlasted the retry budget."""


class ServerUnavailable(ServerError):
    """Could not complete a request at the transport level."""

    def __init__(self, message: str) -> None:
        super(ServerError, self).__init__(message)
        self.status = 0
        self.payload = {}


class Client:
    """Blocking JSON client with retry-with-jittered-backoff."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT, *,
                 timeout: float = 120.0,
                 retries: int = 5,
                 backoff_s: float = 0.05,
                 max_backoff_s: float = 2.0,
                 rng: Optional[random.Random] = None) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self._rng = rng if rng is not None else random.Random()
        self._conn: Optional[http.client.HTTPConnection] = None
        #: Retry telemetry, mostly for tests and the bench: how many
        #: sends were re-issued after a 503 / transport failure, how
        #: many connections were ever opened, and how many stale
        #: keep-alive sockets were transparently replayed.
        self.retries_on_busy = 0
        self.retries_on_transport = 0
        self.connects = 0
        self.stale_replays = 0
        #: Responses served over the current connection — a send failure
        #: on a connection that already served one is a stale keep-alive
        #: socket, not a server failure.
        self._conn_served = 0

    # -- transport ----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
            self._conn_served = 0
            self.connects += 1
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
            self._conn_served = 0

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _sleep(self, attempt: int, floor_s: float = 0.0) -> None:
        cap = min(self.backoff_s * (2 ** attempt), self.max_backoff_s)
        delay = max(floor_s, self._rng.uniform(0.0, cap))
        if delay > 0:
            time.sleep(delay)

    def request(self, method: str, path: str,
                payload: Optional[Dict[str, Any]] = None,
                request_id: Optional[str] = None) -> Dict[str, Any]:
        """One request through the retry discipline; returns the decoded
        JSON body of the 2xx response."""
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if request_id is not None:
            headers["X-Request-Id"] = request_id

        last_error: Optional[str] = None
        attempt = 0
        replayed_stale = False
        while attempt <= self.retries:
            was_reused = self._conn is not None and self._conn_served > 0
            try:
                conn = self._connection()
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                self._conn_served += 1
                replayed_stale = False
                if response.will_close:
                    # Honour Connection: close now, or the next attempt
                    # burns a retry discovering the socket is dead.
                    self.close()
            except (ConnectionError, http.client.HTTPException,
                    socket.timeout, OSError) as exc:
                self.close()
                last_error = "%s: %s" % (type(exc).__name__, exc)
                if was_reused and not replayed_stale \
                        and not isinstance(exc, socket.timeout):
                    # A keep-alive socket the server closed while idle:
                    # the failure says nothing about server health, so
                    # replay immediately on a fresh connection without
                    # spending the retry budget (once — a second failure
                    # is a real one and falls through to the budget).
                    replayed_stale = True
                    self.stale_replays += 1
                    continue
                # A dead fresh connection tells us nothing about the
                # next attempt on another one — reconnect after backoff.
                if attempt >= self.retries:
                    break
                self.retries_on_transport += 1
                self._sleep(attempt)
                attempt += 1
                continue
            if response.status == 503:
                if attempt >= self.retries:
                    raise ServerBusy(503, "server busy after %d retries"
                                     % self.retries,
                                     _decode(raw))
                self.retries_on_busy += 1
                retry_after = _retry_after_seconds(response)
                # Retry-After is a floor, not a schedule: jitter on top
                # so shed clients do not return in lockstep.
                self._sleep(attempt, floor_s=retry_after)
                attempt += 1
                continue
            data = _decode(raw)
            if not 200 <= response.status < 300:
                message = data.get("error", "HTTP %d" % response.status) \
                    if isinstance(data, dict) else raw.decode(
                        "utf-8", "replace")
                raise ServerError(response.status, message,
                                  data if isinstance(data, dict) else None)
            return data if isinstance(data, dict) else {"body": data}
        raise ServerUnavailable("request to %s:%d failed after %d "
                                "attempts (%s)"
                                % (self.host, self.port, self.retries + 1,
                                   last_error))

    # -- endpoints ----------------------------------------------------------

    def _post(self, path: str, request_id: Optional[str],
              **fields: Any) -> Dict[str, Any]:
        """POST the non-``None`` *fields*, in argument order."""
        payload = {name: value for name, value in fields.items()
                   if value is not None}
        return self.request("POST", path, payload, request_id=request_id)

    def optimize(self, source: str,
                 spec: Union[None, str, List[Tuple[str, Dict[str, Any]]]]
                 = None, *,
                 filename: Optional[str] = None,
                 request_id: Optional[str] = None) -> Dict[str, Any]:
        return self._post("/v1/optimize", request_id, source=source,
                          spec=spec, filename=filename)

    def batch(self, inputs: Iterable[Tuple[str, str]],
              spec: Union[None, str, List[Tuple[str, Dict[str, Any]]]]
              = None, *,
              request_id: Optional[str] = None) -> Dict[str, Any]:
        return self._post("/v1/batch", request_id,
                          inputs=[[name, source] for name, source in inputs],
                          spec=spec)

    def simulate(self, source: Optional[str] = None, core: str = "core2", *,
                 workload: Optional[str] = None,
                 entry_symbol: str = "main",
                 max_steps: int = 5_000_000,
                 request_id: Optional[str] = None) -> Dict[str, Any]:
        return self._post("/v1/simulate", request_id, core=core,
                          entry_symbol=entry_symbol, max_steps=max_steps,
                          source=source, workload=workload)

    def predict(self, source: Optional[str] = None, core: str = "core2", *,
                workload: Optional[str] = None,
                function: Optional[str] = None,
                loop: Optional[str] = None,
                assume_lsd: bool = False,
                request_id: Optional[str] = None) -> Dict[str, Any]:
        return self._post("/v1/predict", request_id, core=core,
                          source=source, workload=workload,
                          function=function, loop=loop,
                          assume_lsd=True if assume_lsd else None)

    def tune(self, source: Optional[str] = None, core: str = "core2", *,
             workload: Optional[str] = None,
             function: Optional[str] = None,
             budget: Optional[int] = None,
             n_select: Optional[int] = None,
             max_rounds: Optional[int] = None,
             simulate_top: Optional[int] = None,
             request_id: Optional[str] = None) -> Dict[str, Any]:
        return self._post("/v1/tune", request_id, core=core, source=source,
                          workload=workload, function=function,
                          budget=budget, n_select=n_select,
                          max_rounds=max_rounds, simulate_top=simulate_top)

    def profile(self, profile: Optional[Dict[str, Any]] = None, *,
                digest: Optional[str] = None,
                request_id: Optional[str] = None) -> Dict[str, Any]:
        """Ingest a ``pymao.profile/1`` document, or read one back by
        digest (pass exactly one of the two)."""
        return self._post("/v1/profile", request_id, profile=profile,
                          digest=digest)

    def healthz(self) -> Dict[str, Any]:
        return self.request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self.request("GET", "/metrics")


def _decode(raw: bytes) -> Any:
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return {}


def _retry_after_seconds(response: http.client.HTTPResponse) -> float:
    value = response.headers.get("Retry-After")
    if value is None:
        return 0.0
    try:
        return max(0.0, float(value))
    except ValueError:
        return 0.0
