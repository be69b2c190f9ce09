"""The client's retry discipline, against a scripted one-shot server.

The fake accepts one connection per scripted behaviour: serve a canned
response, or slam the connection shut — which is exactly what a draining
or restarting real server looks like from the outside.
"""

import json
import random
import socket
import threading

import pytest

from repro.server.client import (
    Client,
    ServerBusy,
    ServerError,
    ServerUnavailable,
)


def canned(status, payload, headers=()):
    body = json.dumps(payload).encode()
    lines = ["HTTP/1.1 %d X" % status,
             "Content-Type: application/json",
             "Content-Length: %d" % len(body),
             "Connection: close"]
    lines.extend("%s: %s" % pair for pair in headers)
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + body

RESET = object()     # script step: accept, then close without responding


class ScriptedServer:
    """Serve each script step to one connection, in order."""

    def __init__(self, script):
        self.script = list(script)
        self.served = 0
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        for step in self.script:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return
            try:
                if step is RESET:
                    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                    b"\x01\x00\x00\x00\x00\x00\x00\x00")
                    conn.close()
                    self.served += 1
                    continue
                conn.settimeout(5)
                data = b""
                while b"\r\n\r\n" not in data:
                    data += conn.recv(65536)
                head = data.split(b"\r\n\r\n", 1)[0].decode("latin-1")
                length = 0
                for line in head.split("\r\n")[1:]:
                    if line.lower().startswith("content-length:"):
                        length = int(line.split(":", 1)[1])
                body_so_far = data.split(b"\r\n\r\n", 1)[1]
                while len(body_so_far) < length:
                    body_so_far += conn.recv(65536)
                conn.sendall(step)
                self.served += 1
            finally:
                conn.close()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._sock.close()
        self._thread.join(timeout=5)


def canned_keepalive(payload):
    body = json.dumps(payload).encode()
    return ("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            "Content-Length: %d\r\nConnection: keep-alive\r\n\r\n"
            % len(body)).encode() + body


class KeepAliveServer:
    """Serve keep-alive responses, ``per_conn`` per accepted connection,
    counting accepts — the fake that pins connection reuse."""

    def __init__(self, per_conn=10 ** 9):
        self.per_conn = per_conn
        self.accepts = 0
        self.requests = 0
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _read_request(self, conn):
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                return False
            data += chunk
        head, body = data.split(b"\r\n\r\n", 1)
        length = 0
        for line in head.decode("latin-1").split("\r\n")[1:]:
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        while len(body) < length:
            body += conn.recv(65536)
        return True

    def _run(self):
        while True:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return
            self.accepts += 1
            try:
                conn.settimeout(10)
                for _ in range(self.per_conn):
                    if not self._read_request(conn):
                        break
                    self.requests += 1
                    conn.sendall(canned_keepalive({"ok": True}))
            except OSError:
                pass
            finally:
                conn.close()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._sock.close()
        self._thread.join(timeout=5)


class TestKeepAlive:
    def test_sequential_requests_share_one_connection(self):
        with KeepAliveServer() as server:
            with Client(port=server.port, retries=0) as client:
                for _ in range(5):
                    assert client.request("GET", "/healthz") \
                        == {"ok": True}
        assert server.accepts == 1
        assert server.requests == 5
        assert client.connects == 1
        assert client.stale_replays == 0

    def test_stale_keepalive_is_replayed_free_of_retry_budget(self):
        """The server closes each connection after one response (what a
        draining server does to idle sockets).  With retries=0 the
        next request still succeeds: a failure on a reused connection is
        replayed once on a fresh one without touching the budget."""
        with KeepAliveServer(per_conn=1) as server:
            with Client(port=server.port, retries=0,
                        backoff_s=0.01) as client:
                for _ in range(3):
                    assert client.request("GET", "/healthz") \
                        == {"ok": True}
        assert server.accepts == 3
        assert client.connects == 3
        assert client.stale_replays == 2
        assert client.retries_on_transport == 0


class TestRetries:
    def test_retries_503_until_success(self):
        script = [canned(503, {"error": "busy", "status": 503},
                         [("Retry-After", "0")])] * 2 \
            + [canned(200, {"asm": "done"})]
        with ScriptedServer(script) as server:
            client = Client(port=server.port, retries=4, backoff_s=0.01,
                            rng=random.Random(7))
            result = client.request("POST", "/v1/optimize", {"source": ""})
            client.close()
        assert result == {"asm": "done"}
        assert client.retries_on_busy == 2
        assert server.served == 3

    def test_busy_raised_after_budget_exhausted(self):
        script = [canned(503, {"error": "busy", "status": 503},
                         [("Retry-After", "0")])] * 3
        with ScriptedServer(script) as server:
            client = Client(port=server.port, retries=2, backoff_s=0.01,
                            rng=random.Random(7))
            with pytest.raises(ServerBusy):
                client.request("GET", "/healthz")
            client.close()
        assert server.served == 3

    def test_connection_reset_retried(self):
        script = [RESET, canned(200, {"ok": True})]
        with ScriptedServer(script) as server:
            client = Client(port=server.port, retries=3, backoff_s=0.01,
                            rng=random.Random(7))
            result = client.request("GET", "/healthz")
            client.close()
        assert result == {"ok": True}
        assert client.retries_on_transport >= 1

    def test_unavailable_after_transport_budget(self):
        script = [RESET] * 4
        with ScriptedServer(script) as server:
            client = Client(port=server.port, retries=3, backoff_s=0.01,
                            rng=random.Random(7))
            with pytest.raises(ServerUnavailable):
                client.request("GET", "/healthz")
            client.close()

    def test_4xx_never_retried(self):
        script = [canned(400, {"error": "bad", "status": 400})]
        with ScriptedServer(script) as server:
            client = Client(port=server.port, retries=5, backoff_s=0.01)
            with pytest.raises(ServerError) as exc_info:
                client.request("POST", "/v1/optimize", {})
            client.close()
        assert exc_info.value.status == 400
        assert server.served == 1
        assert client.retries_on_busy == 0


class TestBackoff:
    def test_backoff_is_jittered_and_bounded(self):
        client = Client(retries=0, backoff_s=0.1, max_backoff_s=0.8,
                        rng=random.Random(1234))
        slept = []
        import repro.server.client as mod
        original = mod.time.sleep
        mod.time.sleep = slept.append
        try:
            for attempt in range(6):
                client._sleep(attempt)
        finally:
            mod.time.sleep = original
        caps = [min(0.1 * (2 ** attempt), 0.8) for attempt in range(6)]
        assert all(0.0 <= delay <= cap
                   for delay, cap in zip(slept, caps) if delay)
        # Full jitter: the delays must not all sit at the cap.
        assert len(set(slept)) > 1

    def test_retry_after_is_a_floor(self):
        client = Client(retries=0, backoff_s=0.001,
                        rng=random.Random(1))
        slept = []
        import repro.server.client as mod
        original = mod.time.sleep
        mod.time.sleep = slept.append
        try:
            client._sleep(0, floor_s=0.7)
        finally:
            mod.time.sleep = original
        assert slept and slept[0] >= 0.7
