"""Minimal HTTP/1.1 framing over asyncio streams — stdlib only.

The server needs exactly four things from HTTP: parse a request line +
headers + ``Content-Length`` body off a :class:`asyncio.StreamReader`,
enforce size caps *while reading* (a cap checked after buffering the
whole body is no cap at all), render a response with a correct
``Content-Length``, and keep-alive semantics so a closed-loop client can
reuse its connection.  Chunked transfer encoding, trailers, pipelining
and the rest of RFC 9112 are deliberately out of scope; a request using
them is answered with ``501``.

Errors raised while reading are :class:`ProtocolError` carrying the HTTP
status the connection handler should answer with (``400`` malformed,
``411`` missing length, ``413`` over the body cap, ``431`` over the
header cap) before closing the connection.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from http.client import responses as _REASONS
from typing import Any, Dict, Optional, Tuple

#: Upper bound on the request line + all header lines together.
MAX_HEADER_BYTES = 32 * 1024


class ProtocolError(Exception):
    """A malformed or over-limit request; ``status`` is the answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed request.  Header names are lower-cased."""

    method: str
    path: str
    version: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """Decode the body as JSON; raises :class:`ProtocolError` (400)
        on undecodable bytes so handlers answer uniformly."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(400, "invalid JSON body: %s" % exc)

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 defaults to keep-alive; 1.0 defaults to close."""
        connection = self.headers.get("connection", "").lower()
        if "close" in connection:
            return False
        if self.version == "HTTP/1.0":
            return "keep-alive" in connection
        return True


async def _read_line(reader: asyncio.StreamReader, budget: int) -> bytes:
    """One CRLF-terminated line within the remaining header *budget*."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return b""          # clean EOF between requests
        raise ProtocolError(400, "truncated request")
    except asyncio.LimitOverrunError:
        raise ProtocolError(431, "header line too long")
    if len(line) > budget:
        raise ProtocolError(431, "request headers exceed %d bytes"
                            % MAX_HEADER_BYTES)
    return line


async def read_request(reader: asyncio.StreamReader, *,
                       max_body_bytes: int) -> Optional[Request]:
    """Parse one request off *reader*.

    Returns ``None`` on clean EOF before any byte arrives (the peer
    closed an idle keep-alive connection) and raises
    :class:`ProtocolError` on anything malformed or over-limit.
    """
    budget = MAX_HEADER_BYTES
    start = await _read_line(reader, budget)
    if not start:
        return None
    budget -= len(start)
    parts = start.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(400, "malformed request line")
    method, target, version = parts
    path = target.split("?", 1)[0]

    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader, budget)
        if not line:
            raise ProtocolError(400, "truncated headers")
        budget -= len(line)
        text = line.decode("latin-1").strip()
        if not text:
            break
        name, sep, value = text.partition(":")
        if not sep:
            raise ProtocolError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ProtocolError(501, "chunked transfer encoding not supported")

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise ProtocolError(400, "malformed Content-Length")
        if length < 0:
            raise ProtocolError(400, "malformed Content-Length")
        # The cap is enforced *before* the body is read: an oversized
        # request costs the server one header parse, not the bytes.
        if length > max_body_bytes:
            raise ProtocolError(413, "request body %d bytes exceeds the "
                                     "%d byte cap" % (length, max_body_bytes))
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError(400, "truncated body")
    elif method in ("POST", "PUT"):
        raise ProtocolError(411, "Content-Length required")

    return Request(method=method, path=path, version=version,
                   headers=headers, body=body)


def render_response(status: int, body: bytes, *,
                    content_type: str = "application/json",
                    keep_alive: bool = True,
                    headers: Optional[Dict[str, str]] = None) -> bytes:
    """The full response byte string (head + body)."""
    reason = _REASONS.get(status, "Unknown")
    lines = ["HTTP/1.1 %d %s" % (status, reason),
             "Content-Type: %s" % content_type,
             "Content-Length: %d" % len(body),
             "Connection: %s" % ("keep-alive" if keep_alive else "close")]
    for name, value in (headers or {}).items():
        lines.append("%s: %s" % (name, value))
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def render_json(status: int, payload: Any, *,
                keep_alive: bool = True,
                headers: Optional[Dict[str, str]] = None) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return render_response(status, body, keep_alive=keep_alive,
                           headers=headers)


def error_payload(status: int, message: str,
                  request_id: Optional[str] = None) -> Dict[str, Any]:
    """The uniform error body every non-2xx response carries."""
    payload: Dict[str, Any] = {"error": message, "status": status}
    if request_id is not None:
        payload["request_id"] = request_id
    return payload


def parse_response(raw: bytes) -> Tuple[int, Dict[str, str], bytes]:
    """Split a raw response into (status, headers, body) — test helper,
    the real client uses :mod:`http.client`."""
    head, _sep, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body
