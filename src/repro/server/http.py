"""A deliberately small HTTP/1.1 layer over asyncio streams.

The server needs exactly three things from HTTP: parse a request
(method, target, headers, body), write a response, and keep-alive so
benchmark clients can reuse connections.  Pulling in a framework for
that would add the repo's first hard dependency; ``http.server`` is
thread-per-connection and can't sit on the asyncio loop the batcher
lives on.  So this module implements the needed subset by hand:

- request line + headers with size limits (no header folding);
- bodies via ``Content-Length`` only (no chunked uploads -- clients
  of a classify endpoint know their payload size);
- ``Connection: close`` honored in both directions, keep-alive
  otherwise;
- every malformed request is answered with a 4xx, never an exception
  escaping to the transport.

:class:`HttpError` carries a status code so route handlers can raise
their way out of bad requests and the connection loop renders them
uniformly.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qs, urlsplit

__all__ = [
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "read_request",
    "write_response",
    "STATUS_PHRASES",
]

MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 32768
MAX_HEADER_COUNT = 100

STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that must be answered with an HTTP error status.

    Raised by the parser (malformed request line, oversized body) and
    by route handlers (unknown path, bad payload); the connection
    loop turns it into a JSON error response with ``status`` and the
    optional extra ``headers`` (e.g. ``Retry-After`` on a 503).
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to reuse the connection."""
        return self.headers.get("connection", "").lower() != "close"

    def json(self):
        """Decode the body as JSON (400 on syntax errors)."""
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from exc


@dataclass
class HttpResponse:
    """One response: status, body, content type, extra headers."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(
        cls, payload, *, status: int = 200, headers: dict[str, str] | None = None
    ) -> "HttpResponse":
        """Build a JSON response from any ``json.dumps``-able payload."""
        return cls(
            status=status,
            body=(json.dumps(payload) + "\n").encode("utf-8"),
            content_type="application/json",
            headers=headers or {},
        )

    @classmethod
    def text(
        cls, body: str, *, status: int = 200, content_type: str = "text/plain"
    ) -> "HttpResponse":
        """Build a plain-text (or TSV) response."""
        return cls(
            status=status,
            body=body.encode("utf-8"),
            content_type=content_type + "; charset=utf-8",
        )


async def read_request(
    reader: asyncio.StreamReader, *, max_body_bytes: int
) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on clean EOF.

    Raises :class:`HttpError` (400/413) on malformed or oversized
    input and ``asyncio.IncompleteReadError`` when the peer vanishes
    mid-request -- the connection loop treats the latter as a
    disconnect, not an error to answer.
    """
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise
    except asyncio.LimitOverrunError as exc:
        raise HttpError(400, "request line too long") from exc
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError(400, "request line too long")
    parts = line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {line[:80]!r}")
    method, target, _version = parts

    headers: dict[str, str] = {}
    total = 0
    while True:
        try:
            raw = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
            raise HttpError(400, "truncated request headers") from exc
        if raw == b"\r\n":
            break
        total += len(raw)
        if total > MAX_HEADER_BYTES or len(headers) >= MAX_HEADER_COUNT:
            raise HttpError(400, "request headers too large")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {raw[:80]!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise HttpError(400, "invalid Content-Length") from exc
        if length < 0:
            raise HttpError(400, "invalid Content-Length")
        if length > max_body_bytes:
            raise HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte bound",
            )
        body = await reader.readexactly(length)
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")

    split = urlsplit(target)
    query = {
        key: values[-1]
        for key, values in parse_qs(
            split.query, keep_blank_values=True
        ).items()
    }
    return HttpRequest(
        method=method.upper(),
        path=split.path,
        query=query,
        headers=headers,
        body=body,
    )


async def write_response(
    writer: asyncio.StreamWriter,
    response: HttpResponse,
    *,
    keep_alive: bool = True,
) -> None:
    """Serialize one response (Content-Length framing) and flush it."""
    phrase = STATUS_PHRASES.get(response.status, "Unknown")
    head = [
        f"HTTP/1.1 {response.status} {phrase}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head += [f"{name}: {value}" for name, value in response.headers.items()]
    # head and body in one write: one send, one segment for a small reply
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + response.body)
    await writer.drain()
