"""A minimal HTTP/1.1 layer over asyncio streams.

Just enough protocol for the service front: parse one request
(request line, headers, ``Content-Length`` body) from a
``StreamReader``, and render one JSON response.  Deliberately not a
web framework — stdlib-only transport is a hard requirement
(ISSUE/ROADMAP: no new dependencies), and the endpoints need nothing
beyond method + path + query + JSON bodies.  Connections are
one-request: every response carries ``Connection: close``, which keeps
connection state machines (pipelining, keep-alive timeouts) out of the
server entirely; benchmark clients open one connection per request
accordingly.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Optional
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import ConfigurationError

__all__ = ["Request", "Response", "read_request", "render_response",
           "MAX_HEADER_BYTES", "MAX_BODY_BYTES"]

#: Caps keep a misbehaving client from ballooning server memory.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024

_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _reject_constant(token: str) -> None:
    raise ConfigurationError(f"{token} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigurationError(
            f"{text} overflows a float; numbers must be finite")
    return value


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str                       # decoded path, query stripped
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)  # lower-cased
    body: bytes = b""

    def json(self) -> dict:
        """The body as a JSON object (400 via ConfigurationError).

        ``NaN``/``Infinity``/``-Infinity`` are rejected: they are not
        JSON, though ``json.loads`` accepts them by default.  So is a
        number that overflows a float (``1e400``), which would
        otherwise parse to ``inf``.
        """
        if not self.body:
            return {}
        try:
            data = json.loads(self.body.decode("utf-8"),
                              parse_constant=_reject_constant,
                              parse_float=_finite_float)
        except (ValueError, UnicodeDecodeError) as exc:
            raise ConfigurationError(
                f"request body is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("request body must be a JSON object")
        return data


@dataclass(frozen=True)
class Response:
    """One JSON response (payload is serialized by render_response)."""

    status: int
    payload: dict
    headers: Dict[str, str] = field(default_factory=dict)


class _BadRequest(ValueError):
    """Malformed request line/headers (mapped to 400 by the server)."""


async def read_request(reader) -> Optional[Request]:
    """Parse one request from the stream; ``None`` on clean EOF.

    Raises :class:`ConfigurationError` on malformed syntax or
    oversized headers/bodies, which the connection handler renders as
    a 400/413 before closing.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # client closed without sending a request
        raise ConfigurationError("truncated HTTP request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise ConfigurationError("request head exceeds limit") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ConfigurationError(
            f"request head of {len(head)} bytes exceeds "
            f"{MAX_HEADER_BYTES}")
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, _version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError) as exc:
        raise ConfigurationError(
            f"malformed request line: {exc}") from exc
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ConfigurationError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    parts = urlsplit(target)
    query = dict(parse_qsl(parts.query, keep_blank_values=True))
    body = b""
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as exc:
        raise ConfigurationError(
            f"bad Content-Length {length_text!r}") from exc
    if length < 0 or length > MAX_BODY_BYTES:
        raise ConfigurationError(
            f"Content-Length {length} outside [0, {MAX_BODY_BYTES}]")
    if length:
        body = await reader.readexactly(length)
    return Request(method=method.upper(), path=unquote(parts.path),
                   query=query, headers=headers, body=body)


def render_response(response: Response) -> bytes:
    """Serialize a :class:`Response` to wire bytes.

    The body is strict JSON: a payload holding a NaN or an infinity is
    a server defect, answered as a 500 rather than sent as the
    non-JSON ``NaN``/``Infinity`` tokens.
    """
    status = response.status
    try:
        body = json.dumps(response.payload, sort_keys=True,
                          separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        status = 500
        body = json.dumps({"error": "internal", "detail": str(exc)},
                          sort_keys=True, separators=(",", ":"))
    body = body.encode("utf-8")
    phrase = _PHRASES.get(status, "Unknown")
    head_lines = [
        f"HTTP/1.1 {status} {phrase}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in sorted(response.headers.items()):
        head_lines.append(f"{name}: {value}")
    head = ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1")
    return head + body
