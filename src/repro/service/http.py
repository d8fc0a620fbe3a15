"""Minimal HTTP/1.1 + WebSocket plumbing on asyncio streams.

The container image carries no asyncio HTTP framework, so the service
speaks just enough of the protocols itself: request parsing with hard
header/body bounds (a malformed or oversized request is a 400, never an
unbounded read), JSON responses, and the RFC 6455 server-side handshake
plus frame codec used by the ``/stream`` live-timeline endpoint.

Everything here is transport; routing and semantics live in
:mod:`repro.service.app`.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "read_request",
    "websocket_accept_key",
    "websocket_handshake_response",
    "WebSocketConnection",
]

#: Upper bounds on what one request may make the server buffer.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1 << 20

#: RFC 6455 §1.3 handshake GUID.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

_REASONS = {
    101: "Switching Protocols",
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A request the server refuses to parse; carries the status to send."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(frozen=True)
class HttpRequest:
    """One parsed request (headers lower-cased, query decoded)."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    def json(self) -> dict:
        """Decode the body as a JSON object; :class:`HttpError` 400 if not."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload

    def wants_websocket(self) -> bool:
        """Whether the client asked to upgrade this request to WebSocket."""
        return (
            self.headers.get("upgrade", "").lower() == "websocket"
            and "upgrade" in self.headers.get("connection", "").lower()
        )


@dataclass
class HttpResponse:
    """A JSON response; ``encode`` renders the full HTTP/1.1 bytes."""

    status: int
    body: dict
    headers: dict[str, str] = field(default_factory=dict)

    def encode(self) -> bytes:
        payload = json.dumps(self.body).encode()
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
        ]
        if "Connection" not in self.headers:
            lines.append("Connection: keep-alive")
        lines.extend(f"{name}: {value}" for name, value in self.headers.items())
        return ("\r\n".join(lines) + "\r\n\r\n").encode() + payload


async def read_request(reader) -> Optional[HttpRequest]:
    """Parse one request off ``reader``; ``None`` on clean EOF.

    Raises :class:`HttpError` (400) for malformed or oversized requests
    — the connection handler answers and closes.
    """
    try:
        header_blob = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise HttpError(400, "connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(400, "request head exceeds stream limit") from exc
    if len(header_blob) > MAX_HEADER_BYTES:
        raise HttpError(400, f"request head exceeds {MAX_HEADER_BYTES} bytes")
    try:
        head = header_blob.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 is total
        raise HttpError(400, "undecodable request head") from exc
    request_line, _, header_text = head.partition("\r\n")
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {request_line!r}")
    method, target, _version = parts
    split = urlsplit(target)
    headers: dict[str, str] = {}
    for line in header_text.split("\r\n"):
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as exc:
        raise HttpError(400, f"bad Content-Length {length_text!r}") from exc
    if length < 0 or length > MAX_BODY_BYTES:
        raise HttpError(400, f"Content-Length {length} outside [0, {MAX_BODY_BYTES}]")
    body = await reader.readexactly(length) if length else b""
    return HttpRequest(
        method=method.upper(),
        path=split.path or "/",
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


# -- WebSocket (RFC 6455, server side) -----------------------------------------
def websocket_accept_key(client_key: str) -> str:
    """Sec-WebSocket-Accept value for a client's Sec-WebSocket-Key."""
    digest = hashlib.sha1((client_key + _WS_GUID).encode()).digest()
    return base64.b64encode(digest).decode()


def websocket_handshake_response(client_key: str) -> bytes:
    """The 101 Switching Protocols reply completing the upgrade."""
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {websocket_accept_key(client_key)}\r\n"
        "\r\n"
    ).encode()


class WebSocketConnection:
    """One upgraded connection: text frames out, control frames handled.

    Server-to-client frames are unmasked (RFC 6455 §5.1); incoming
    client frames must be masked and are unmasked here.  Only the
    subset the live-timeline stream needs is implemented: text, ping /
    pong, close.
    """

    #: Frame opcodes.
    TEXT, CLOSE, PING, PONG = 0x1, 0x8, 0x9, 0xA

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.closed = False

    async def send_json(self, payload: dict) -> None:
        """Send one JSON object as an unfragmented text frame."""
        await self._send_frame(self.TEXT, json.dumps(payload).encode())

    async def close(self, code: int = 1000) -> None:
        """Send a close frame (idempotent)."""
        if not self.closed:
            self.closed = True
            try:
                await self._send_frame(self.CLOSE, struct.pack("!H", code))
            except (ConnectionError, RuntimeError):
                pass

    async def _send_frame(self, opcode: int, payload: bytes) -> None:
        head = bytes([0x80 | opcode])
        length = len(payload)
        if length < 126:
            head += bytes([length])
        elif length < 1 << 16:
            head += bytes([126]) + struct.pack("!H", length)
        else:
            head += bytes([127]) + struct.pack("!Q", length)
        self.writer.write(head + payload)
        await self.writer.drain()

    async def read_frame(self) -> tuple[int, bytes]:
        """Read one client frame; returns ``(opcode, unmasked payload)``.

        Answers pings inline; raises ``ConnectionError`` on EOF.
        """
        while True:
            try:
                first, second = await self.reader.readexactly(2)
            except Exception as exc:
                raise ConnectionError("websocket peer vanished") from exc
            opcode = first & 0x0F
            masked = bool(second & 0x80)
            length = second & 0x7F
            if length == 126:
                (length,) = struct.unpack("!H", await self.reader.readexactly(2))
            elif length == 127:
                (length,) = struct.unpack("!Q", await self.reader.readexactly(8))
            if length > MAX_BODY_BYTES:
                raise ConnectionError(f"websocket frame of {length} bytes refused")
            mask = await self.reader.readexactly(4) if masked else b""
            payload = await self.reader.readexactly(length)
            if masked:
                payload = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
            if opcode == self.PING:
                await self._send_frame(self.PONG, payload)
                continue
            return opcode, payload
