"""Minimal HTTP/1.1 transport over asyncio streams.

The serving front end deliberately avoids web frameworks (the
container ships only the stdlib + numpy): this module implements just
enough of HTTP/1.1 for a JSON API — request-line + header parsing,
``Content-Length`` bodies with a hard size cap, keep-alive, and
response rendering. Anything fancier (chunked transfer, multipart,
upgrades) is rejected with the appropriate status instead of being
half-supported.

Transport-level failures raise :class:`HttpError`, which carries the
HTTP status and a machine-readable error code; the application layer
renders it as the standard JSON error envelope. Every listener in the
package runs through :func:`serve_until`, on the main thread or in a
:class:`LoopThread`.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from dataclasses import dataclass, field

#: Upper bound on the request line + headers block, in bytes.
MAX_HEAD_BYTES = 16 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A malformed or unserveable HTTP request (transport layer).

    ``status`` is the HTTP status to answer with, ``code`` the stable
    machine-readable identifier surfaced in the JSON error envelope.
    """

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query_string: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    http_version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """Whether the connection should stay open after the response."""
        connection = self.headers.get("connection", "").lower()
        if self.http_version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> Request | None:
    """Read and parse one request; ``None`` on clean end-of-stream.

    Raises :class:`HttpError` on a malformed head, an oversized head
    (431) or body (413), or an unsupported transfer encoding (501).
    The 413 path drains nothing — the connection is closed by the
    caller, which is the correct backpressure for an oversized upload.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "malformed_request", "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(
            431, "headers_too_large",
            f"request head exceeds {MAX_HEAD_BYTES} bytes",
        ) from exc
    if len(head) > MAX_HEAD_BYTES:
        raise HttpError(
            431, "headers_too_large",
            f"request head exceeds {MAX_HEAD_BYTES} bytes",
        )

    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError) as exc:
        raise HttpError(400, "malformed_request", "bad request line") from exc
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(400, "malformed_request", f"unsupported {version!r}")

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        key = name.lower()
        # RFC 7230 §3.2.4: no whitespace around a name, no folded lines.
        if not sep or not key or key.strip() != key:
            raise HttpError(400, "malformed_request", f"bad header line {line!r}")
        if key == "content-length" and key in headers:  # RFC 7230 §3.3.2
            raise HttpError(400, "malformed_request", "repeated Content-Length")
        headers[key] = value.strip()

    if "transfer-encoding" in headers:
        raise HttpError(
            501, "unsupported_transfer_encoding",
            "chunked request bodies are not supported; send Content-Length",
        )

    path, _, query_string = target.partition("?")
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        # Digits only (int() also takes a sign and "_"); over latin-1
        # only 0-9 are decimal.
        if not length_header.isdecimal():
            raise HttpError(
                400, "malformed_request",
                f"bad Content-Length {length_header!r}",
            )
        length = int(length_header)
        if length > max_body_bytes:
            raise HttpError(
                413, "body_too_large",
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit",
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(
                400, "malformed_request", "request body shorter than declared"
            ) from exc
    return Request(
        method=method,
        path=path,
        query_string=query_string,
        headers=headers,
        body=body,
        http_version=version,
    )


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: dict[str, str] | None = None,
    trace_id: str | None = None,
) -> bytes:
    """Serialize one HTTP/1.1 response (head + body) to bytes.

    ``trace_id`` becomes an ``X-Repro-Trace-Id`` header; it is its own
    parameter (rather than an ``extra_headers`` entry) because every
    traced request carries one and a single-entry dict per response is
    measurable on the warm path.
    """
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if trace_id is not None:
        lines.append("X-Repro-Trace-Id: " + trace_id)
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


# ----------------------------------------------------------------------
# Running a listener
# ----------------------------------------------------------------------


async def serve_until(stop: asyncio.Event, start, shutdown, on_ready=None) -> None:
    """Start a listener, serve until ``stop`` is set, then shut it down.

    ``start`` and ``shutdown`` are coroutine functions; ``start``
    returns the bound ``(host, port)``, which is handed to ``on_ready``.
    ``shutdown`` runs however the wait ends, cancellation included.
    """
    address = await start()
    if on_ready is not None:
        on_ready(address)
    try:
        await stop.wait()
    finally:
        await shutdown()


class LoopThread:
    """:func:`serve_until` on a thread with its own event loop.

    The constructor returns once ``start`` has, with :attr:`address`
    bound, and re-raises what ``start`` raised. :meth:`shutdown` may be
    called from any thread; it sets the stop event and joins.
    """

    def __init__(self, start, shutdown, *, name: str):
        started = concurrent.futures.Future()

        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await serve_until(self._stop, start, shutdown, started.set_result)
            except Exception as exc:
                if started.done():
                    raise
                started.set_exception(exc)

        self._thread = threading.Thread(
            target=lambda: asyncio.run(main()), name=name, daemon=True
        )
        self._thread.start()
        self.address = started.result()

    def shutdown(self, timeout: float = 30.0) -> None:
        """Set the stop event, then join the thread (idempotent)."""
        if not self._thread.is_alive():
            return
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover — drain stuck
            raise RuntimeError(f"{self._thread.name} did not shut down in time")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
