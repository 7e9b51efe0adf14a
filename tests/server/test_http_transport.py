"""The HTTP/1.1 transport (``repro.server.http``) on its own.

``read_request`` is fed raw bytes through a ``StreamReader``, so every
error branch is reached exactly, without a socket. The last test keeps
the package to that one transport: no module may import a second HTTP
server from the standard library.
"""

from __future__ import annotations

import ast
import asyncio
from pathlib import Path

import pytest

from repro.server.http import MAX_HEAD_BYTES, HttpError, read_request

OK_HEAD = b"POST /v1/query HTTP/1.1\r\nHost: x\r\n"


def _read(raw: bytes, max_body_bytes: int = 64):
    async def main():
        # The limit asyncio.start_server gives every connection.
        reader = asyncio.StreamReader(limit=2**16)
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body_bytes)

    return asyncio.run(main())


@pytest.mark.parametrize(
    "raw, status, code",
    [
        pytest.param(
            b"GET / HTTP/1.1\r\nX: " + b"a" * MAX_HEAD_BYTES + b"\r\n\r\n",
            431, "headers_too_large", id="head-over-cap",
        ),
        pytest.param(
            b"GET / HTTP/1.1\r\nX: " + b"a" * 2**17,
            431, "headers_too_large", id="head-over-reader-limit",
        ),
        pytest.param(
            OK_HEAD + b"Transfer-Encoding: chunked\r\n\r\n",
            501, "unsupported_transfer_encoding", id="transfer-encoding",
        ),
        pytest.param(b"GET\r\n\r\n", 400, "malformed_request",
                     id="bad-request-line"),
        pytest.param(b"GET / HTTP/2.0\r\n\r\n", 400, "malformed_request",
                     id="unsupported-version"),
        pytest.param(b"GET / HTTP/1.1\r\nHost: x\r\n", 400,
                     "malformed_request", id="truncated-head"),
        pytest.param(OK_HEAD + b"Content-Length: 9\r\n\r\n{}", 400,
                     "malformed_request", id="short-body"),
        pytest.param(OK_HEAD + b"No colon here\r\n\r\n", 400,
                     "malformed_request", id="header-without-colon"),
        pytest.param(
            OK_HEAD + b"Content-Length: 2\r\nContent-Length: 5\r\n\r\n{}abc",
            400, "malformed_request", id="content-length-twice",
        ),
        pytest.param(OK_HEAD + b"Content-Length: 0_5\r\n\r\n{}abc", 400,
                     "malformed_request", id="content-length-underscore"),
        pytest.param(OK_HEAD + b"Content-Length: +5\r\n\r\n{}abc", 400,
                     "malformed_request", id="content-length-sign"),
        pytest.param(OK_HEAD + b"Content-Length: -1\r\n\r\n", 400,
                     "malformed_request", id="content-length-negative"),
        pytest.param(OK_HEAD + b"Content-Length : 5\r\n\r\n{}abc", 400,
                     "malformed_request", id="space-before-colon"),
        pytest.param(OK_HEAD + b" Folded: x\r\n\r\n", 400,
                     "malformed_request", id="leading-whitespace"),
        pytest.param(OK_HEAD + b"Content-Length: 65\r\n\r\n", 413,
                     "body_too_large", id="body-over-cap"),
    ],
)
def test_read_request_refuses_with_a_typed_error(raw, status, code):
    with pytest.raises(HttpError) as excinfo:
        _read(raw)
    assert (excinfo.value.status, excinfo.value.code) == (status, code)


def test_read_request_takes_a_well_formed_request():
    request = _read(OK_HEAD + b"Content-Length:  5 \r\n\r\n{}abc")
    assert request.body == b"{}abc"
    assert request.headers["content-length"] == "5"
    assert _read(b"") is None  # clean end of stream


def test_no_module_imports_a_second_http_server():
    """``repro.server.http`` is the package's only HTTP server."""
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    banned = {"http.server", "socketserver"}
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            if any(name in banned for name in names):
                offenders.append(f"{path.relative_to(src)}:{node.lineno}")
    assert offenders == []
