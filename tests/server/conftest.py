"""Shared fixtures for the HTTP serving tests.

Every test runs against a *real* server: an
:func:`~repro.server.serve_in_background` instance on an ephemeral
port, spoken to over a real TCP socket through
:class:`http.client.HTTPConnection`. Nothing is mocked below the
application layer — the suite exercises the same bytes a curl client
would send.
"""

from __future__ import annotations

import os
import sys

import pytest

# The storage suite's fault-injection helpers (ENOSPC handles, byte
# flips) drive the serving-resilience and chaos tests too.
sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "storage")
)

from repro.server import serve_in_background
from repro.service import QueryService

from _http_client import Client


@pytest.fixture(scope="module")
def service(mini_yago, mini_yago_catalog):
    with QueryService(mini_yago, catalog=mini_yago_catalog) as svc:
        yield svc


@pytest.fixture(scope="module")
def server(service):
    with serve_in_background(service) as handle:
        yield handle


@pytest.fixture
def client(server):
    c = Client(server.address)
    yield c
    c.close()


@pytest.fixture
def fresh(mini_yago, mini_yago_catalog):
    """``(service, client)`` with empty caches behind its own server, so
    a test's first request is a miss and its counters start at zero,
    whatever ran before it."""
    with QueryService(mini_yago, catalog=mini_yago_catalog) as svc:
        with serve_in_background(svc) as handle:
            c = Client(handle.address)
            try:
                yield svc, c
            finally:
                c.close()
