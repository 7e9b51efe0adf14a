"""A tiny JSON-over-HTTP test client shared by the serving tests."""

from __future__ import annotations

import http.client
import json


class Client:
    """Keep-alive JSON client over a single ``http.client`` socket."""

    def __init__(self, address):
        host, port = address
        self.conn = http.client.HTTPConnection(host, port, timeout=30)

    def request(self, method, path, body=None, headers=None):
        """Issue one request; returns ``(status, parsed-JSON, headers)``."""
        if isinstance(body, (dict, list)):
            body = json.dumps(body)
        self.conn.request(method, path, body=body, headers=headers or {})
        response = self.conn.getresponse()
        raw = response.read()
        payload = json.loads(raw) if raw else None
        return response.status, payload, dict(response.getheaders())

    def get(self, path):
        return self.request("GET", path)

    def get_text(self, path):
        """Issue one GET without JSON-decoding the body.

        Returns ``(status, body-str, headers)`` — for non-JSON routes
        like the Prometheus ``/metrics`` exposition.
        """
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        raw = response.read()
        return (
            response.status,
            raw.decode("utf-8"),
            dict(response.getheaders()),
        )

    def post(self, path, body, headers=None):
        return self.request("POST", path, body=body, headers=headers)

    def post_raw(self, path, body: bytes, headers=None):
        """POST exact request bytes; returns ``(status, body-bytes)``."""
        self.conn.request("POST", path, body=body, headers=headers or {})
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self):
        self.conn.close()


def make_client(handle) -> Client:
    """A fresh connection to a ``ServerHandle`` (multi-connection tests)."""
    return Client(handle.address)
