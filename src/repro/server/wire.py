"""The versioned ``/v1`` JSON wire protocol: documents and errors.

Request documents are strict: every field is validated, unknown fields
are rejected (a misspelled ``"timeout_secconds"`` must fail loudly,
not silently run without a deadline), and the query itself arrives in
one of exactly two forms —

* ``"query"``: the canonical wire form written by
  :meth:`repro.query.model.ConjunctiveQuery.to_dict`, or
* ``"sparql"``: SPARQL text for :func:`repro.query.parser.parse_query`.

Error responses share one JSON envelope::

    {"api_version": "v1", "error": {"code": "...", "message": "..."}}

with ``code`` drawn from a small stable vocabulary
(``malformed_json``, ``unknown_field``, ``invalid_query``,
``parse_error``, ``timeout``, ``overloaded``, ``draining``,
``body_too_large``, ...). :func:`map_exception` is the single place
where :mod:`repro.errors` exceptions become HTTP statuses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import (
    EvaluationTimeout,
    ParseError,
    QueryError,
    ReproError,
    WalAppendError,
)
from repro.query.model import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.server.http import HttpError
from repro.utils import domains

#: The version segment every route is mounted under. Breaking wire
#: changes bump this and mount alongside the old prefix; additive
#: fields do not.
API_VERSION = "v1"


class WireError(ReproError):
    """A request document that cannot be accepted (HTTP 4xx).

    ``code`` is the stable machine-readable identifier; ``status`` the
    HTTP status the application layer answers with.
    """

    def __init__(self, code: str, message: str, status: int = 400):
        super().__init__(message)
        self.code = code
        self.status = status


@dataclass
class QueryRequest:
    """One validated query submission (shared by /v1/query and /v1/batch)."""

    query: ConjunctiveQuery
    timeout_seconds: float | None
    materialize: bool
    limit: int | None
    include_trace: bool = False


def _reject_constant(name: str) -> float:
    raise WireError("malformed_json", f"body is not valid JSON: {name} is not a JSON value")


def parse_json_body(body: bytes) -> object:
    """Decode a JSON request body; malformed bytes raise ``WireError``,
    and so do ``NaN``, ``Infinity`` and ``-Infinity``, which Python's
    decoder would otherwise accept."""
    try:
        return json.loads(body.decode("utf-8"), parse_constant=_reject_constant)
    except UnicodeDecodeError as exc:
        raise WireError("malformed_json", f"body is not UTF-8: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise WireError("malformed_json", f"body is not valid JSON: {exc}") from exc


def _check_fields(doc: dict, allowed: frozenset, what: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise WireError(
            "unknown_field",
            f"unknown {what} field(s): {', '.join(sorted(map(str, unknown)))} "
            f"(allowed: {', '.join(sorted(allowed))})",
        )


def _in_domain(domain, value, name: str):
    """``domain(value, name)``, its ``ValueError`` an ``invalid_field``."""
    try:
        return domain(value, name)
    except ValueError as exc:
        raise WireError("invalid_field", str(exc)) from None


def _parse_timeout(doc: dict, header_timeout: float | None) -> float | None:
    """The request's deadline budget in seconds, or ``None`` for the
    server's default.

    The body field wins over the ``X-Repro-Timeout`` header (it is the
    more deliberate of the two); either must be in the ``seconds``
    domain (:mod:`repro.utils.domains`).
    """
    timeout = doc.get("timeout_seconds", header_timeout)
    if timeout is None:
        return None
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
        raise WireError(
            "invalid_field", f"'timeout_seconds' must be a number, got {timeout!r}"
        )
    # JSON numbers beyond a float decode as inf (1e999) or as an int
    # float() cannot take (1 and 400 zeros): the domain refuses both.
    return _in_domain(domains.seconds, timeout, "'timeout_seconds'")


def parse_header_timeout(value: str | None) -> float | None:
    """Parse the ``X-Repro-Timeout`` header (the ``seconds`` domain)."""
    if value is None:
        return None
    return _in_domain(domains.seconds, value, "X-Repro-Timeout header")


def _parse_limit(doc: dict, default: int | None) -> int | None:
    limit = doc.get("limit", default)
    if limit is None:
        return None
    if isinstance(limit, bool) or not isinstance(limit, int):
        raise WireError(
            "invalid_field", f"'limit' must be an integer, got {limit!r}"
        )
    return _in_domain(domains.count, limit, "'limit'")


def _parse_flag(doc: dict, field: str, default: bool) -> bool:
    value = doc.get(field, default)
    if not isinstance(value, bool):
        raise WireError(
            "invalid_field", f"'{field}' must be a boolean, got {value!r}"
        )
    return value


def _parse_query_value(doc: dict, what: str) -> ConjunctiveQuery:
    """The query itself, from the ``query``/``sparql`` pair of fields."""
    has_query = "query" in doc
    has_sparql = "sparql" in doc
    if has_query == has_sparql:
        raise WireError(
            "invalid_field",
            f"{what} must carry exactly one of 'query' (canonical wire "
            f"form) or 'sparql' (query text)",
        )
    if has_sparql:
        sparql = doc["sparql"]
        if not isinstance(sparql, str):
            raise WireError(
                "invalid_field", f"'sparql' must be a string, got {sparql!r}"
            )
        query = parse_query(sparql)
    else:
        query = ConjunctiveQuery.from_dict(doc["query"])
    query.validate()
    return query


_QUERY_FIELDS = frozenset(
    {"query", "sparql", "timeout_seconds", "materialize", "limit",
     "include_trace"}
)


def parse_query_request(
    doc: object,
    *,
    header_timeout: float | None = None,
    default_limit: int | None = None,
) -> QueryRequest:
    """Validate one ``POST /v1/query`` document."""
    if not isinstance(doc, dict):
        raise WireError(
            "invalid_field", f"request body must be a JSON object, got {doc!r}"
        )
    _check_fields(doc, _QUERY_FIELDS, "query request")
    return QueryRequest(
        query=_parse_query_value(doc, "a query request"),
        timeout_seconds=_parse_timeout(doc, header_timeout),
        materialize=_parse_flag(doc, "materialize", True),
        limit=_parse_limit(doc, default_limit),
        include_trace=_parse_flag(doc, "include_trace", False),
    )


_BATCH_FIELDS = frozenset(
    {"queries", "timeout_seconds", "materialize", "limit", "include_trace"}
)


def parse_batch_request(
    doc: object,
    *,
    header_timeout: float | None = None,
    default_limit: int | None = None,
    max_batch: int = 256,
) -> list[QueryRequest]:
    """Validate one ``POST /v1/batch`` document into per-query requests.

    ``queries`` is a non-empty list whose elements are each either a
    SPARQL string or a canonical query wire dict;
    ``timeout_seconds``/``materialize``/``limit`` apply to every query
    in the batch (each query still gets its *own* deadline clock).
    """
    if not isinstance(doc, dict):
        raise WireError(
            "invalid_field", f"request body must be a JSON object, got {doc!r}"
        )
    _check_fields(doc, _BATCH_FIELDS, "batch request")
    queries_doc = doc.get("queries")
    if not isinstance(queries_doc, list) or not queries_doc:
        raise WireError(
            "invalid_field", "'queries' must be a non-empty list"
        )
    if len(queries_doc) > max_batch:
        raise WireError(
            "invalid_field",
            f"batch of {len(queries_doc)} queries exceeds the "
            f"{max_batch}-query limit",
            status=413,
        )
    timeout = _parse_timeout(doc, header_timeout)
    materialize = _parse_flag(doc, "materialize", True)
    limit = _parse_limit(doc, default_limit)
    include_trace = _parse_flag(doc, "include_trace", False)
    requests = []
    for i, entry in enumerate(queries_doc):
        if isinstance(entry, str):
            query = parse_query(entry)
        elif isinstance(entry, dict):
            query = ConjunctiveQuery.from_dict(entry)
        else:
            raise WireError(
                "invalid_field",
                f"queries[{i}] must be a SPARQL string or a query wire "
                f"object, got {entry!r}",
            )
        query.validate()
        requests.append(
            QueryRequest(
                query=query,
                timeout_seconds=timeout,
                materialize=materialize,
                limit=limit,
                include_trace=include_trace,
            )
        )
    return requests


# ----------------------------------------------------------------------
# Error envelope
# ----------------------------------------------------------------------


def error_payload(code: str, message: str) -> dict:
    """The standard JSON error envelope body."""
    return {"api_version": API_VERSION, "error": {"code": code, "message": message}}


def map_exception(exc: Exception) -> tuple[int, str, str]:
    """``(status, code, message)`` for any exception a request can raise.

    The single mapping from :mod:`repro.errors` (and the transport's
    :class:`~repro.server.http.HttpError`) onto the wire — client
    mistakes are 4xx, deadline expiry is 504, engine-side failures are
    500 with the exception text (the library's errors are descriptive
    and carry no secrets).
    """
    if isinstance(exc, WireError):
        return exc.status, exc.code, str(exc)
    if isinstance(exc, HttpError):
        return exc.status, exc.code, str(exc)
    if isinstance(exc, EvaluationTimeout):
        return 504, "timeout", str(exc)
    if isinstance(exc, ParseError):
        return 400, "parse_error", str(exc)
    if isinstance(exc, QueryError):
        return 400, "invalid_query", str(exc)
    if isinstance(exc, WalAppendError):
        # The write-ahead log cannot make appends durable (disk full,
        # I/O error): the service is read-only degraded, not broken —
        # retryable, so 503 rather than 500.
        return 503, "degraded", str(exc)
    if isinstance(exc, ReproError):
        return 500, "engine_error", str(exc)
    return 500, "internal_error", f"{type(exc).__name__}: {exc}"
