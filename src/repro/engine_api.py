"""The common engine interface shared by Wireframe and all baselines.

Every engine in the library — Wireframe itself and the four stand-ins
for the paper's comparison systems — implements :class:`Engine`:
bind a :class:`~repro.query.model.ConjunctiveQuery` against a store,
evaluate it under a cooperative :class:`~repro.utils.deadline.Deadline`,
and return an :class:`EngineResult`. The benchmark harness treats all
engines uniformly through this interface, exactly as the paper's
Table 1 treats its five systems.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.query.model import ConjunctiveQuery
from repro.utils.deadline import Deadline

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.store import TripleStore
    from repro.stats.catalog import Catalog


def resolve_catalog(
    store: "TripleStore", catalog: "Catalog | None"
) -> "Catalog":
    """The catalog an engine should use for ``store``.

    An explicit ``catalog`` wins; otherwise the store's memoized
    :meth:`~repro.graph.store.TripleStore.catalog` is used, so every
    engine constructed over the same store shares one statistics build
    instead of each silently recomputing it.
    """
    if catalog is not None:
        return catalog
    return store.catalog()


def json_safe(value):
    """Recursively coerce ``value`` into JSON-encodable primitives.

    Engine ``stats`` dicts carry tuples (plan orders), numpy scalars
    (estimator outputs), and occasionally richer objects; every wire
    consumer (HTTP responses, ``--json`` CLI output, benchmark
    artifacts) needs them as plain JSON. Tuples/sets become lists,
    numpy scalars unwrap through ``.item()``, non-finite floats become
    ``None`` (JSON has no ``inf``/``nan``), and anything else falls
    back to ``str`` rather than failing the whole response.
    """
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") else None
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((json_safe(v) for v in value), key=repr)
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        try:
            return json_safe(item())
        except (TypeError, ValueError):
            pass
    return str(value)


#: Largest rendering :meth:`EngineResult.to_json` keeps on the result.
#: A default-limit response is a few KiB; a ``limit: null`` answer of
#: tens of thousands of rows is re-rendered per request instead of being
#: pinned once per cached result.
MAX_MEMOIZED_JSON_BYTES = 64 * 1024


@dataclass
class EngineResult:
    """Outcome of one query evaluation.

    ``count`` is always the number of result tuples (after projection
    and DISTINCT); ``rows`` holds the materialized tuples when the
    caller asked for them (``materialize=True``), else ``None`` — all
    of them, or, when the evaluation was given a ``limit``, the first
    ``limit`` in enumeration order (``len(rows) < count`` then says
    rows were left out).
    ``stats`` carries engine-specific extras (edge walks, |AG|, plan
    descriptions, phase timings...) surfaced in reports.
    """

    engine: str
    count: int
    rows: list[tuple] | None = None
    stats: dict = field(default_factory=dict)
    # The last to_json() rendering, as (dictionary, limit, bytes). Not a
    # constructor field, so dataclasses.replace() starts a copy without
    # it; it is dropped with the result and needs no other invalidation.
    _json: "tuple | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def decoded_rows(
        self, dictionary, limit: "int | None" = None
    ) -> "list[tuple[str, ...]] | None":
        """Materialize ``rows`` as term-string tuples, batched.

        All row ids are decoded through **one**
        :meth:`~repro.graph.dictionary.DictionaryView.decode_many`
        call (per-row ``decode`` dispatch would dominate large result
        sets, especially on the lazy mmap dictionary). ``limit`` caps
        how many rows are decoded — display paths never pay for rows
        they will not show. Returns ``None`` when the result was not
        materialized.
        """
        if self.rows is None:
            return None
        rows = self.rows if limit is None else self.rows[:limit]
        if not rows:
            return []
        width = len(rows[0])
        flat = dictionary.decode_many([v for row in rows for v in row])
        return [
            tuple(flat[i : i + width]) for i in range(0, len(flat), width)
        ]

    def to_dict(self, dictionary, limit: "int | None" = None) -> dict:
        """The canonical JSON-safe wire form of this result.

        The single serialization every consumer shares — the HTTP
        ``/v1`` responses, ``repro query --json``, and ``repro batch
        --json`` all emit exactly this dict instead of formatting ad
        hoc. ``rows`` holds decoded term-string rows (through one
        batched :meth:`decoded_rows` call), capped at ``limit`` when
        given; a non-materialized result writes ``rows: null``.
        ``truncated`` flags rows the answer has and this form does not
        show, so clients can distinguish "10 rows" from "first 10 of
        10_000". ``stats`` is passed through :func:`json_safe`.
        """
        decoded = self.decoded_rows(dictionary, limit=limit)
        return {
            "engine": self.engine,
            "count": self.count,
            "rows": None if decoded is None else [list(row) for row in decoded],
            "truncated": decoded is not None and len(decoded) < self.count,
            "stats": json_safe(self.stats),
        }

    def memoized_json(
        self, dictionary, limit: "int | None" = None
    ) -> "bytes | None":
        """The rendering :meth:`to_json` kept for exactly these
        arguments, or ``None`` if it has to render."""
        memo = self._json
        if memo is not None and memo[0] is dictionary and memo[1] == limit:
            return memo[2]
        return None

    def to_json(self, dictionary, limit: "int | None" = None) -> bytes:
        """``json.dumps(self.to_dict(dictionary, limit))`` as bytes.

        The rendering is kept on the result for the last ``limit`` asked
        (see :meth:`memoized_json`) unless it exceeds
        :data:`MAX_MEMOIZED_JSON_BYTES`, so a result that is served
        repeatedly — a result-cache entry — decodes and encodes its rows
        once. The result, its ``stats`` included, must not be mutated
        afterwards.
        """
        rendered = json.dumps(self.to_dict(dictionary, limit)).encode("utf-8")
        if len(rendered) <= MAX_MEMOIZED_JSON_BYTES:
            self._json = (dictionary, limit, rendered)
        return rendered


class Engine(abc.ABC):
    """Evaluate conjunctive queries over one fixed triple store."""

    #: Short report label, e.g. ``"WF"`` or ``"PG"``.
    name: str = "?"

    @abc.abstractmethod
    def evaluate(
        self,
        query: ConjunctiveQuery,
        deadline: Deadline | None = None,
        materialize: bool = True,
    ) -> EngineResult:
        """Evaluate ``query``, returning every result tuple.

        Implementations must poll ``deadline`` in their inner loops and
        let :class:`~repro.errors.EvaluationTimeout` propagate — the
        harness converts it to the paper's ``*`` marker.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
