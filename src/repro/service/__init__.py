"""Long-lived query service over one (ideally frozen) triple store.

The seed reproduction evaluates one query at a time: construct a
:class:`~repro.core.engine.WireframeEngine`, call ``evaluate``, throw
both away. A production deployment instead keeps *one* engine alive and
pushes many queries through it. This package provides that layer:

- :func:`~repro.service.signature.query_signature` — a canonical,
  alpha-invariant key for a :class:`~repro.query.model.ConjunctiveQuery`
  (structurally identical queries share a key no matter how their
  variables are named).
- :class:`~repro.service.caches.PlanCache` — a bounded ARC cache of
  ``(AGPlan, Chordification)`` pairs keyed on that signature, so
  repeated query templates skip the Edgifier/Triangulator entirely.
- :class:`~repro.service.caches.ResultCache` — a bounded cache of final
  results; a write invalidates exactly the entries whose query
  mentions a predicate it changed (plans likewise).
- :class:`~repro.service.query_service.QueryService` — the façade: a
  thread pool over the immutable store, ``submit()`` returning futures,
  ``evaluate_many()`` for batches with per-query deadlines. Its counters
  and stage latencies live once, in its ``metrics`` registry, which
  ``snapshot()`` (the ``/v1/stats`` view) reads back.
"""

from repro.service.caches import BoundedCache, CacheStats, PlanCache, ResultCache
from repro.service.query_service import QueryService
from repro.service.signature import plan_signature, query_signature

__all__ = [
    "BoundedCache",
    "CacheStats",
    "PlanCache",
    "QueryService",
    "ResultCache",
    "plan_signature",
    "query_signature",
]
