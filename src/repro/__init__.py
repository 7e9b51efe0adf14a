"""Wireframe: answer-graph (factorized) evaluation of SPARQL CQs.

Reproduction of *Answer Graph: Factorization Matters in Large Graphs*
(Abul-Basher, Yakovets, Godfrey, Clark, Chignell — EDBT 2021).

Quickstart::

    from repro import GraphBuilder, WireframeEngine, parse_query

    store = (
        GraphBuilder()
        .edge("alice", "knows", "bob")
        .edge("bob", "knows", "carol")
        .build(freeze=True)
    )
    query = parse_query("select ?a, ?b, ?c where { ?a knows ?b . ?b knows ?c }")
    result = WireframeEngine(store).evaluate(query)
    print(result.count, "embeddings")

For serving many queries over one store, use the concurrent
:class:`~repro.service.QueryService` instead of constructing an engine
per query — it builds the statistics catalog exactly once, caches plans
across structurally identical queries, and memoizes results until the
store changes::

    from repro import QueryService

    with QueryService(store, freeze=True) as service:
        future = service.submit(query)            # -> Future[EngineResult]
        results = service.evaluate_many([query] * 100, deadlines=1.0)
        print(service.snapshot()["plan_cache"]["hit_rate"])

To take traffic over the network, put the HTTP front end in front of
the same service (``repro serve`` on the command line, or
:func:`~repro.server.serve` in code) — it speaks the versioned
``/v1`` JSON wire API built on :meth:`ConjunctiveQuery.to_dict
<repro.query.model.ConjunctiveQuery.to_dict>` and
:meth:`EngineResult.to_dict <repro.engine_api.EngineResult.to_dict>`.

See README.md for the quickstart, DESIGN.md for the system inventory,
and EXPERIMENTS.md for the paper-versus-measured record.

This module is the package's supported surface: everything in
``__all__`` is covered by the public-API tests and follows
deprecation policy (renamed names keep working for one minor release
behind a ``DeprecationWarning`` shim — currently ``parse_sparql`` →
:func:`parse_query`).
"""

import warnings as _warnings

from repro.errors import (
    DatasetError,
    DictionaryError,
    EvaluationError,
    EvaluationTimeout,
    ParseError,
    PlanError,
    QueryError,
    ReproError,
    SnapshotError,
    StoreError,
)
from repro.graph import (
    ColumnarBackend,
    Dictionary,
    DictionaryView,
    GraphBuilder,
    HashDictBackend,
    StorageBackend,
    Triple,
    TripleStore,
    available_backends,
    parse_ntriples,
    serialize_ntriples,
)
from repro.query import (
    BoundQuery,
    ConjunctiveQuery,
    Const,
    QueryEdge,
    QueryMiner,
    QueryShape,
    Var,
    bind_query,
    chain_template,
    classify_shape,
    cycle_template,
    diamond_template,
    find_cycles,
    is_acyclic,
    parse_query,
    snowflake_template,
    star_template,
)
from repro.stats import Catalog, CardinalityEstimator, build_catalog
from repro.planner import (
    AGPlan,
    Chordification,
    Edgifier,
    EmbeddingPlan,
    Triangulator,
    greedy_embedding_plan,
)
from repro.core import (
    AnswerGraph,
    WireframeEngine,
    WireframeResult,
    count_embeddings,
    sample_embedding,
    variable_marginals,
    enumerate_embeddings_bruteforce,
    generate_answer_graph,
    has_any_embedding,
    ideal_answer_graph,
    iter_embeddings,
    materialize_embeddings,
)
from repro.engine_api import Engine, EngineResult, resolve_catalog
from repro.storage import (
    MmapDictionary,
    is_snapshot,
    load_snapshot,
    load_snapshot_catalog,
    save_snapshot,
)
from repro.service import (
    PlanCache,
    QueryService,
    ResultCache,
    plan_signature,
    query_signature,
)
from repro.baselines import (
    ColumnarEngine,
    HashJoinEngine,
    IndexNestedLoopEngine,
    NavigationalEngine,
)
from repro.datasets import (
    YagoLikeConfig,
    generate_yago_like,
    paper_diamond_queries,
    paper_queries,
    paper_snowflake_queries,
)
from repro.datasets.loader import load_dataset
from repro.server import (
    HTTPQueryServer,
    PreforkServer,
    WireError,
    serve,
    serve_in_background,
    serve_prefork,
)
from repro.utils import Deadline

try:
    # The single source of truth for the version is the installed
    # package metadata (pyproject.toml). The fallback covers
    # PYTHONPATH=src usage of an uninstalled checkout and must be kept
    # in sync with pyproject.toml by hand.
    from importlib.metadata import PackageNotFoundError as _PkgNotFound
    from importlib.metadata import version as _pkg_version

    __version__ = _pkg_version("repro-answer-graph")
except _PkgNotFound:  # pragma: no cover — uninstalled checkout
    __version__ = "1.12.0"

#: Deprecated top-level names: old name -> (replacement name, object).
#: Accessing one still works for a minor release but warns.
_DEPRECATED_ALIASES = {
    "parse_sparql": ("parse_query", parse_query),
}


def __getattr__(name: str):
    """Resolve deprecated aliases with a :class:`DeprecationWarning`."""
    if name in _DEPRECATED_ALIASES:
        replacement, obj = _DEPRECATED_ALIASES[name]
        _warnings.warn(
            f"repro.{name} is deprecated; use repro.{replacement} instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return obj
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    # errors
    "ReproError",
    "DictionaryError",
    "StoreError",
    "ParseError",
    "QueryError",
    "PlanError",
    "EvaluationError",
    "EvaluationTimeout",
    "DatasetError",
    "SnapshotError",
    "WireError",
    # graph substrate
    "Dictionary",
    "DictionaryView",
    "Triple",
    "TripleStore",
    "StorageBackend",
    "HashDictBackend",
    "ColumnarBackend",
    "available_backends",
    "GraphBuilder",
    "parse_ntriples",
    "serialize_ntriples",
    # query front end
    "Var",
    "Const",
    "QueryEdge",
    "ConjunctiveQuery",
    "BoundQuery",
    "bind_query",
    "parse_query",
    "QueryShape",
    "classify_shape",
    "find_cycles",
    "is_acyclic",
    "chain_template",
    "star_template",
    "snowflake_template",
    "diamond_template",
    "cycle_template",
    "QueryMiner",
    # statistics
    "Catalog",
    "build_catalog",
    "CardinalityEstimator",
    # planners
    "AGPlan",
    "EmbeddingPlan",
    "Chordification",
    "Edgifier",
    "Triangulator",
    "greedy_embedding_plan",
    # core
    "AnswerGraph",
    "generate_answer_graph",
    "iter_embeddings",
    "materialize_embeddings",
    "count_embeddings",
    "variable_marginals",
    "sample_embedding",
    "enumerate_embeddings_bruteforce",
    "has_any_embedding",
    "ideal_answer_graph",
    "WireframeEngine",
    "WireframeResult",
    # engines
    "Engine",
    "EngineResult",
    "resolve_catalog",
    # persistence
    "save_snapshot",
    "MmapDictionary",
    "load_snapshot",
    "load_snapshot_catalog",
    "is_snapshot",
    "load_dataset",
    # serving (HTTP front end + prefork pool)
    "HTTPQueryServer",
    "PreforkServer",
    "serve",
    "serve_in_background",
    "serve_prefork",
    # service
    "QueryService",
    "PlanCache",
    "ResultCache",
    "plan_signature",
    "query_signature",
    "HashJoinEngine",
    "IndexNestedLoopEngine",
    "ColumnarEngine",
    "NavigationalEngine",
    # datasets
    "YagoLikeConfig",
    "generate_yago_like",
    "paper_queries",
    "paper_snowflake_queries",
    "paper_diamond_queries",
    # utils
    "Deadline",
]
