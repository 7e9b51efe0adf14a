#!/usr/bin/env python3
"""Analytics on the factorized answer graph — no enumeration needed.

Run:  python examples/factorized_analytics.py

The answer graph is a *factorized* representation of a query's answer
set (§2). Beyond fast tuple retrieval, factorization lets several
aggregates be computed directly on the AG:

* the exact answer count (pool sizes multiplied, no row built),
* per-variable marginals ("how often does each node appear in this
  output column?"), and
* uniform random samples of answers,

all without ever producing the (much larger) embedding list. This
example demonstrates each on a Table-1 snowflake query.
"""

import time

from repro import (
    WireframeEngine,
    build_catalog,
    count_embeddings,
    generate_yago_like,
    sample_embedding,
    variable_marginals,
)
from repro.datasets.paper_queries import paper_snowflake_queries

store = generate_yago_like(scale=1.0, seed=0)
catalog = build_catalog(store)
query = paper_snowflake_queries()[2]  # Table 1 row 3, the largest
print(f"query {query.name}: {len(query.edges)} edges over "
      f"{store.num_triples:,} triples")

engine = WireframeEngine(store, catalog)
detail = engine.evaluate_detailed(query, materialize=False)
ag = detail.answer_graph
print(f"answer graph: {detail.ag_size} pairs "
      f"(phase 1: {detail.phase1_seconds * 1000:.0f} ms)")

# --- counting ---------------------------------------------------------
t0 = time.perf_counter()
count = count_embeddings(ag, detail.embedding_plan.order)
t_factorized = time.perf_counter() - t0
print(f"\nfactorized count: {count:,} answers in "
      f"{t_factorized * 1000:.1f} ms")

from repro.core.defactorize import iter_embeddings  # noqa: E402

t0 = time.perf_counter()
assert sum(1 for _ in iter_embeddings(ag, detail.embedding_plan.order)) == count
t_enum = time.perf_counter() - t0
print(f"enumeration count: same value in {t_enum * 1000:.1f} ms "
      f"(O(|embeddings|)) — {t_enum / max(t_factorized, 1e-9):.0f}x slower")

# --- marginals --------------------------------------------------------
marginals = variable_marginals(ag)
bound = ag.bound
decode = store.dictionary.decode
x_index = bound.var_index("x")
top = sorted(marginals[x_index].items(), key=lambda kv: -kv[1])[:5]
print("\ntop ?x bindings by answer multiplicity:")
for node, multiplicity in top:
    print(f"  {decode(node):24} appears in {multiplicity:,} answers")

# --- sampling ---------------------------------------------------------
print("\nthree uniform samples from the answer set:")
for seed in range(3):
    sample = sample_embedding(ag, seed)
    assert sample is not None
    rendered = ", ".join(
        f"?{name}={decode(value)}"
        for name, value in zip(bound.var_names, sample)
    )
    print(f"  {rendered}")
