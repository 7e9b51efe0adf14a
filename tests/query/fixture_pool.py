"""The end-to-end benchmark's query pool, pinned by its digest.

``benchmarks/e2e`` serves the 1,024 queries of ``query_pool`` over the
``generate_yago_like(scale=2.0, seed=0)`` fixture and caches each
query's oracle answer by its SPARQL text. The query miner samples in
the iteration order of the node-first indexes (``out_edges`` /
``in_edges``), so a change to how those are built can change the pool,
and with it every cached oracle key, while every other test passes.
This file reads ``benchmarks/e2e/common.py`` without changing it and
pins the sha256 of the pool's SPARQL texts, one line each, on the
default backend. A change that alters the pool on purpose updates the
digest and says so. The file name keeps it out of tier-1 collection
(about a second of fixture generation and mining); CI runs it once per
backend:

    REPRO_BACKEND=columnar python -m pytest tests/query/fixture_pool.py -q
"""

import hashlib
import importlib.util
from pathlib import Path

from repro.graph.backends import default_backend_name

COMMON = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "common.py"

DIGESTS = {
    "columnar": "2e17a7436bc3f7875b02e06405415abc28dcd78de232629f6e6d7e923c32a0d5",
    "hashdict": "fe3da1ea3d54b3def3a2c5f5dadea9eb19fec6959f794689f7fdef92ba47aec5",
}


def test_query_pool_is_unchanged():
    spec = importlib.util.spec_from_file_location("e2e_common", COMMON)
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    backend = default_backend_name()
    pool = common.query_pool(common.fixture_store(common.SCALE, backend), common.SCALE)
    assert len(pool) == common.POOL_SIZE
    text = "\n".join(query.to_sparql() for query in pool)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[backend]
