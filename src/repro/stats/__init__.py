"""Offline statistics catalog and cardinality estimation.

Substrate #3 in DESIGN.md. The paper (§4.I): "Wireframe employs
cardinality estimators drawn from a catalog consisting of 1-gram and
2-gram edge-label statistics computed offline."
"""

from repro.stats.catalog import Catalog, UnigramStat, BigramStat, build_catalog
from repro.stats.estimator import (
    CardinalityEstimator,
    EstimatorState,
    QueryStatistics,
)

__all__ = [
    "Catalog",
    "UnigramStat",
    "BigramStat",
    "build_catalog",
    "CardinalityEstimator",
    "EstimatorState",
    "QueryStatistics",
]
