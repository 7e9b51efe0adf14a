"""The cyclic collector's work, as three metric families.

- ``repro_gc_collections_total{generation}`` — collections per
  generation since the process started, read from ``gc.get_stats()``
  at scrape time.
- ``repro_gc_promotions_total`` — evaluations whose young objects went
  straight to the oldest generation instead of through a young
  collection (:mod:`repro.core.gc_pause`), read at scrape time.
- ``repro_gc_pause_seconds`` — a histogram of how long each collection
  took, fed by one ``gc.callbacks`` hook per process. The hook goes in
  when the first registry takes the family, so collections before that
  are counted but not timed.

The collector is process-wide, so the families are too: every
registry they are registered on reports the same process's numbers,
and a prefork pool sums its workers'.

The hook runs inside the collector, which may start on any allocation,
including one made while a thread holds a metric's lock. So it takes
no lock: it adds to one histogram cell created up front, and only the
collector (which never runs twice at once) writes to it.
"""

from __future__ import annotations

import gc
import threading
import time
from bisect import bisect_left

from repro.obs.metrics import Histogram, MetricsRegistry

#: Collections last from microseconds (a young generation) to a good
#: fraction of a second (a full one over a large heap).
PAUSE_BUCKETS = (
    0.00001, 0.000025, 0.00005,
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0,
)

_install_lock = threading.Lock()
_pauses: Histogram | None = None
# Counted only by a pause's owner while it holds the pause's own lock,
# so the count takes no lock of its own.
_promotions = 0


def count_promotion() -> None:
    """Count one pause whose young objects were promoted."""
    global _promotions
    _promotions += 1


def promotions() -> int:
    """Pauses that promoted their young objects since the process
    started."""
    return _promotions


def _pause_histogram() -> Histogram:
    """The process's pause histogram; the first call installs the hook."""
    global _pauses
    with _install_lock:
        if _pauses is None:
            pauses = Histogram(
                "repro_gc_pause_seconds",
                "Seconds each cyclic-collector pass took, all generations.",
                PAUSE_BUCKETS,
                locked=False,
            )
            cell = pauses._ensure_cell(())
            buckets = pauses.buckets
            started = 0.0

            def hook(phase: str, info: dict) -> None:
                nonlocal started
                if phase == "start":
                    started = time.perf_counter()
                    return
                elapsed = time.perf_counter() - started
                cell[bisect_left(buckets, elapsed)] += 1
                cell[-1] += elapsed

            gc.callbacks.append(hook)
            _pauses = pauses
        return _pauses


def _collections() -> dict:
    return {
        (str(generation),): stats["collections"]
        for generation, stats in enumerate(gc.get_stats())
    }


def register_gc_metrics(registry: MetricsRegistry) -> None:
    """Put the collector families on ``registry``."""
    registry.callback(
        "repro_gc_collections_total",
        "Cyclic-collector passes since the process started, by generation.",
        _collections,
        kind="counter",
        labelnames=("generation",),
    )
    registry.callback(
        "repro_gc_promotions_total",
        "Evaluations whose young objects were promoted to the oldest "
        "generation instead of walked by a young collection.",
        promotions,
        kind="counter",
    )
    registry.register(_pause_histogram())
