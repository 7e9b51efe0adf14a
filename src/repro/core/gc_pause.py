"""Pause CPython's cyclic collector for the length of one evaluation.

An evaluation allocates hundreds of thousands of container objects:
the answer graph's dicts of per-node sets, phase 1's temporaries and
phase 2's row tuples. The generational collector counts every one of
them and, every 700 allocations, re-walks the young ones looking for
cycles. There are none to find, so the pause is safe:

- The answer graph, its chords, the plans and the ``WireframeResult``
  hold no reference cycle: an evaluation leaves nothing unreachable
  behind (``test_an_evaluation_leaves_nothing_to_the_cyclic_collector``).
  They die by reference count the moment their last reference goes,
  whether the collector is on or off.
- Rows are tuples of ints, which cannot be part of a cycle.

Where the collector comes back on matters as much as the pause.
:meth:`WireframeEngine.evaluate` resumes it only after the
``WireframeResult`` is released, so the answer graph is already gone
and what is left young is what the caller keeps: the rows.

**Promotion.** The rows outlive any young collection, so walking them
there finds nothing: a young pass costs its survivors, and here the
survivors are thousands of row tuples it only untracks. So the body
reports, through the :class:`Pause` it is handed, how many rows it
hands back, and the owner's exit places everything still young
straight into the oldest generation (``gc.freeze(); gc.unfreeze()``:
two list splices, ~5 µs, which also zero the young count) before it
re-enables the collector. The rows then die by reference count, or a
later full collection walks them once. It promotes only when

- the rows reach CPython's own young threshold
  (``gc.get_threshold()[0]``, non-zero): fewer rows than that would not
  by themselves start a young collection, so there is nothing to save;
- nobody else froze objects (``gc.get_freeze_count() == 0``):
  ``gc.unfreeze()`` would thaw theirs. That check walks the frozen
  objects, so it costs O(frozen), and it runs only when the rows
  already qualify.

The decision is keyed on the rows handed back, not on the young count
``gc.get_count()[0]``: on a thread pool other workers' in-flight
allocations fill that count, so every resume would promote and no young
collection would ever run. What promotion defers: a cycle among
whatever else was young (this evaluation's or another thread's) is
found by the next full collection instead of the next young one. Each
promotion counts in ``repro_gc_promotions_total``
(:mod:`repro.obs.gc_metrics`).

:func:`collector_paused` is process-wide and safe across threads. The
evaluation that finds the collector enabled disables it and is its
*owner*; only the owner re-enables it, and only the owner promotes.
Any evaluation that starts while the collector is off leaves it alone:
a nested evaluation, one on another thread, or a caller that turned
``gc`` off itself. There is no count of active pauses: with queries
overlapping without end on a thread pool, such a count would never
fall to 0 and cyclic garbage from the rest of the process (the event
loop, sockets) would never be collected. Here the collector comes back
when its owner finishes, even while other evaluations still run.

A pause never spans a ``yield``: code that hands control back to its
caller mid-evaluation (``iter_embeddings``) runs with the collector as
the caller left it.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

from repro.obs.gc_metrics import count_promotion

_lock = threading.Lock()


class Pause:
    """The handle :func:`collector_paused` yields to its body."""

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows = 0

    def hand_back(self, rows: int) -> None:
        """Report that the body hands ``rows`` row objects back."""
        self.rows += rows


def _promote_young(rows: int) -> None:
    threshold = gc.get_threshold()[0]
    if threshold and rows >= threshold and gc.get_freeze_count() == 0:
        gc.freeze()
        gc.unfreeze()
        count_promotion()


@contextmanager
def collector_paused() -> Iterator[Pause]:
    """Run the ``with`` body with the cyclic collector off, and turn it
    back on afterwards only if this call turned it off, first promoting
    the young objects if the body handed back enough rows."""
    with _lock:
        owner = gc.isenabled()
        if owner:
            gc.disable()
    pause = Pause()
    try:
        yield pause
    finally:
        if owner:
            with _lock:
                _promote_young(pause.rows)
                gc.enable()
