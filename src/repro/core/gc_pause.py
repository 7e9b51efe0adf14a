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
and the first collection after the pause walks only what the caller
keeps (the rows), not the answer graph.

:func:`collector_paused` is process-wide and safe across threads. The
evaluation that finds the collector enabled disables it and is its
*owner*; only the owner re-enables it. Any evaluation that starts while
the collector is off leaves it alone: a nested evaluation, one on
another thread, or a caller that turned ``gc`` off itself. There is no
count of active pauses: with queries overlapping without end on a
thread pool, such a count would never fall to 0 and cyclic garbage from
the rest of the process (the event loop, sockets) would never be
collected. Here the collector comes back when its owner finishes, even
while other evaluations still run.

A pause never spans a ``yield``: code that hands control back to its
caller mid-evaluation (``iter_embeddings``) runs with the collector as
the caller left it.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the ``with`` body with the cyclic collector off, and turn it
    back on afterwards only if this call turned it off."""
    with _lock:
        owner = gc.isenabled()
        if owner:
            gc.disable()
    try:
        yield
    finally:
        if owner:
            gc.enable()
