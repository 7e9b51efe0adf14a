"""Cooperative deadlines for long-running evaluations.

The paper's experimental protocol terminates queries after 300 seconds
and reports them as ``*`` in Table 1. Python threads cannot be killed
safely, so engines in this library implement the same behaviour
*cooperatively*: every inner loop periodically calls
:meth:`Deadline.check`, which raises :class:`~repro.errors.EvaluationTimeout`
once the budget is exhausted.

``Deadline.check`` is designed to be cheap enough to call in tight
loops: it only reads the clock every ``stride`` calls.
"""

from __future__ import annotations

import time

from repro.errors import EvaluationTimeout


class Deadline:
    """A wall-clock budget that can be polled cheaply from inner loops.

    Parameters
    ----------
    budget:
        Seconds allowed from construction (or the latest :meth:`restart`)
        until expiry. ``None`` or ``float("inf")`` means "no limit"; all
        checks then become no-ops.
    stride:
        How many :meth:`check` calls to skip between actual clock reads.
        The default (4096) keeps overhead well under 1% in tuple-at-a-time
        loops while still bounding overshoot to a few milliseconds.
    """

    __slots__ = ("budget", "stride", "_start", "_tick", "_unlimited")

    def __init__(self, budget: float | None = None, stride: int = 4096):
        if budget is not None and not budget > 0:  # NaN too: it would never expire
            raise ValueError(f"budget must be positive, got {budget!r}")
        if stride <= 0:
            raise ValueError(f"stride must be positive, got {stride!r}")
        self.budget = float("inf") if budget is None else float(budget)
        self.stride = stride
        self._unlimited = self.budget == float("inf")
        self._start = time.perf_counter()
        self._tick = 0

    @classmethod
    def unlimited(cls) -> "Deadline":
        """A deadline that never expires (for tests and examples)."""
        return cls(None)

    def restart(self) -> None:
        """Reset the clock; the full budget is available again."""
        self._start = time.perf_counter()
        self._tick = 0

    @property
    def elapsed(self) -> float:
        """Seconds since construction or the last :meth:`restart`."""
        return time.perf_counter() - self._start

    @property
    def remaining(self) -> float:
        """Seconds left before expiry (may be negative once expired)."""
        return self.budget - self.elapsed

    def expired(self) -> bool:
        """Whether the budget has been consumed (always reads the clock)."""
        return not self._unlimited and self.elapsed >= self.budget

    def check(self) -> None:
        """Raise :class:`EvaluationTimeout` if the budget is exhausted.

        Only reads the clock every ``stride`` calls, so it is safe to
        call once per tuple in hot loops.
        """
        if self._unlimited:
            return
        self._tick += 1
        if self._tick < self.stride:
            return
        self._tick = 0
        elapsed = self.elapsed
        if elapsed >= self.budget:
            raise EvaluationTimeout(elapsed, self.budget)

    def check_every(self, n: int) -> None:
        """Account for ``n`` units of work in one call.

        Equivalent to calling :meth:`check` ``n`` times, but with a
        single tick update — this is what the set-at-a-time kernels use
        to hoist deadline polling from per-tuple to per-block
        granularity. The clock is read whenever the accumulated work
        since the last read reaches ``stride``, so the overshoot past
        an expired budget is bounded by ``max(n, stride) - 1`` units of
        work (one oversized block can defer the read by at most its own
        length).

        ``n == 0`` is a no-op (empty blocks are legal); negative ``n``
        raises :class:`ValueError`.
        """
        if n < 0:
            raise ValueError(f"work units must be non-negative, got {n!r}")
        if self._unlimited or n == 0:
            return
        self._tick += n
        if self._tick < self.stride:
            return
        self._tick %= self.stride
        elapsed = self.elapsed
        if elapsed >= self.budget:
            raise EvaluationTimeout(elapsed, self.budget)

    def check_now(self) -> None:
        """Like :meth:`check` but always reads the clock immediately."""
        if self._unlimited:
            return
        elapsed = self.elapsed
        if elapsed >= self.budget:
            raise EvaluationTimeout(elapsed, self.budget)

    def __repr__(self) -> str:
        if self._unlimited:
            return "Deadline(unlimited)"
        return f"Deadline(budget={self.budget:.3f}s, elapsed={self.elapsed:.3f}s)"
