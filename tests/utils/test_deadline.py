"""Tests for the cooperative deadline."""

import time

import pytest

from repro.errors import EvaluationTimeout
from repro.utils.deadline import Deadline


def test_unlimited_never_expires():
    d = Deadline.unlimited()
    for _ in range(10_000):
        d.check()
    d.check_now()
    assert not d.expired()
    assert d.remaining == float("inf")


def test_none_budget_is_unlimited():
    assert not Deadline(None).expired()


def test_expired_after_budget():
    d = Deadline(0.01)
    time.sleep(0.02)
    assert d.expired()


def test_check_now_raises_with_elapsed_and_budget():
    d = Deadline(0.01)
    time.sleep(0.02)
    with pytest.raises(EvaluationTimeout) as exc:
        d.check_now()
    assert exc.value.budget == pytest.approx(0.01)
    assert exc.value.elapsed >= 0.01


def test_check_strides_clock_reads():
    d = Deadline(0.005, stride=1_000_000)
    time.sleep(0.01)
    # Under-stride checks do not read the clock, so no raise yet.
    for _ in range(10):
        d.check()
    with pytest.raises(EvaluationTimeout):
        d.check_now()


def test_check_raises_at_stride_boundary():
    d = Deadline(0.005, stride=10)
    time.sleep(0.01)
    with pytest.raises(EvaluationTimeout):
        for _ in range(11):
            d.check()


def test_restart_resets_clock():
    d = Deadline(0.05)
    time.sleep(0.06)
    assert d.expired()
    d.restart()
    assert not d.expired()


def test_elapsed_monotonic():
    d = Deadline(1.0)
    first = d.elapsed
    time.sleep(0.002)
    assert d.elapsed > first


def test_invalid_budget_rejected():
    with pytest.raises(ValueError):
        Deadline(0)
    with pytest.raises(ValueError):
        Deadline(-1.0)


def test_nan_budget_rejected():
    # NaN compares false with everything: it would pass ``<= 0`` and
    # never expire.
    with pytest.raises(ValueError):
        Deadline(float("nan"))


def test_invalid_stride_rejected():
    with pytest.raises(ValueError):
        Deadline(1.0, stride=0)


def test_repr_mentions_budget():
    assert "0.5" in repr(Deadline(0.5))
    assert "unlimited" in repr(Deadline.unlimited())


# ----------------------------------------------------------------------
# check_every — the kernels' block-polling API
# ----------------------------------------------------------------------


def test_check_every_accumulates_toward_stride():
    """Blocks summing to under one stride never read the clock."""
    d = Deadline(0.001, stride=1_000)
    time.sleep(0.002)
    for _ in range(9):
        d.check_every(100)  # 900 < 1000: no clock read, no raise
    with pytest.raises(EvaluationTimeout):
        d.check_every(100)  # crosses the stride boundary


def test_check_every_large_block_reads_immediately():
    """A single block >= stride triggers a clock read on that call."""
    d = Deadline(0.001, stride=4096)
    time.sleep(0.002)
    with pytest.raises(EvaluationTimeout):
        d.check_every(4096)


def test_check_every_overshoot_bounded_by_block_and_stride():
    """After expiry, at most max(n, stride)-1 more units pass unchecked."""
    d = Deadline(0.001, stride=10)
    time.sleep(0.002)
    d.check_every(9)  # under stride: cannot raise yet
    with pytest.raises(EvaluationTimeout):
        d.check_every(1)  # the 10th unit forces the read


def test_check_every_matches_n_checks():
    """check_every(n) advances the tick exactly like n check() calls."""
    a = Deadline(60.0, stride=7)
    b = Deadline(60.0, stride=7)
    for _ in range(20):
        a.check()
    for n in (5, 5, 5, 5):
        b.check_every(n)
    assert a._tick == b._tick  # both consumed 20 units mod stride


def test_check_every_zero_is_noop():
    d = Deadline(0.001, stride=1)
    time.sleep(0.002)
    d.check_every(0)  # no work, no clock read, no raise


def test_check_every_rejects_negative():
    with pytest.raises(ValueError):
        Deadline(1.0).check_every(-1)


def test_check_every_unlimited_is_noop():
    d = Deadline.unlimited()
    for _ in range(100):
        d.check_every(10_000_000)
