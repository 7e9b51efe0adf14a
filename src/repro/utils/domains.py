"""The domains of the program's numbers, shared by the CLI (as each
numeric option's argparse ``type=``), the ``/v1`` wire and the
constructors.

A domain is a function ``domain(value, name="")``: it returns ``value``
(a number, or its text) as an int or a float, or raises
:class:`DomainError` with the text ``"<name> must be ..., got <value>"``.
Every timeout is in ``seconds``: positive, so 0 never means "none", and
at most ``threading.TIMEOUT_MAX``, above which ``socket.settimeout``
overflows. ``seconds_or_off`` turns 0 into ``None`` (off).
"""

from __future__ import annotations

import argparse
import sys
import threading

#: Largest dataset ``scale`` (~800M triples, far more than fits in
#: memory): an absurd scale fails at once, not deep in numpy.
MAX_SCALE = 10_000
#: Largest ``batch --repeat``, ``mine`` / ``batch --count`` and
#: ``table1 --runs``: each makes one list that long, and mining spends
#: up to 400 attempts per query asked for.
MAX_REPEAT = 10_000
#: Most worker processes (``serve --workers``) or pool threads
#: (``serve --threads``, ``batch --workers``) one run starts.
MAX_WORKERS = 256


class DomainError(ValueError, argparse.ArgumentTypeError):
    """A value outside its domain (argparse prints the text as is)."""

    def __init__(self, name: str, rule: str, value):
        super().__init__(f"{name} must be {rule}, got {value!r}".lstrip())


def _domain(kind, *rules):
    """The domain of ``kind`` values that pass every ``(rule, ok)``."""

    def domain(value, name: str = ""):
        try:
            x = kind(value) if isinstance(value, str) else value
        except ValueError:
            raise DomainError(name, rules[0][0], value) from None
        # ``ok`` compares before kind(): an int too large for a float is
        # refused, not an OverflowError, and NaN fails every comparison.
        for rule, ok in rules:
            if not ok(x):
                raise DomainError(name, rule, value)
        return kind(x)

    return domain


_SECONDS = f"positive and finite seconds, at most {threading.TIMEOUT_MAX:.0f}"
seconds = _domain(float, (_SECONDS, lambda x: 0 < x <= threading.TIMEOUT_MAX))
_seconds_or_zero = _domain(
    float, (f"0 (off) or {_SECONDS}", lambda x: 0 <= x <= threading.TIMEOUT_MAX)
)


def seconds_or_off(value, name: str = "") -> float | None:
    return _seconds_or_zero(value, name) or None


milliseconds = _domain(
    float, ("positive and finite milliseconds", lambda x: 0 < x <= sys.float_info.max)
)
scale = _domain(
    float,
    ("positive and finite", lambda x: 0 < x <= sys.float_info.max),
    (f"at most MAX_SCALE = {MAX_SCALE}", lambda x: x <= MAX_SCALE),
)
count = seed = _domain(int, (">= 0", lambda x: x >= 0))
positive = _domain(int, (">= 1", lambda x: x >= 1))
repeat = _domain(int, (f"in 1..{MAX_REPEAT}", lambda x: 1 <= x <= MAX_REPEAT))
workers = _domain(int, (f"in 1..{MAX_WORKERS}", lambda x: 1 <= x <= MAX_WORKERS))
port = _domain(int, ("in 0..65535", lambda x: 0 <= x <= 65535))


def subset_of(choices):
    """The domain of comma-separated names from ``choices``, as a
    non-empty tuple."""

    def subset(value: str, name: str = "") -> tuple[str, ...]:
        names = tuple(n.strip() for n in value.split(",") if n)
        if not names or not set(names) <= set(choices):
            raise DomainError(name, f"a non-empty subset of {','.join(choices)}", value)
        return names

    return subset
