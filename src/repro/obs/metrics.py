"""Counters, gauges, histograms — instance registries, no third parties.

Each owner (a :class:`~repro.service.QueryService`, an
:class:`~repro.server.app.HTTPQueryServer`, a prefork dispatcher) holds
its own :class:`MetricsRegistry`; ``GET /metrics`` renders one or more
registries together (:func:`repro.obs.exposition.render_registries`).
No process-global state: tests and benchmarks run many servers per
process without their metrics bleeding into each other.

Three metric kinds, Prometheus semantics:

* :class:`Counter` — monotonically increasing;
* :class:`Gauge` — set/inc/dec, with a per-metric ``aggregation`` hint
  (``sum`` | ``max`` | ``min``) that tells the prefork dispatcher how
  to fold per-worker values (queue depths sum; a snapshot generation
  does not);
* :class:`Histogram` — fixed log-scaled buckets
  (:data:`DEFAULT_BUCKETS`, a 1–2.5–5 decade ladder from 100 µs to
  10 s), observation cost one bisect + one lock.

Metrics over *existing* state (WAL gauges, cache hit counts, store
size) register as **callbacks** evaluated at scrape time — the hot
path pays nothing for them.

:meth:`MetricsRegistry.dump` emits a JSON-able structure that rides the
prefork control channel; :func:`aggregate_dumps` folds worker dumps
into the pool view (counters and histogram buckets sum, gauges follow
their aggregation hint).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left

#: Log-scaled latency ladder (seconds): 1–2.5–5 steps per decade from
#: 100 µs to 10 s. ``+Inf`` is implicit. Chosen to straddle both the
#: warm result-cache path (~hundreds of µs) and cold cyclic-query
#: evaluation (up to seconds) with constant relative error.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_GAUGE_AGGREGATIONS = ("sum", "max", "min")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _check_labelnames(labelnames) -> tuple:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_RE.match(label) or label == "le":
            raise ValueError(f"invalid label name: {label!r}")
    return names


class _Bound:
    """One labeled child of a metric family (pre-resolved label key)."""

    __slots__ = ("_family", "_key", "_cell", "_buckets", "_lock")

    def __init__(self, family, key: tuple):
        self._family = family
        self._key = key
        self._cell = None  # histogram fast path, resolved on first use

    def inc(self, amount: float = 1.0) -> None:
        self._family._inc(self._key, amount)

    def dec(self, amount: float = 1.0) -> None:
        self._family._inc(self._key, -amount)

    def set(self, value: float) -> None:
        self._family._set(self._key, value)

    def value(self) -> float:
        """Counter/gauge only: this child's current value."""
        return self._family.value(*self._key)

    def observe(self, value: float) -> None:
        # Histogram-only. The cell, bucket bounds, and lock are resolved
        # once, so a steady-state observation is a bisect plus two
        # in-place adds (under the family lock unless the family is
        # single-threaded) — no dict lookups.
        cell = self._cell
        if cell is None:
            family = self._family
            cell = self._cell = family._ensure_cell(self._key)
            self._buckets = family.buckets
            self._lock = family._lock if family.locked else None
        idx = bisect_left(self._buckets, value)
        lock = self._lock
        if lock is None:
            cell[idx] += 1
            cell[-1] += value
            return
        with lock:
            cell[idx] += 1
            cell[-1] += value


class _Metric:
    """Shared family mechanics: label children, dump plumbing."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames=()):
        self.name = _check_name(name)
        self.help = help_text
        self.labelnames = _check_labelnames(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple, _Bound] = {}

    def labels(self, *values) -> _Bound:
        """The child for one label-value combination.

        Children are cached by the values passed (one dict lookup on
        the hot path), so calling ``labels(...)`` per event is as cheap
        as holding the bound child. The cache is unbounded — label
        values must be low-cardinality (routes, statuses, stages),
        never per-request data like trace ids.
        """
        bound = self._children.get(values)  # GIL-atomic read
        if bound is None:
            if len(values) != len(self.labelnames):
                raise ValueError(
                    f"{self.name} takes {len(self.labelnames)} label(s) "
                    f"{self.labelnames}, got {len(values)}"
                )
            with self._lock:
                bound = self._children.get(values)
                if bound is None:
                    bound = _Bound(self, tuple(str(v) for v in values))
                    self._children[values] = bound
        return bound

    def _labels_dict(self, key: tuple) -> dict:
        return dict(zip(self.labelnames, key))

    def _require_unlabeled(self) -> None:
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labeled by {self.labelnames}; "
                f"use .labels(...) first"
            )

    def describe(self) -> dict:
        return {"name": self.name, "kind": self.kind, "help": self.help,
                "labelnames": list(self.labelnames)}


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name, help_text, labelnames=()):
        super().__init__(name, help_text, labelnames)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0) -> None:
        self._require_unlabeled()
        self._inc((), amount)

    def _inc(self, key: tuple, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc {amount!r})")
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, *label_values) -> float:
        key = tuple(str(v) for v in label_values)
        with self._lock:
            return self._values.get(key, 0.0)

    def dump(self) -> dict:
        out = self.describe()
        with self._lock:
            items = sorted(self._values.items())
        out["samples"] = [
            {"labels": self._labels_dict(key), "value": value}
            for key, value in items
        ] or ([{"labels": {}, "value": 0.0}] if not self.labelnames else [])
        return out


class Gauge(_Metric):
    """A value that can go up and down.

    ``aggregation`` declares how per-worker values fold into a pool
    view: ``"sum"`` (default — queue depths, in-flight counts),
    ``"max"`` (snapshot generation, store size: every worker maps the
    same snapshot), or ``"min"``.
    """

    kind = "gauge"

    def __init__(self, name, help_text, labelnames=(), aggregation="sum"):
        super().__init__(name, help_text, labelnames)
        if aggregation not in _GAUGE_AGGREGATIONS:
            raise ValueError(
                f"aggregation must be one of {_GAUGE_AGGREGATIONS}, "
                f"got {aggregation!r}"
            )
        self.aggregation = aggregation
        self._values: dict[tuple, float] = {}

    def set(self, value: float) -> None:
        self._require_unlabeled()
        self._set((), value)

    def inc(self, amount: float = 1.0) -> None:
        self._require_unlabeled()
        self._inc((), amount)

    def dec(self, amount: float = 1.0) -> None:
        self._require_unlabeled()
        self._inc((), -amount)

    def _set(self, key: tuple, value: float) -> None:
        with self._lock:
            self._values[key] = float(value)

    def _inc(self, key: tuple, amount: float) -> None:
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, *label_values) -> float:
        key = tuple(str(v) for v in label_values)
        with self._lock:
            return self._values.get(key, 0.0)

    def dump(self) -> dict:
        out = self.describe()
        out["aggregation"] = self.aggregation
        with self._lock:
            items = sorted(self._values.items())
        out["samples"] = [
            {"labels": self._labels_dict(key), "value": value}
            for key, value in items
        ] or ([{"labels": {}, "value": 0.0}] if not self.labelnames else [])
        return out


class Histogram(_Metric):
    """Fixed-bucket histogram (cumulative ``le`` buckets on the wire)."""

    kind = "histogram"

    def __init__(self, name, help_text, buckets=DEFAULT_BUCKETS,
                 labelnames=(), locked=True):
        super().__init__(name, help_text, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"buckets must be non-empty and strictly increasing, "
                f"got {buckets!r}"
            )
        self.buckets = bounds
        # key -> [per-bucket counts..., overflow count, sum].
        self._counts: dict[tuple, list] = {}
        # ``locked=False`` observes without any lock once the cell
        # exists: only valid when every observe() happens on the same
        # thread that serves scrapes (the HTTP server's event loop).
        # Cell creation and dump() still take the family lock either way.
        self.locked = locked

    def observe(self, value: float) -> None:
        self._require_unlabeled()
        self._observe((), value)

    def _ensure_cell(self, key: tuple) -> list:
        """The (created-if-missing) accumulator cell for one key.

        Cell layout: [bucket counts..., overflow count, sum]. Keeping
        the sum in the same list as the counts makes an observation a
        single dict lookup at most — this is the hottest call in the
        registry (every request latency and pipeline stage). A cell,
        once made, is never replaced or removed, so the lookup takes no
        lock; only making one does.
        """
        cell = self._counts.get(key)
        if cell is not None:
            return cell
        with self._lock:
            cell = self._counts.get(key)
            if cell is None:
                cell = self._counts[key] = (
                    [0] * (len(self.buckets) + 1) + [0.0]
                )
            return cell

    def _observe(self, key: tuple, value: float) -> None:
        idx = bisect_left(self.buckets, value)
        cell = self._ensure_cell(key)
        if not self.locked:
            cell[idx] += 1
            cell[-1] += value
            return
        with self._lock:
            cell[idx] += 1
            cell[-1] += value

    def sample(self, *label_values) -> "tuple[int, float]":
        """``(count, sum)`` observed for one label combination."""
        key = tuple(str(v) for v in label_values)
        with self._lock:
            cell = self._counts.get(key)
            if cell is None:
                return 0, 0.0
            return sum(cell[:-1]), cell[-1]

    def quantile(self, q: float, *label_values) -> float:
        """Bucket estimate of the ``q``-quantile (0 <= q <= 1).

        Nearest rank over the bucket bounds: the upper bound of the
        bucket holding the observation at rank ``int(q * count)``. 0.0
        before the first observation; the largest finite bound when that
        observation overflowed the ladder.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        key = tuple(str(v) for v in label_values)
        with self._lock:
            cell = self._counts.get(key)
            counts = cell[:-1] if cell is not None else []
        total = sum(counts)
        if not total:
            return 0.0
        rank = min(int(q * total), total - 1)
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            if running > rank:
                return bound
        return self.buckets[-1]

    def dump(self) -> dict:
        out = self.describe()
        out["bucket_bounds"] = list(self.buckets)
        samples = []
        with self._lock:
            items = sorted(
                (key, cell[:-2], cell[-1], cell[-2])
                for key, cell in self._counts.items()
            )
        for key, counts, total, overflow in items:
            cumulative = []
            running = 0
            for bound, count in zip(self.buckets, counts):
                running += count
                cumulative.append([bound, running])
            samples.append(
                {
                    "labels": self._labels_dict(key),
                    "buckets": cumulative,
                    "sum": total,
                    "count": running + overflow,
                }
            )
        if not samples and not self.labelnames:
            samples = [
                {
                    "labels": {},
                    "buckets": [[bound, 0] for bound in self.buckets],
                    "sum": 0.0,
                    "count": 0,
                }
            ]
        out["samples"] = samples
        return out


class _CallbackMetric:
    """A metric whose samples are computed at scrape time.

    ``fn`` returns a number (unlabeled), a mapping of label-value
    tuples to numbers (labeled), or ``None`` to omit the metric from
    this scrape (e.g. WAL gauges on a store with no WAL attached). A
    callback that raises is omitted too — a scrape must never 500
    because a gauge raced a shutdown.
    """

    def __init__(self, name, help_text, fn, kind="gauge", labelnames=(),
                 aggregation="sum"):
        if kind not in ("gauge", "counter"):
            raise ValueError(f"callback kind must be gauge|counter, got {kind!r}")
        if aggregation not in _GAUGE_AGGREGATIONS:
            raise ValueError(f"bad aggregation {aggregation!r}")
        self.name = _check_name(name)
        self.help = help_text
        self.kind = kind
        self.labelnames = _check_labelnames(labelnames)
        self.aggregation = aggregation
        self._fn = fn

    def dump(self) -> "dict | None":
        try:
            value = self._fn()
        except Exception:  # noqa: BLE001 — scrape survives racing state
            return None
        if value is None:
            return None
        out = {"name": self.name, "kind": self.kind, "help": self.help,
               "labelnames": list(self.labelnames)}
        if self.kind == "gauge":
            out["aggregation"] = self.aggregation
        if isinstance(value, dict):
            out["samples"] = [
                {
                    "labels": dict(zip(self.labelnames,
                                       (str(v) for v in key))),
                    "value": float(val),
                }
                for key, val in sorted(value.items())
            ]
        else:
            out["samples"] = [{"labels": {}, "value": float(value)}]
        return out


class MetricsRegistry:
    """One owner's set of metrics; renders and dumps as a unit."""

    def __init__(self):
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def register(self, metric) -> None:
        with self._lock:
            if metric.name in self._metrics:
                raise ValueError(f"metric {metric.name!r} already registered")
            self._metrics[metric.name] = metric

    def counter(self, name, help_text, labelnames=()) -> Counter:
        metric = Counter(name, help_text, labelnames)
        self.register(metric)
        return metric

    def gauge(self, name, help_text, labelnames=(),
              aggregation="sum") -> Gauge:
        metric = Gauge(name, help_text, labelnames, aggregation)
        self.register(metric)
        return metric

    def histogram(self, name, help_text, buckets=DEFAULT_BUCKETS,
                  labelnames=(), locked=True) -> Histogram:
        metric = Histogram(name, help_text, buckets, labelnames, locked)
        self.register(metric)
        return metric

    def callback(self, name, help_text, fn, kind="gauge", labelnames=(),
                 aggregation="sum") -> _CallbackMetric:
        metric = _CallbackMetric(name, help_text, fn, kind, labelnames,
                                 aggregation)
        self.register(metric)
        return metric

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def dump(self) -> list[dict]:
        """JSON-able snapshot of every metric (control-channel form)."""
        with self._lock:
            metrics = list(self._metrics.values())
        out = []
        for metric in metrics:
            dumped = metric.dump()
            if dumped is not None:
                out.append(dumped)
        return sorted(out, key=lambda m: m["name"])


# ----------------------------------------------------------------------
# Dump merging / cross-worker aggregation
# ----------------------------------------------------------------------


def merged_dump(*registries: MetricsRegistry) -> list[dict]:
    """Concatenate registries into one dump; names must be disjoint."""
    seen: dict[str, str] = {}
    out: list[dict] = []
    for registry in registries:
        for metric in registry.dump():
            name = metric["name"]
            if name in seen:
                raise ValueError(
                    f"metric {name!r} appears in more than one registry"
                )
            seen[name] = metric["kind"]
            out.append(metric)
    return sorted(out, key=lambda m: m["name"])


def _labels_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _merge_value_samples(metric: dict, sample: dict, fold) -> None:
    key = _labels_key(sample["labels"])
    existing = metric["_by_labels"].get(key)
    if existing is None:
        metric["_by_labels"][key] = dict(sample)
    else:
        existing["value"] = fold(existing["value"], sample["value"])


def _merge_histogram_samples(metric: dict, sample: dict) -> None:
    key = _labels_key(sample["labels"])
    existing = metric["_by_labels"].get(key)
    if existing is None:
        metric["_by_labels"][key] = {
            "labels": dict(sample["labels"]),
            "buckets": [list(pair) for pair in sample["buckets"]],
            "sum": sample["sum"],
            "count": sample["count"],
        }
        return
    theirs = {bound: count for bound, count in sample["buckets"]}
    # Cumulative counts sum bucket-wise as long as the bounds agree;
    # disagreeing ladders would mean two builds of the code — refuse.
    if set(theirs) != {pair[0] for pair in existing["buckets"]}:
        raise ValueError(
            f"histogram bucket ladders disagree for labels {sample['labels']}"
        )
    for pair in existing["buckets"]:
        pair[1] += theirs[pair[0]]
    existing["sum"] += sample["sum"]
    existing["count"] += sample["count"]


def aggregate_dumps(dumps: "list[list[dict]]") -> list[dict]:
    """Fold per-worker registry dumps into one pool-level dump.

    Counters and histograms sum (bucket-wise); gauges follow their
    ``aggregation`` hint (``sum`` by default, ``max``/``min`` for
    gauges where every worker reports the same underlying fact). Kind
    conflicts for a name raise — that is a bug, not a data condition.
    """
    merged: dict[str, dict] = {}
    for dump in dumps:
        for metric in dump:
            name = metric["name"]
            target = merged.get(name)
            if target is None:
                target = merged[name] = {
                    "name": name,
                    "kind": metric["kind"],
                    "help": metric["help"],
                    "labelnames": list(metric.get("labelnames", [])),
                    "_by_labels": {},
                }
                if metric["kind"] == "gauge":
                    target["aggregation"] = metric.get("aggregation", "sum")
                if "bucket_bounds" in metric:
                    target["bucket_bounds"] = metric["bucket_bounds"]
            elif target["kind"] != metric["kind"]:
                raise ValueError(
                    f"metric {name!r} is {target['kind']} in one dump and "
                    f"{metric['kind']} in another"
                )
            if metric["kind"] == "histogram":
                for sample in metric["samples"]:
                    _merge_histogram_samples(target, sample)
            else:
                if metric["kind"] == "gauge":
                    agg = target.get("aggregation", "sum")
                    fold = {"sum": lambda a, b: a + b,
                            "max": max, "min": min}[agg]
                else:
                    fold = lambda a, b: a + b  # noqa: E731 — tiny fold
                for sample in metric["samples"]:
                    _merge_value_samples(target, sample, fold)
    out = []
    for metric in sorted(merged.values(), key=lambda m: m["name"]):
        by_labels = metric.pop("_by_labels")
        metric["samples"] = [
            by_labels[key] for key in sorted(by_labels)
        ]
        out.append(metric)
    return out
