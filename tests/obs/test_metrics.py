"""Unit tests for the metrics registry, aggregation, and exposition."""

from __future__ import annotations

import math
import threading

import pytest

from repro.obs.exposition import (
    CONTENT_TYPE,
    ExpositionError,
    parse_exposition,
    render_dump,
    render_registries,
    sample_value,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_dumps,
    merged_dump,
)

# ----------------------------------------------------------------------
# Metric kinds
# ----------------------------------------------------------------------


def test_counter_monotonic_and_labeled():
    counter = Counter("repro_t_total", "help", labelnames=("kind",))
    counter.labels("a").inc()
    counter.labels("a").inc(2.5)
    counter.labels("b").inc()
    assert counter.value("a") == 3.5
    assert counter.value("b") == 1.0
    with pytest.raises(ValueError):
        counter.labels("a").inc(-1)
    with pytest.raises(ValueError):
        counter.inc()  # labeled family needs .labels(...)


def test_gauge_set_inc_dec_and_aggregation_hint():
    gauge = Gauge("repro_t_gauge", "help", aggregation="max")
    gauge.set(5)
    gauge.inc(2)
    gauge.dec(3)
    assert gauge.value() == 4.0
    assert gauge.dump()["aggregation"] == "max"
    with pytest.raises(ValueError):
        Gauge("repro_t_bad", "help", aggregation="median")


def test_histogram_buckets_cumulative_in_dump():
    histo = Histogram("repro_t_seconds", "help", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        histo.observe(value)
    (sample,) = histo.dump()["samples"]
    assert sample["buckets"] == [[0.1, 1], [1.0, 3], [10.0, 4]]
    assert sample["count"] == 5
    assert sample["sum"] == pytest.approx(56.05)
    assert histo.sample() == (5, pytest.approx(56.05))


def test_histogram_quantile_of_an_empty_series_is_zero():
    histo = Histogram("repro_t_seconds", "help", buckets=(0.1, 1.0),
                      labelnames=("stage",))
    histo.labels("other").observe(0.5)
    assert histo.quantile(0.5, "total") == 0.0
    with pytest.raises(ValueError):
        histo.quantile(1.5, "other")


def test_histogram_quantile_of_all_zeros_is_the_first_bound():
    histo = Histogram("repro_t_seconds", "help", buckets=(0.1, 1.0))
    for _ in range(3):
        histo.observe(0.0)
    assert [histo.quantile(q) for q in (0.0, 0.5, 1.0)] == [0.1, 0.1, 0.1]


def test_histogram_quantile_on_overflow_is_the_largest_finite_bound():
    histo = Histogram("repro_t_seconds", "help", buckets=(0.1, 1.0))
    histo.observe(0.05)
    histo.observe(50.0)
    assert histo.quantile(0.0) == 0.1
    assert histo.quantile(0.99) == 1.0


def test_histogram_quantile_is_nearest_rank_over_bucket_bounds():
    histo = Histogram("repro_t_seconds", "help", buckets=(0.1, 1.0, 10.0))
    # Ten observations: ranks 0-3 in (0, 0.1], 4-8 in (0.1, 1], 9 in (1, 10];
    # a value on a bound belongs to that bound's bucket.
    for value in (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 5.0):
        histo.observe(value)
    assert histo.quantile(0.0) == 0.1
    assert histo.quantile(0.39) == 0.1   # rank 3
    assert histo.quantile(0.4) == 1.0    # rank 4
    assert histo.quantile(0.89) == 1.0   # rank 8
    assert histo.quantile(0.9) == 10.0   # rank 9
    assert histo.quantile(1.0) == 10.0   # clamped to the last rank


def test_histogram_rejects_bad_ladders():
    for bad in ((), (1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(ValueError):
            Histogram("repro_t_h", "help", buckets=bad)


class _CountingLock:
    """A lock that counts how often it was taken."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquired = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquired += 1
        return self

    def __exit__(self, *exc):
        self._lock.release()


@pytest.mark.parametrize("locked, per_observation", [(False, 0), (True, 1)])
def test_unlabeled_observation_takes_a_lock_only_if_locked(locked, per_observation):
    histo = Histogram("repro_t_seconds", "help", buckets=(1.0,), locked=locked)
    histo._lock = lock = _CountingLock()
    histo.observe(0.5)  # makes the cell: takes the lock either way
    made = lock.acquired
    assert made >= 1
    histo.observe(0.5)
    assert lock.acquired - made == per_observation
    assert histo.sample() == (2, 1.0)


def test_default_buckets_are_strictly_increasing():
    assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))
    assert DEFAULT_BUCKETS[0] == pytest.approx(1e-4)
    assert DEFAULT_BUCKETS[-1] == pytest.approx(10.0)


def test_metric_name_and_label_validation():
    with pytest.raises(ValueError):
        Counter("9bad", "help")
    with pytest.raises(ValueError):
        Counter("repro_ok", "help", labelnames=("le",))
    with pytest.raises(ValueError):
        Counter("repro_ok", "help", labelnames=("bad-label",))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_registry_rejects_duplicate_names():
    registry = MetricsRegistry()
    registry.counter("repro_t_total", "help")
    with pytest.raises(ValueError):
        registry.gauge("repro_t_total", "help")


def test_callback_metrics_evaluate_at_scrape_time():
    registry = MetricsRegistry()
    state = {"depth": 3}
    registry.callback("repro_t_depth", "help", lambda: state["depth"])
    assert sample_value(
        parse_exposition(render_registries(registry)), "repro_t_depth"
    ) == 3
    state["depth"] = 7
    assert sample_value(
        parse_exposition(render_registries(registry)), "repro_t_depth"
    ) == 7


def test_callback_returning_none_or_raising_is_omitted():
    registry = MetricsRegistry()
    registry.callback("repro_t_absent", "help", lambda: None)
    registry.callback("repro_t_boom", "help",
                      lambda: (_ for _ in ()).throw(RuntimeError("x")))
    registry.callback("repro_t_present", "help", lambda: 1)
    names = [m["name"] for m in registry.dump()]
    assert names == ["repro_t_present"]


def test_callback_dict_result_becomes_labeled_samples():
    registry = MetricsRegistry()
    registry.callback(
        "repro_t_queries_total", "help",
        lambda: {("ok",): 4, ("error",): 1},
        kind="counter", labelnames=("outcome",),
    )
    families = parse_exposition(render_registries(registry))
    assert sample_value(families, "repro_t_queries_total",
                        {"outcome": "ok"}) == 4
    assert sample_value(families, "repro_t_queries_total",
                        {"outcome": "error"}) == 1


def test_merged_dump_rejects_name_collisions():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("repro_t_total", "help")
    b.counter("repro_t_total", "help")
    with pytest.raises(ValueError):
        merged_dump(a, b)


# ----------------------------------------------------------------------
# Cross-worker aggregation
# ----------------------------------------------------------------------


def _worker_dump(queue_depth, generation, observations):
    registry = MetricsRegistry()
    registry.gauge("repro_t_depth", "help").set(queue_depth)
    registry.gauge("repro_t_generation", "help",
                   aggregation="max").set(generation)
    counter = registry.counter("repro_t_total", "help", labelnames=("out",))
    counter.labels("ok").inc(queue_depth)
    histo = registry.histogram("repro_t_seconds", "help",
                               buckets=(0.1, 1.0))
    for value in observations:
        histo.observe(value)
    return registry.dump()


def test_aggregate_dumps_folds_by_kind_and_hint():
    merged = aggregate_dumps([
        _worker_dump(2, 7, [0.05, 0.5]),
        _worker_dump(3, 7, [5.0]),
    ])
    by_name = {m["name"]: m for m in merged}
    assert by_name["repro_t_depth"]["samples"][0]["value"] == 5.0  # sum
    assert by_name["repro_t_generation"]["samples"][0]["value"] == 7.0  # max
    assert by_name["repro_t_total"]["samples"][0]["value"] == 5.0
    (histo,) = by_name["repro_t_seconds"]["samples"]
    assert histo["buckets"] == [[0.1, 1], [1.0, 2]]
    assert histo["count"] == 3
    assert histo["sum"] == pytest.approx(5.55)
    # The aggregate must still render as valid exposition text.
    parse_exposition(render_dump(merged))


def test_aggregate_dumps_rejects_kind_conflicts():
    a = MetricsRegistry()
    a.counter("repro_t_x", "help")
    b = MetricsRegistry()
    b.gauge("repro_t_x", "help")
    with pytest.raises(ValueError):
        aggregate_dumps([a.dump(), b.dump()])


def test_aggregate_dumps_rejects_disagreeing_bucket_ladders():
    a = MetricsRegistry()
    a.histogram("repro_t_h", "help", buckets=(0.1, 1.0)).observe(0.5)
    b = MetricsRegistry()
    b.histogram("repro_t_h", "help", buckets=(0.2, 2.0)).observe(0.5)
    with pytest.raises(ValueError):
        aggregate_dumps([a.dump(), b.dump()])


# ----------------------------------------------------------------------
# Exposition rendering
# ----------------------------------------------------------------------


def test_render_round_trips_through_strict_parser():
    registry = MetricsRegistry()
    registry.counter("repro_t_total", "t\\o \"t\"\nal", labelnames=("k",)) \
        .labels('va"l\\ue\n').inc(2)
    registry.gauge("repro_t_gauge", "help").set(1.5)
    registry.histogram("repro_t_seconds", "help",
                       buckets=(0.1, 1.0)).observe(0.5)
    text = render_registries(registry)
    families = parse_exposition(text)
    assert families["repro_t_total"]["type"] == "counter"
    # HELP stays in wire (escaped) form: backslash and newline doubled.
    assert families["repro_t_total"]["help"] == 't\\\\o "t"\\nal'
    assert sample_value(families, "repro_t_total",
                        {"k": 'va"l\\ue\n'}) == 2
    assert sample_value(families, "repro_t_gauge") == 1.5
    assert sample_value(families, "repro_t_seconds_count") == 1
    assert sample_value(families, "repro_t_seconds_bucket",
                        {"le": "+Inf"}) == 1


def test_content_type_names_the_exposition_version():
    assert "version=0.0.4" in CONTENT_TYPE


# ----------------------------------------------------------------------
# Strict parser: every invariant must actually reject violations
# ----------------------------------------------------------------------


@pytest.mark.parametrize("text,fragment", [
    ("repro_x 1\n", "no preceding TYPE"),
    ("# TYPE repro_x counter\nrepro_x 1\nrepro_x 1\n", "duplicate series"),
    ("# TYPE repro_x counter\n# TYPE repro_x counter\nrepro_x 1\n",
     "duplicate TYPE"),
    ("# HELP repro_x a\n# HELP repro_x b\n", "duplicate HELP"),
    ("# TYPE repro_x nonsense\n", "unknown type"),
    ("# TYPE repro_x counter\nrepro_x{k=unquoted} 1\n", "missing ="),
    ("# TYPE repro_x counter\nrepro_x{k=\"v\",} 1\n", "trailing comma"),
    ("# TYPE repro_x counter\nrepro_x{k=\"v\\q\"} 1\n", "bad escape"),
    ("# TYPE repro_x counter\nrepro_x{k=\"v\"} notanumber\n",
     "bad sample value"),
    ("repro_x 1\n# TYPE repro_x counter\n", "no preceding TYPE"),
])
def test_parser_rejects_malformed_documents(text, fragment):
    with pytest.raises(ExpositionError) as excinfo:
        parse_exposition(text)
    assert fragment in str(excinfo.value)


def test_parser_rejects_non_cumulative_histogram():
    text = (
        "# TYPE repro_h histogram\n"
        'repro_h_bucket{le="0.1"} 5\n'
        'repro_h_bucket{le="1"} 3\n'
        'repro_h_bucket{le="+Inf"} 5\n'
        "repro_h_sum 1\n"
        "repro_h_count 5\n"
    )
    with pytest.raises(ExpositionError, match="not cumulative"):
        parse_exposition(text)


def test_parser_rejects_histogram_not_closed_by_inf():
    text = (
        "# TYPE repro_h histogram\n"
        'repro_h_bucket{le="0.1"} 1\n'
        "repro_h_sum 1\n"
        "repro_h_count 1\n"
    )
    with pytest.raises(ExpositionError, match="not closed"):
        parse_exposition(text)


def test_parser_rejects_inf_count_mismatch():
    text = (
        "# TYPE repro_h histogram\n"
        'repro_h_bucket{le="+Inf"} 4\n'
        "repro_h_sum 1\n"
        "repro_h_count 5\n"
    )
    with pytest.raises(ExpositionError, match="!= _count"):
        parse_exposition(text)


def test_parser_rejects_bare_sample_of_histogram_family():
    text = (
        "# TYPE repro_h histogram\n"
        "repro_h 4\n"
    )
    with pytest.raises(ExpositionError, match="_bucket/_sum/_count"):
        parse_exposition(text)


def test_parser_accepts_inf_and_nan_values():
    families = parse_exposition(
        "# TYPE repro_x gauge\nrepro_x +Inf\n"
        "# TYPE repro_y gauge\nrepro_y NaN\n"
    )
    assert sample_value(families, "repro_x") == math.inf
    assert math.isnan(sample_value(families, "repro_y"))


# ----------------------------------------------------------------------
# Collector families
# ----------------------------------------------------------------------


def test_gc_families_time_every_collection():
    """The pause histogram counts one observation per collection, from
    any thread, and registers on any number of registries."""
    import gc
    import threading

    from repro.obs.gc_metrics import register_gc_metrics

    first, second = MetricsRegistry(), MetricsRegistry()
    register_gc_metrics(first)
    register_gc_metrics(second)
    pauses = first.get("repro_gc_pause_seconds")
    assert second.get("repro_gc_pause_seconds") is pauses

    def collections() -> int:
        return sum(stats["collections"] for stats in gc.get_stats())

    def churn():
        # Live tracked containers, so young collections follow.
        kept = [[] for _ in range(20_000)]
        del kept

    gc.collect()  # nothing young left to trigger a pass between the reads
    before_pauses, before = pauses.sample()[0], collections()
    threads = [threading.Thread(target=churn) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    gc.collect()
    assert not any(thread.is_alive() for thread in threads)
    timed = pauses.sample()[0] - before_pauses
    assert timed == collections() - before > 1
    dumped = {m["name"]: m for m in first.dump()}
    assert [s["labels"]["generation"] for s in
            dumped["repro_gc_collections_total"]["samples"]] == ["0", "1", "2"]

