"""The metrics registry contract: instruments, merging, exposition.

The property the serving tier leans on is **mergeability**: fixed
log-spaced buckets mean two histograms with the same bounds combine by
adding counts, which is how each served batch's own registry folds into
the parent registry without locks or shared memory.  These tests pin
that, plus both exposition formats.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BOUNDS,
    Histogram,
    MetricsRegistry,
    get_registry,
    log_spaced_bounds,
    quantile_from_sample,
    samples_for,
)


class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("reqs", "requests", tenant="a")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(7)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value == 5.0

    def test_instruments_are_cached_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("reqs", tenant="a")
        assert registry.counter("reqs", tenant="a") is a
        assert registry.counter("reqs", tenant="b") is not a

    def test_kind_collision_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("x")

    def test_default_registry_is_process_wide(self):
        assert get_registry() is get_registry()


class TestHistogram:
    def test_observe_places_values_in_log_buckets(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1, 1]  # last slot is the +Inf overflow
        assert hist.count == 4
        assert hist.sum == pytest.approx(105.0)
        assert hist.mean == pytest.approx(105.0 / 4)

    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(bounds=(2.0, 1.0))
        Histogram()  # the defaults themselves must pass the validation

    def test_merge_adds_counts(self):
        a, b = Histogram(bounds=(1.0, 2.0)), Histogram(bounds=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge_counts(b.counts, b.sum, b.count)
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.sum == pytest.approx(11.0)

    def test_merge_rejects_mismatched_buckets(self):
        a = Histogram(bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="cannot merge"):
            a.merge_counts([0, 0], 0.0, 0)

    def test_quantile_interpolates_within_bucket(self):
        hist = Histogram(bounds=(10.0, 20.0))
        for _ in range(100):
            hist.observe(15.0)  # all in the (10, 20] bucket
        assert 10.0 <= hist.quantile(0.5) <= 20.0
        assert hist.quantile(0.0) >= 10.0
        assert Histogram().quantile(0.5) == 0.0  # empty
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantile_overflow_bucket_reports_last_bound(self):
        hist = Histogram(bounds=(1.0, 2.0))
        hist.observe(50.0)
        assert hist.quantile(0.99) == 2.0

    def test_log_spaced_bounds(self):
        assert log_spaced_bounds(1.0, 8.0) == (1.0, 2.0, 4.0, 8.0)
        assert log_spaced_bounds(0.5, 5.0, factor=10.0) == (0.5, 5.0)
        with pytest.raises(ValueError):
            log_spaced_bounds(0.0, 1.0)

    def test_family_bounds_fixed_at_creation(self):
        """Later samples share the family's bounds — merge compatibility
        by construction, even if a caller passes different bounds."""
        registry = MetricsRegistry()
        first = registry.histogram("lat", bounds=(1.0, 2.0), tenant="a")
        second = registry.histogram("lat", bounds=(9.0,), tenant="b")
        assert first.bounds == second.bounds == (1.0, 2.0)


class TestSnapshotsAndMerging:
    def _loaded(self):
        registry = MetricsRegistry()
        registry.counter("reqs", "requests", tenant="a").inc(4)
        registry.gauge("depth").set(2)
        registry.histogram("lat", bounds=(1.0, 2.0), tenant="a").observe(1.5)
        return registry

    def test_snapshot_is_json_safe(self):
        snap = self._loaded().snapshot()
        json.dumps(snap)  # must not raise
        assert samples_for(snap, "reqs")[0] == {"labels": {"tenant": "a"}, "value": 4.0}
        hist = samples_for(snap, "lat")[0]
        assert hist["counts"] == [0, 1, 0] and hist["count"] == 1

    def test_merge_snapshot_adds_counters_and_histograms(self):
        target = self._loaded()
        target.merge_snapshot(self._loaded().snapshot())
        snap = target.snapshot()
        assert samples_for(snap, "reqs")[0]["value"] == 8.0
        assert samples_for(snap, "lat")[0]["count"] == 2
        assert samples_for(snap, "depth")[0]["value"] == 2.0  # gauge: last write

    def test_merge_snapshot_round_trips_through_json(self):
        """The wire path: worker snapshot → JSON → parent merge."""
        target = MetricsRegistry()
        target.merge_snapshot(json.loads(json.dumps(self._loaded().snapshot())))
        assert samples_for(target.snapshot(), "reqs")[0]["value"] == 4.0

    def test_quantile_from_sample(self):
        snap = self._loaded().snapshot()
        value = quantile_from_sample(samples_for(snap, "lat")[0], 0.5)
        assert 1.0 <= value <= 2.0

    def test_per_batch_snapshots_recompose_exactly(self):
        """Per-batch registries merged into a parent equal one registry
        that recorded every batch."""
        parent, whole = MetricsRegistry(), MetricsRegistry()
        for batch in range(3):
            own = MetricsRegistry()
            for registry in (own, whole):
                registry.counter("reqs").inc(batch + 1)
                registry.histogram("lat", bounds=(1.0, 2.0)).observe(float(batch))
            parent.merge_snapshot(own.snapshot())
        assert samples_for(parent.snapshot(), "reqs")[0]["value"] == 6.0
        assert parent.snapshot() == whole.snapshot()


class TestPrometheusExposition:
    def test_render_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("reqs", "total requests", tenant="a").inc(4)
        registry.gauge("depth").set(1.5)
        text = registry.render_prometheus()
        assert "# HELP reqs total requests" in text
        assert "# TYPE reqs counter" in text
        assert 'reqs{tenant="a"} 4' in text
        assert "# TYPE depth gauge" in text
        assert "depth 1.5" in text
        assert text.endswith("\n")

    def test_render_histogram_is_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", "latency", bounds=(1.0, 2.0), tenant="a")
        hist.observe(0.5)
        hist.observe(1.5)
        hist.observe(9.0)
        text = registry.render_prometheus()
        assert 'lat_bucket{tenant="a",le="1"} 1' in text
        assert 'lat_bucket{tenant="a",le="2"} 2' in text
        assert 'lat_bucket{tenant="a",le="+Inf"} 3' in text
        assert 'lat_sum{tenant="a"} 11' in text
        assert 'lat_count{tenant="a"} 3' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("reqs", tenant='we"ird\\x').inc()
        assert 'tenant="we\\"ird\\\\x"' in registry.render_prometheus()

    def test_default_latency_bounds_cover_serving_range(self):
        assert DEFAULT_LATENCY_BOUNDS[0] == pytest.approx(1e-4)
        assert DEFAULT_LATENCY_BOUNDS[-1] > 100.0  # sub-ms .. minutes
