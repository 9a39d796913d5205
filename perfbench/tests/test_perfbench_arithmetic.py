"""Unit tests for the benchmark's own arithmetic, on synthetic inputs."""

from __future__ import annotations

import layers
import pytest
import stats


# ---- the >=10-samples-beyond percentile rule --------------------------
def test_p99_reported_when_ten_samples_lie_beyond():
    values = list(range(1, 1001))  # 1000 distinct samples
    tail = stats.tail_percentile(values, 99.0)
    assert tail.pct == 99.0
    assert tail.beyond == 10
    assert tail.value == pytest.approx(990.01)


def test_smaller_sample_falls_back_to_highest_percentile_with_ten_beyond():
    values = list(range(1, 301))  # 300 samples: p99 has only 3 beyond
    tail = stats.tail_percentile(values, 99.0)
    assert tail.beyond == 10
    assert tail.value == 290
    assert tail.pct == pytest.approx(100.0 * 289 / 299)
    assert tail.count == 300


def test_no_tail_when_no_percentile_above_the_median_has_ten_beyond():
    assert stats.tail_percentile(list(range(20))) is None
    assert stats.tail_percentile(list(range(21))) is not None


def test_ties_at_the_tail_do_not_count_as_beyond():
    values = [1.0] * 990 + [5.0] * 10
    tail = stats.tail_percentile(values, 99.0)
    assert tail.beyond == 10
    assert tail.value == pytest.approx(1.0 + 4.0 * 0.01)


# ---- due-time latency and generator lateness ---------------------------
def test_latency_counts_from_the_due_time_not_the_send_time():
    due = [0.0, 1.0, 2.0]
    sent = [0.0, 1.5, 2.0]  # the generator ran 0.5 s late on the second
    done = [0.1, 1.7, 2.2]
    assert stats.open_loop_latencies(due, done) == pytest.approx([0.1, 0.7, 0.2])
    assert stats.lateness(due, sent) == pytest.approx([0.0, 0.5, 0.0])


def test_lateness_never_negative_and_lengths_must_match():
    assert stats.lateness([1.0], [0.9]) == [0.0]
    with pytest.raises(ValueError):
        stats.open_loop_latencies([0.0], [])


# ---- backlog growth ----------------------------------------------------
def test_backlog_series_counts_outstanding_requests_at_each_send():
    sent = [0.0, 1.0, 2.0, 3.0]
    done = [0.5, 2.5, 3.5, 4.0]
    assert stats.backlog_series(sent, done) == [1, 1, 2, 2]


def test_stable_rung_is_not_growing():
    # 60 qps, each request done 20 ms after it was sent.
    sent = [i / 60.0 for i in range(600)]
    done = [t + 0.02 for t in sent]
    series = stats.backlog_series(sent, done)
    assert max(series) <= 2
    assert not stats.backlog_growing(series, 60.0)


def test_overloaded_rung_is_growing():
    # 200 qps offered, 100 qps served: the queue grows by 100 per second.
    sent = [i / 200.0 for i in range(400)]
    done = [(i + 1) / 100.0 for i in range(400)]
    assert stats.backlog_growing(stats.backlog_series(sent, done), 200.0)


def test_a_burst_that_drains_is_not_growing():
    series = [1, 2, 30, 40, 20, 5, 2, 1, 1, 1]
    assert not stats.backlog_growing(series, 60.0)


# ---- goodput rung selection --------------------------------------------
def test_goodput_is_the_highest_passing_rung():
    rungs = [
        stats.Rung(30.0, 40.0, False, 0),
        stats.Rung(60.0, 90.0, False, 0),
        stats.Rung(400.0, 1500.0, True, 0),
    ]
    assert stats.goodput(rungs, 1000.0) == 60.0


def test_goodput_rejects_growing_failing_or_slow_rungs():
    assert stats.goodput([stats.Rung(100.0, 10.0, True, 0)], 1000.0) == 0.0
    assert stats.goodput([stats.Rung(100.0, 10.0, False, 1)], 1000.0) == 0.0
    assert stats.goodput([stats.Rung(100.0, 1000.1, False, 0)], 1000.0) == 0.0
    # A passing top rung counts even if a lower one failed.
    rungs = [stats.Rung(30.0, 2000.0, False, 0), stats.Rung(60.0, 50.0, False, 0)]
    assert stats.goodput(rungs, 1000.0) == 60.0


# ---- span self time and coverage ---------------------------------------
def test_union_length_merges_overlaps_and_clips():
    assert stats.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert stats.union_length([(0, 2), (1, 3), (5, 6)], lo=1, hi=5.5) == 2.5
    assert stats.union_length([]) == 0


def test_coverage_is_the_covered_share_of_the_interval():
    assert stats.coverage(0.0, 10.0, [(0, 2), (1, 4), (8, 12)]) == pytest.approx(0.6)
    assert stats.coverage(5.0, 5.0, [(0, 10)]) == 0.0


def _span(sid, parent, name, start, end, value=None, pid=1, req=None, ticks=0):
    return (pid, sid, parent, name, start, end, req, value, ticks)


def test_self_time_subtracts_child_coverage_once():
    spans = [
        _span(1, 0, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 1, "b", 3.0, 6.0),  # overlaps a: covered once
        _span(4, 2, "leaf", 1.5, 2.0),  # grandchild: counts against a only
    ]
    index = layers.SpanIndex(spans)
    selfs = [index.self_time(s) for s in spans]
    assert selfs == pytest.approx([5.0, 2.5, 3.0, 0.5])


def test_core_coverage_and_self_times_from_span_tuples():
    spans = [
        _span(1, 0, "core.summarize", 0.0, 10.0),
        _span(2, 1, "core.weights", 0.0, 1.0),
        _span(3, 1, "core.merge", 1.0, 9.0, value=(100, 5)),
        _span(4, 3, "core.batch.price", 2.0, 5.0, value=40),
        _span(5, 3, "core.pricing.scalar", 6.0, 7.0),
    ]
    out = layers.core_metrics(layers.SpanIndex(spans), [(0.0, 10.0)])
    assert out["core.coverage"] == pytest.approx(0.9)
    assert out["core.merge.self_s"] == pytest.approx(4.0)
    assert out["core.batch.price_s"] == pytest.approx(3.0)
    assert out["core.merge.yield"] == pytest.approx(0.05)
    assert out["core.batch.pairs"] == 40


def test_children_in_another_process_do_not_cover_a_parent():
    spans = [
        _span(1, 0, "core.summarize", 0.0, 10.0, pid=1),
        _span(2, 1, "core.merge", 0.0, 10.0, pid=2),  # same ids, other process
    ]
    index = layers.SpanIndex(spans)
    assert index.self_time(spans[0]) == pytest.approx(10.0)


def test_queue_wait_matches_requests_to_lane_submits_fifo():
    submits = [
        _span(1, 0, "serving.server.submit", 0.0, 1.0, value=(7, "rwr")),
        _span(2, 0, "serving.server.submit", 0.1, 1.0, value=(7, "rwr")),
    ]
    lanes = [
        _span(3, 0, "parallel.lanes.roundtrip", 0.05, 0.5, value=((7, "rwr"),)),
        _span(4, 0, "parallel.lanes.roundtrip", 0.3, 0.8, value=((7, "rwr"),)),
    ]
    assert layers.queue_waits(submits, lanes) == pytest.approx([0.05, 0.2])


# ---- timings scaled to the reference host speed ------------------------
def test_probe_at_interpolates_geometrically_between_samples():
    samples = [(0.0, 0.002), (1.0, 0.008), (3.0, 0.004)]
    assert stats.probe_at(samples, 0.5) == pytest.approx(0.004)  # sqrt(0.002 * 0.008)
    assert stats.probe_at(samples, 1.0) == pytest.approx(0.008)
    assert stats.probe_at(samples, 2.0) == pytest.approx((0.008 * 0.004) ** 0.5)


def test_probe_at_holds_the_nearest_sample_outside_the_samples():
    samples = [(1.0, 0.003), (2.0, 0.005)]
    assert stats.probe_at(samples, 0.0) == 0.003
    assert stats.probe_at(samples, 9.0) == 0.005
    with pytest.raises(ValueError):
        stats.probe_at([], 1.0)


def test_a_slow_spell_scales_out_of_the_timing():
    # The same call takes 1.5x as long while the probe takes 1.5x as long.
    fast = stats.at_reference(0.600, 0.004, 0.004)
    slow = stats.at_reference(0.900, 0.006, 0.004)
    assert fast == pytest.approx(0.600)
    assert slow == pytest.approx(fast)
