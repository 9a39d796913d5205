"""The tracer contract: span ring, JSONL sink, slow-query log.

A trace is minted once at the edge and finished once; spans recorded in
between (including foreign worker-side spans attached by ``record``'s
``pid`` override) land in a bounded ring and, when configured, a JSONL
sink and a structured slow-query log line.
"""

from __future__ import annotations

import json
import logging
import os

import pytest

from repro.obs import Span, Tracer, new_trace_id


class TestTraceLifecycle:
    def test_begin_finish_records_total_span(self):
        tracer = Tracer()
        handle = tracer.begin("query", tenant="acme")
        span = handle.finish()
        assert span.name == "total"
        assert span.trace_id == handle.trace_id
        assert span.meta["status"] == "ok" and span.meta["tenant"] == "acme"
        assert span.duration_s >= 0.0

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        handle = tracer.begin("query")
        assert handle.finish() is not None
        assert handle.finish() is None
        assert len(tracer.spans(handle.trace_id)) == 1

    def test_trace_ids_are_unique_16_hex(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)

    def test_record_foreign_pid_span(self):
        """Worker-side compute spans carry the worker's pid, not ours."""
        tracer = Tracer()
        span = tracer.record("abc123", "compute", 0.05, pid=99999, lane=2)
        assert span.pid == 99999
        assert tracer.spans("abc123")[0].meta == {"lane": 2}
        own = tracer.record("abc123", "queue", 0.001)
        assert own.pid == os.getpid()

    def test_event_is_zero_duration(self):
        tracer = Tracer()
        span = tracer.event("abc", "hedge", machine=1)
        assert span.duration_s == 0.0 and span.meta == {"machine": 1}

    def test_span_as_dict_omits_empty_meta(self):
        with_meta = Span("t", "queue", 0.1, 1, 0.0, {"x": 1}).as_dict()
        without = Span("t", "queue", 0.1, 1, 0.0).as_dict()
        assert with_meta["meta"] == {"x": 1}
        assert "meta" not in without


class TestRing:
    def test_ring_drops_oldest(self):
        tracer = Tracer(ring=3)
        for i in range(5):
            tracer.record("t", f"s{i}", 0.0)
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]

    def test_spans_filters_by_trace(self):
        tracer = Tracer()
        tracer.record("a", "x", 0.0)
        tracer.record("b", "y", 0.0)
        assert [s.name for s in tracer.spans("a")] == ["x"]

    def test_ring_must_hold_at_least_one(self):
        with pytest.raises(ValueError):
            Tracer(ring=0)

    def test_abandoned_traces_are_evicted_not_leaked(self):
        from repro.obs import trace as trace_mod

        tracer = Tracer()
        handles = [tracer.begin("query") for _ in range(8)]
        assert len(tracer._active) == 8
        # Force the cap low and mint one more: oldest active is evicted.
        original = trace_mod._MAX_ACTIVE_TRACES
        trace_mod._MAX_ACTIVE_TRACES = 8
        try:
            tracer.begin("query")
        finally:
            trace_mod._MAX_ACTIVE_TRACES = original
        assert len(tracer._active) == 8
        assert handles[0].trace_id not in tracer._active


class TestSink:
    def test_jsonl_sink_one_span_per_line(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with Tracer(sink_path=str(path)) as tracer:
            handle = tracer.begin("query")
            tracer.record(handle.trace_id, "queue", 0.001, machine=0)
            handle.finish()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["name"] for line in lines] == ["queue", "total"]
        assert all(line["trace_id"] == handle.trace_id for line in lines)
        assert lines[0]["meta"] == {"machine": 0}

    def test_sink_appends_and_close_is_idempotent(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        for _ in range(2):
            tracer = Tracer(sink_path=str(path))
            tracer.record("t", "x", 0.0)
            tracer.flush()
            tracer.close()
            tracer.close()
        assert len(path.read_text().splitlines()) == 2


class TestSlowQueryLog:
    def test_slow_trace_emits_structured_line(self, caplog):
        tracer = Tracer(slow_ms=0.0)  # everything is slow
        handle = tracer.begin("query", tenant="acme")
        tracer.record(handle.trace_id, "compute", 0.04, pid=4242, lane=1)
        with caplog.at_level(logging.WARNING, logger="repro.obs.slow"):
            handle.finish()
        assert tracer.slow_queries == 1
        record = caplog.records[-1]
        payload = json.loads(record.getMessage().split(" ", 1)[1])
        assert payload["trace_id"] == handle.trace_id
        assert payload["meta"] == {"tenant": "acme"}
        assert payload["threshold_ms"] == 0.0
        breakdown = {s["name"]: s for s in payload["spans"]}
        assert breakdown["compute"]["pid"] == 4242
        assert breakdown["compute"]["ms"] == pytest.approx(40.0)

    def test_fast_trace_stays_quiet(self, caplog):
        tracer = Tracer(slow_ms=10_000.0)
        with caplog.at_level(logging.WARNING, logger="repro.obs.slow"):
            tracer.begin("query").finish()
        assert tracer.slow_queries == 0
        assert not caplog.records

    def test_disabled_by_default(self, caplog):
        tracer = Tracer()  # no slow_ms: off, the documented default
        with caplog.at_level(logging.WARNING, logger="repro.obs.slow"):
            tracer.begin("query").finish()
        assert tracer.slow_queries == 0
        assert not caplog.records

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            Tracer(slow_ms=-1.0)
