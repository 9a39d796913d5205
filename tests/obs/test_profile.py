"""Profiling hooks: exactly-zero behavior change when off, phase
histograms when on.

The probes live *inside* the merge kernels and store paths, so the
disabled path must be a shared no-op (the engine equivalence suites run
with the instrumentation in place).  Enabled, every probe records into
``repro_phase_seconds{phase=...}`` whose count doubles as a call
counter.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    MetricsRegistry,
    count,
    disable_profiling,
    enable_profiling,
    probe,
    profiling_enabled,
    profiling_into,
    samples_for,
)
from repro.obs.profile import _NOOP


class TestSwitch:
    def test_disabled_probe_is_the_shared_noop(self):
        disable_profiling()
        assert probe("merge.fused_join") is _NOOP
        assert probe("anything.else") is _NOOP  # one object, zero allocs

    def test_enable_disable_roundtrip(self):
        assert not profiling_enabled()
        enable_profiling(MetricsRegistry())
        assert profiling_enabled()
        disable_profiling()
        assert not profiling_enabled()

    @pytest.mark.parametrize("before", ["off", "on"])
    def test_profiling_into_restores_the_previous_switch(self, before):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        if before == "on":
            enable_profiling(outer)
        else:
            disable_profiling()
        with pytest.raises(RuntimeError):
            with profiling_into(inner):
                assert profiling_enabled()
                count("repro_stream_swaps_total", kind="inner")
                raise RuntimeError("batch blew up")
        assert profiling_enabled() == (before == "on")
        count("repro_stream_swaps_total", kind="outer")

        def kinds(registry):
            samples = samples_for(registry.snapshot(), "repro_stream_swaps_total")
            return [s["labels"]["kind"] for s in samples]

        assert kinds(inner) == ["inner"]
        assert kinds(outer) == (["outer"] if before == "on" else [])

    def test_count_noop_when_disabled(self):
        registry = MetricsRegistry()
        disable_profiling()
        count("repro_stream_swaps_total", kind="refresh")
        assert registry.snapshot() == {"families": []}


class TestRecording:
    def test_probe_records_phase_histogram(self):
        registry = MetricsRegistry()
        enable_profiling(registry)
        with probe("merge.fused_join"):
            pass
        with probe("merge.fused_reduce"):
            pass
        with probe("store.load_graph"):
            pass
        samples = samples_for(registry.snapshot(), "repro_phase_seconds")
        by_phase = {s["labels"]["phase"]: s["count"] for s in samples}
        assert by_phase == {
            "merge.fused_join": 1,
            "merge.fused_reduce": 1,
            "store.load_graph": 1,
        }

    def test_probe_records_even_on_exception(self):
        registry = MetricsRegistry()
        enable_profiling(registry)
        with pytest.raises(RuntimeError):
            with probe("merge.apply"):
                raise RuntimeError("kernel blew up")
        samples = samples_for(registry.snapshot(), "repro_phase_seconds")
        assert samples[0]["count"] == 1

    def test_count_records_labeled_counter(self):
        registry = MetricsRegistry()
        enable_profiling(registry)
        count("repro_stream_swaps_total", kind="residual")
        count("repro_stream_swaps_total", 2.0, kind="residual")
        samples = samples_for(registry.snapshot(), "repro_stream_swaps_total")
        assert samples[0]["labels"] == {"kind": "residual"}
        assert samples[0]["value"] == 3.0


class TestInstrumentedPathsStayExact:
    """The probes sit inside real kernels; answers must not change."""

    def test_summarize_identical_with_profiling_on(self):
        from repro.core import PegasusConfig, summarize
        from repro.graph import planted_partition

        graph = planted_partition(80, 4, avg_degree_in=6.0, avg_degree_out=1.0, seed=3)
        config = PegasusConfig(seed=1, t_max=6)
        baseline = summarize(graph, budget_bits=0.5 * graph.size_in_bits(), config=config)
        registry = MetricsRegistry()
        enable_profiling(registry)
        try:
            probed = summarize(graph, budget_bits=0.5 * graph.size_in_bits(), config=config)
        finally:
            disable_profiling()
        assert probed.summary.size_in_bits() == baseline.summary.size_in_bits()
        phases = {
            s["labels"]["phase"]
            for s in samples_for(registry.snapshot(), "repro_phase_seconds")
        }
        assert "merge.apply" in phases
        assert {"merge.fused_join", "merge.fused_reduce", "merge.scalar_attempt"} & phases

    def test_window_sampler_probe_and_attempt_counters(self, tmp_path):
        """One ``merge.sample`` span per window draw or rewind, and the
        drawn-vs-resolved attempt counters; the summary bytes must not move."""
        from repro.core import PegasusConfig, save_summary, summarize
        from repro.graph import planted_partition

        graph = planted_partition(120, 4, avg_degree_in=6.0, avg_degree_out=1.0, seed=5)
        config = PegasusConfig(seed=2, t_max=6)
        paths = []
        registry = MetricsRegistry()
        for profiled in (False, True):
            if profiled:
                enable_profiling(registry)
            try:
                result = summarize(graph, compression_ratio=0.5, config=config)
            finally:
                disable_profiling()
            paths.append(tmp_path / f"summary-{profiled}.txt")
            save_summary(result.summary, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

        snapshot = registry.snapshot()
        phases = {
            s["labels"]["phase"]: s["count"]
            for s in samples_for(snapshot, "repro_phase_seconds")
        }
        attempts = {
            s["labels"]["kind"]: s["value"]
            for s in samples_for(snapshot, "repro_merge_attempts_total")
        }
        assert set(attempts) == {"drawn", "resolved"}
        assert attempts["drawn"] >= attempts["resolved"] > 0
        # A draw per window plus a rewind per window cut short (which
        # holds at least two attempts): never more spans than attempts.
        assert 0 < phases["merge.sample"] <= attempts["drawn"]
