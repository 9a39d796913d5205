"""HostState / recover_host / doctor_report: crash-restart without a server.

The contract under test: whatever manifest is durable names only fully
durable files, ``recover_host`` serves byte-identically to the crashed
process's durable state, and ``doctor_report`` diagnoses rather than
raises.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core import PegasusConfig
from repro.errors import GraphFormatError, RecoveryError
from repro.resilience import HostState, doctor_report, recover_host
from repro.serving import QUERY_TYPES
from repro.streaming import StreamingSummarizer


def _corrupt_tail(path: str) -> None:
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.seek(max(0, size - 8))
        handle.write(b"\xff\xff\xff\xff")


def _answers(cluster, nodes=range(12)):
    return {
        (node, qt): cluster.answer(node, qt).tobytes()
        for node in nodes
        for qt in QUERY_TYPES
    }


class TestStaticTenant:
    def test_save_then_recover_is_byte_identical(self, cluster, tmp_path):
        state = HostState(tmp_path)
        state.save_static_tenant("acme", cluster)
        assert state.exists
        assert state.tenants == ["acme"]

        recovered = recover_host(tmp_path)
        assert set(recovered) == {"acme"}
        tenant = recovered["acme"]
        assert tenant.generation is None
        assert _answers(tenant.cluster) == _answers(cluster)

    def test_recover_verifies_checksums(self, cluster, tmp_path):
        state = HostState(tmp_path)
        state.save_static_tenant("acme", cluster)
        _corrupt_tail(os.path.join(state.tenant_dir("acme"), "machine-0000.store"))
        with pytest.raises(GraphFormatError):
            recover_host(tmp_path)

    def test_manifest_tampering_is_detected(self, cluster, tmp_path):
        state = HostState(tmp_path)
        state.save_static_tenant("acme", cluster)
        with open(state.manifest_path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        record["payload"]["tenants"]["evil"] = record["payload"]["tenants"]["acme"]
        with open(state.manifest_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        with pytest.raises(RecoveryError, match="checksum"):
            recover_host(tmp_path)

    def test_remove_tenant_drops_manifest_entry(self, cluster, tmp_path):
        state = HostState(tmp_path)
        state.save_static_tenant("acme", cluster)
        state.remove_tenant("acme")
        assert state.tenants == []

    def test_reopening_a_state_dir_loads_the_manifest(self, cluster, tmp_path):
        HostState(tmp_path).save_static_tenant("acme", cluster)
        assert HostState(tmp_path).tenants == ["acme"]


class TestStreamingTenant:
    @pytest.fixture()
    def streaming(self, graph, tmp_path):
        state = HostState(tmp_path)
        rng = np.random.default_rng(5)
        extra = rng.integers(0, graph.num_nodes, size=(60, 2))
        summarizer = StreamingSummarizer(
            graph,
            2,
            0.5 * graph.size_in_bits(),
            config=PegasusConfig(seed=3, t_max=3),
            seed=3,
            log_dir=state.delta_dir("stream"),
            checkpoint=state.checkpoint_for("stream"),
        )
        state.save_streaming_tenant("stream", summarizer)
        return state, summarizer, extra

    def test_recover_replays_the_durable_stream(self, streaming, tmp_path):
        state, summarizer, extra = streaming
        summarizer.ingest(extra[:30])
        summarizer.ingest(extra[30:])

        recovered = recover_host(tmp_path)["stream"]
        assert recovered.generation == summarizer.log.generation
        assert _answers(recovered.cluster) == _answers(summarizer.cluster)

    def test_refresh_compaction_keeps_recovery_exact(self, streaming, tmp_path):
        state, summarizer, extra = streaming
        summarizer.ingest(extra[:30])
        summarizer.refresh()  # checkpoints summaries, compacts the log
        summarizer.ingest(extra[30:])

        recovered = recover_host(tmp_path)["stream"]
        assert recovered.generation == summarizer.log.generation
        assert recovered.generation >= 1
        assert _answers(recovered.cluster) == _answers(summarizer.cluster)

    def test_streaming_checkpoint_requires_a_log(self, graph, tmp_path):
        summarizer = StreamingSummarizer(
            graph, 2, 0.5 * graph.size_in_bits(), config=PegasusConfig(seed=3, t_max=3)
        )
        with pytest.raises(RecoveryError, match="log_dir"):
            HostState(tmp_path).save_streaming_tenant("stream", summarizer)


class TestDoctor:
    def test_healthy_dir_is_recoverable(self, cluster, tmp_path):
        HostState(tmp_path).save_static_tenant("acme", cluster)
        report = doctor_report(tmp_path)
        assert report["recoverable"]
        assert report["manifest"]["ok"]
        tenant = report["tenants"]["acme"]
        assert tenant["ok"] and tenant["kind"] == "static"
        assert all(entry["ok"] for entry in tenant["files"])

    def test_corruption_is_localized_not_raised(self, cluster, tmp_path):
        state = HostState(tmp_path)
        state.save_static_tenant("acme", cluster)
        state.save_static_tenant("globex", cluster)
        _corrupt_tail(os.path.join(state.tenant_dir("acme"), "graph.store"))
        report = doctor_report(tmp_path)
        assert not report["recoverable"]
        assert not report["tenants"]["acme"]["ok"]
        assert report["tenants"]["globex"]["ok"]
        broken = [e for e in report["tenants"]["acme"]["files"] if not e["ok"]]
        assert [e["file"] for e in broken] == ["graph.store"]

    def test_streaming_delta_window_is_checked(self, graph, tmp_path):
        state = HostState(tmp_path)
        summarizer = StreamingSummarizer(
            graph,
            2,
            0.5 * graph.size_in_bits(),
            config=PegasusConfig(seed=3, t_max=3),
            seed=3,
            log_dir=state.delta_dir("stream"),
        )
        state.save_streaming_tenant("stream", summarizer)
        report = doctor_report(tmp_path)
        assert report["recoverable"]
        delta = report["tenants"]["stream"]["delta"]
        assert delta["ok"]
        assert delta["generation"] == summarizer.log.generation

    def test_missing_and_garbage_dirs_never_raise(self, tmp_path):
        report = doctor_report(tmp_path / "nope")
        assert not report["recoverable"]
        assert not report["manifest"]["ok"]

        bad = tmp_path / "garbage"
        bad.mkdir()
        (bad / "MANIFEST.json").write_text("not json at all")
        report = doctor_report(bad)
        assert not report["recoverable"]
        assert "JSON" in report["manifest"]["error"]

    def test_empty_manifest_is_not_recoverable(self, tmp_path):
        HostState(tmp_path)._flush_manifest()
        report = doctor_report(tmp_path)
        assert report["manifest"]["ok"]
        assert not report["recoverable"]  # nothing to recover is not "fine"
