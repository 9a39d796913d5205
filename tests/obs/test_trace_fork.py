"""Tracing across the fork boundary.

A trace id is minted in the parent (at ``submit`` or at NetServer
ingress) and stays there: the batch task carries no trace id.  The lane
worker measures its compute time, and the parent records it from the
batch reply as a ``compute`` span **with the worker's pid**.  A trace
that shows a compute span from a different process than its ingress is
the proof that tracing crossed the process boundary; the chaos hooks
then show it surviving hedges and worker death/respawn.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from repro.core import PegasusConfig
from repro.distributed import build_summary_cluster
from repro.graph import planted_partition
from repro.obs import MetricsRegistry, ObsConfig, Tracer, get_registry, samples_for
from repro.serving import (
    QUERY_TYPES,
    NetClient,
    NetServer,
    QueryServer,
    TenantConfig,
    TenantHost,
)

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


@pytest.fixture(scope="module")
def cluster():
    graph = planted_partition(120, 4, avg_degree_in=8.0, avg_degree_out=1.0, seed=11)
    config = PegasusConfig(seed=1, t_max=8)
    return build_summary_cluster(graph, 4, 0.5 * graph.size_in_bits(), config=config)


def _queries(cluster, count=10, seed=5):
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, cluster.graph.num_nodes, size=count)
    return [(int(n), QUERY_TYPES[i % len(QUERY_TYPES)]) for i, n in enumerate(nodes)]


def _by_name(spans):
    grouped = {}
    for span in spans:
        grouped.setdefault(span.name, []).append(span)
    return grouped


class TestForkBoundary:
    def test_worker_compute_span_lands_under_parent_trace(self, cluster):
        """One parent-minted trace id, one worker-side compute span."""
        tracer = Tracer()
        obs = ObsConfig(registry=MetricsRegistry(), tracer=tracer)

        async def _run():
            async with QueryServer(
                cluster, workers=2, max_batch=4, max_wait_ms=1.0, obs=obs
            ) as server:
                node, query_type = _queries(cluster, count=1)[0]
                handle = tracer.begin("query", tenant="test")
                answer = await server.submit(node, query_type, trace=handle)
                handle.finish()
                return answer, handle.trace_id

        answer, trace_id = asyncio.run(_run())
        spans = _by_name(tracer.spans(trace_id))
        assert {"queue", "assemble", "dispatch", "compute", "total"} <= set(spans)
        compute = spans["compute"][0]
        assert compute.pid != os.getpid(), (
            "compute must be measured in the lane worker, not the parent"
        )
        assert spans["queue"][0].pid == os.getpid()  # ingress side
        assert compute.duration_s > 0.0
        assert spans["dispatch"][0].meta["outcome"] == "delivered"

    def test_server_minted_traces_cover_every_request(self, cluster):
        """Without an edge handle the server mints one per submit."""
        tracer = Tracer(ring=8192)
        queries = _queries(cluster, count=8)

        async def _run():
            async with QueryServer(
                cluster, workers=2, max_batch=4, obs=ObsConfig(tracer=tracer)
            ) as server:
                await asyncio.gather(*(server.submit(n, q) for n, q in queries))

        asyncio.run(_run())
        totals = [s for s in tracer.spans() if s.name == "total"]
        assert len(totals) == len(queries)
        assert all(s.meta["status"] == "ok" for s in totals)
        worker_pids = {s.pid for s in tracer.spans() if s.name == "compute"}
        assert worker_pids and os.getpid() not in worker_pids

    def test_inline_path_computes_in_the_ingress_process(self, cluster):
        """workers=1 serves inline: same spans, same pid — and the
        worker-metrics harvest must not double-count the one registry."""
        tracer = Tracer()
        registry = MetricsRegistry()
        queries = _queries(cluster, count=4)

        async def _run():
            async with QueryServer(
                cluster, workers=1, obs=ObsConfig(registry=registry, tracer=tracer)
            ) as server:
                await asyncio.gather(*(server.submit(n, q) for n, q in queries))

        asyncio.run(_run())
        computes = [s for s in tracer.spans() if s.name == "compute"]
        assert computes and all(s.pid == os.getpid() for s in computes)
        latency = samples_for(registry.snapshot(), "repro_request_latency_seconds")
        assert latency[0]["count"] == len(queries)  # merged once, not twice


class TestHedgedTrace:
    def test_hedged_query_trace_spans_and_foreign_compute(self, cluster, tmp_path):
        """The acceptance criterion: a hedged query's trace shows
        queue/dispatch/compute/reply spans, the compute span recorded in
        a different process than ingress (by pid), with the hedge event
        marking the duplicate dispatch."""
        registry = MetricsRegistry()
        tracer = Tracer(ring=16384)
        obs = ObsConfig(registry=registry, tracer=tracer)
        chaos = {
            "hook": "_chaos:delay_machine",
            "delay_s": 0.4,
            "token": str(tmp_path / "delay.token"),
        }
        queries = _queries(cluster, count=12)

        async def _run():
            async with TenantHost(workers=4, chaos=chaos, obs=obs) as host:
                await host.add_tenant(
                    "acme",
                    cluster,
                    config=TenantConfig(hedge_ms=25.0, max_wait_ms=0.0),
                )
                async with NetServer(host, obs=obs) as net:
                    client = await NetClient.connect("127.0.0.1", net.port)
                    async with client:
                        for node, query_type in queries:
                            answer = await client.query("acme", node, query_type)
                            expected = cluster.answer(node, query_type)
                            assert answer.tobytes() == expected.tobytes()
                return host.aggregate_stats()

        stats = asyncio.run(_run())
        assert stats["hedged"] >= 1, "the delayed batch must have hedged"

        hedged_ids = {s.trace_id for s in tracer.spans() if s.name == "hedge"}
        assert hedged_ids, "hedge events must be recorded on the victim traces"
        trace_id = sorted(hedged_ids)[0]
        spans = _by_name(tracer.spans(trace_id))
        assert {"queue", "dispatch", "compute", "reply", "total"} <= set(spans)
        assert any(s.pid != os.getpid() for s in spans["compute"]), (
            "hedged compute must still come from a lane worker process"
        )
        assert all(s.pid == os.getpid() for s in spans["reply"])
        assert any(s.meta.get("hedged") for s in spans["dispatch"])
        # The registry saw the same hedge the ledger did.
        hedges = samples_for(registry.snapshot(), "repro_hedges_total")
        assert sum(s["value"] for s in hedges) == stats["hedged"]


class TestWorkerDeathRespawn:
    def test_traces_and_metrics_survive_sigkill_respawn(self, cluster, tmp_path):
        """kill_worker murders a lane worker mid-batch; the batch is
        re-dispatched to the respawned worker, whose compute span and
        harvested metrics land under the original trace ids."""
        registry = MetricsRegistry()
        tracer = Tracer(ring=16384)
        obs = ObsConfig(registry=registry, tenant="acme", tracer=tracer)
        chaos = {
            "hook": "_chaos:kill_worker",
            "machine": 0,
            "token": str(tmp_path / "kill.token"),
        }
        queries = _queries(cluster, count=12)

        async def _run():
            async with QueryServer(
                cluster, workers=2, max_batch=4, max_wait_ms=1.0, chaos=chaos, obs=obs
            ) as server:
                answers = await asyncio.gather(
                    *(server.submit(n, q) for n, q in queries)
                )
                return answers, server.stats

        answers, stats = asyncio.run(_run())
        for (node, query_type), answer in zip(queries, answers):
            assert answer.tobytes() == cluster.answer(node, query_type).tobytes()
        assert stats.redispatches >= 1, "the killed batch must have been re-sent"

        redispatched = {s.trace_id for s in tracer.spans() if s.name == "redispatch"}
        assert redispatched, "redispatch events must mark the affected traces"
        for trace_id in redispatched:
            spans = _by_name(tracer.spans(trace_id))
            # The replacement copy computed in a (respawned) worker.
            assert any(s.pid != os.getpid() for s in spans["compute"])
            assert spans["total"][0].meta["status"] == "ok"

        snap = registry.snapshot()
        redis = samples_for(snap, "repro_redispatches_total")
        assert sum(s["value"] for s in redis) == stats.redispatches
        # Per-batch harvest: compute recorded for batches delivered both
        # before and after the respawn.
        compute = samples_for(snap, "repro_worker_compute_seconds")
        assert sum(s["count"] for s in compute) >= stats.batches

    def test_respawned_worker_ships_only_its_own_metrics(self, cluster):
        """A lane worker forked after traffic inherits the parent's
        process-wide registry; its harvests must not ship that back, or
        the parent counts it twice."""
        import signal

        queries = _queries(cluster, count=16)

        async def _run():
            async with QueryServer(
                cluster, workers=2, max_batch=4, obs=ObsConfig.default(tenant="respawn")
            ) as server:
                await asyncio.gather(*(server.submit(n, q) for n, q in queries[:8]))
                os.kill(server.executor.lane_pids()[0][0], signal.SIGKILL)
                await asyncio.gather(*(server.submit(n, q) for n, q in queries[8:]))
                return server.stats.as_dict()

        before = samples_for(get_registry().snapshot(), "repro_requests_total")
        stats = asyncio.run(_run())
        after = samples_for(get_registry().snapshot(), "repro_requests_total")

        def answered(samples):
            return sum(
                s["value"]
                for s in samples
                if s["labels"] == {"tenant": "respawn", "outcome": "answered"}
            )

        assert answered(after) - answered(before) == len(queries)
        assert stats["admitted"] == stats["answered"] == len(queries)
