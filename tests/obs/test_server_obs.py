"""QueryServer metrics: the ServingStats ledger is a view of the registry.

Every ledger field reads the registry instrument ``STATS_FIELDS`` names
for it, so after any workload the two agree exactly — per outcome, per
batch, per rejection, host-level bookings included.  Also pins the
default: without a caller's registry the ledger lives in a private one,
and lane workers are not asked to profile or ship metrics back.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import PegasusConfig
from repro.distributed import build_summary_cluster
from repro.errors import ServingError, TenantError
from repro.graph import planted_partition
from repro.obs import MetricsRegistry, ObsConfig, Tracer, get_registry, samples_for
from repro.serving import QUERY_TYPES, QueryServer, TenantConfig, TenantHost
from repro.serving.server import STATS_FIELDS

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


@pytest.fixture(scope="module")
def cluster():
    graph = planted_partition(120, 4, avg_degree_in=8.0, avg_degree_out=1.0, seed=7)
    config = PegasusConfig(seed=1, t_max=8)
    return build_summary_cluster(graph, 4, 0.5 * graph.size_in_bits(), config=config)


def _queries(cluster, count=12, seed=3):
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, cluster.graph.num_nodes, size=count)
    return [(int(n), QUERY_TYPES[i % len(QUERY_TYPES)]) for i, n in enumerate(nodes)]


def _value(snapshot, name, **labels):
    for sample in samples_for(snapshot, name):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            return sample["value"]
    return 0.0


def _count(snapshot, name, **labels):
    for sample in samples_for(snapshot, name):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            return sample["count"]
    return 0


class TestMetricsMatchLedger:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_counters_agree_with_stats(self, cluster, workers):
        registry = MetricsRegistry()
        obs = ObsConfig(registry=registry, tenant="acme")
        queries = _queries(cluster)

        async def _run():
            async with QueryServer(
                cluster, workers=workers, max_batch=4, max_wait_ms=1.0, obs=obs
            ) as server:
                answers = await asyncio.gather(
                    *(server.submit(n, q) for n, q in queries)
                )
                return answers, server.stats.as_dict()

        answers, stats = asyncio.run(_run())
        for (node, query_type), answer in zip(queries, answers):
            assert answer.tobytes() == cluster.answer(node, query_type).tobytes()

        snap = registry.snapshot()
        assert _value(snap, "repro_admitted_total", tenant="acme") == stats["admitted"]
        assert (
            _value(snap, "repro_requests_total", tenant="acme", outcome="answered")
            == stats["answered"]
            == len(queries)
        )
        assert _value(snap, "repro_batches_total", tenant="acme") == stats["batches"]
        assert _count(snap, "repro_request_latency_seconds", tenant="acme") == len(queries)
        assert _count(snap, "repro_queue_wait_seconds", tenant="acme") == len(queries)
        assert _count(snap, "repro_batch_size", tenant="acme") == stats["batches"]
        # The queue drained before stop: the depth gauge must read 0.
        assert _value(snap, "repro_queue_depth", tenant="acme") == 0.0

    def test_worker_compute_histogram_per_lane(self, cluster):
        registry = MetricsRegistry()

        async def _run():
            async with QueryServer(
                cluster, workers=2, max_batch=4, obs=ObsConfig(registry=registry)
            ) as server:
                await asyncio.gather(*(server.submit(n, q) for n, q in _queries(cluster)))

        asyncio.run(_run())
        samples = samples_for(registry.snapshot(), "repro_worker_compute_seconds")
        assert samples, "pooled serving must record per-lane compute time"
        assert sum(s["count"] for s in samples) >= 1
        assert all("lane" in s["labels"] for s in samples)

    def test_rejected_submissions_counted(self, cluster):
        registry = MetricsRegistry()

        async def _run():
            async with QueryServer(
                cluster,
                workers=1,
                max_pending=1,
                max_batch=1,
                max_wait_ms=50.0,
                obs=ObsConfig(registry=registry, tenant="acme"),
            ) as server:
                futures = []
                rejected = 0
                for node, query_type in _queries(cluster, count=8):
                    try:
                        futures.append(server.submit_nowait(node, query_type))
                    except ServingError:
                        rejected += 1
                await asyncio.gather(*futures)
                return rejected, server.stats.rejected

        rejected, ledger_rejected = asyncio.run(_run())
        assert rejected >= 1 and rejected == ledger_rejected
        snap = registry.snapshot()
        assert (
            _value(snap, "repro_requests_total", tenant="acme", outcome="rejected")
            == rejected
        )

    def test_swap_bumps_swap_counter(self, cluster):
        registry = MetricsRegistry()

        async def _run():
            async with QueryServer(
                cluster, workers=1, obs=ObsConfig(registry=registry)
            ) as server:
                server.swap_machine(cluster.machines[0])
                await server.submit(*_queries(cluster, count=1)[0])
                return server.stats.swaps

        swaps = asyncio.run(_run())
        assert swaps == 1
        assert _value(registry.snapshot(), "repro_swaps_total") == 1.0


class TestHostBookings:
    def test_quota_rejection_agrees_with_the_registry(self, cluster):
        """A quota refusal is booked once, in the tenant server's
        registry, so the ledger and the metrics cannot disagree on it."""
        registry = MetricsRegistry()

        async def _run():
            async with TenantHost(workers=1, obs=ObsConfig(registry=registry)) as host:
                await host.add_tenant(
                    "acme", cluster, config=TenantConfig(max_inflight=1, max_wait_ms=200.0)
                )
                first = asyncio.ensure_future(host.submit("acme", 0, "rwr"))
                await asyncio.sleep(0)  # let it enter service
                with pytest.raises(TenantError, match="quota"):
                    await host.submit("acme", 1, "rwr")
                await first
                return host.all_stats()["acme"]

        stats = asyncio.run(_run())
        snap = registry.snapshot()
        assert stats["quota_rejections"] == 1
        assert _value(snap, "repro_quota_rejections_total", tenant="acme") == 1
        assert stats["rejected"] == _value(
            snap, "repro_requests_total", tenant="acme", outcome="rejected"
        )


class TestPrivateRegistry:
    @pytest.mark.parametrize("kind", ["none", "empty", "tracer-only"])
    def test_no_callers_registry_keeps_workers_quiet(self, cluster, kind):
        """Without a caller's registry the ledger still counts, in a
        private registry: no batch asks its lane worker to profile or ship
        metrics back, and nothing lands in the process-wide registry.  A
        tracer alone still traces."""
        tracer = Tracer()
        obs = {"none": None, "empty": ObsConfig(), "tracer-only": ObsConfig(tracer=tracer)}
        before = get_registry().snapshot()
        queries = _queries(cluster)

        async def _run():
            async with QueryServer(cluster, workers=2, max_batch=4, obs=obs[kind]) as server:
                tasks = []
                submit = server.executor.submit

                def spy(fn, task, **kwargs):
                    tasks.append(task)
                    return submit(fn, task, **kwargs)

                server.executor.submit = spy
                await asyncio.gather(*(server.submit(n, q) for n, q in queries))
                return tasks, server.stats.as_dict()

        tasks, stats = asyncio.run(_run())
        assert stats["admitted"] == stats["answered"] == len(queries)
        assert tasks and not any(task.profile for task in tasks)
        assert get_registry().snapshot() == before
        assert bool(tracer.spans()) == (kind == "tracer-only")


class TestStatsFields:
    def test_every_field_reads_the_instrument_it_names(self, cluster):
        registry = MetricsRegistry()
        server = QueryServer(cluster, obs=ObsConfig(registry=registry, tenant="acme"))
        for name in STATS_FIELDS:
            server.book(name, 3)
        stats = server.stats.as_dict()
        assert stats == dict.fromkeys(STATS_FIELDS, 3)
        assert all(type(value) is int for value in stats.values())
        snap = registry.snapshot()
        for family, labels, _help in STATS_FIELDS.values():
            assert _value(snap, family, tenant="acme", **labels) == 3, family
        with pytest.raises(AttributeError):
            server.stats.answered = 0
