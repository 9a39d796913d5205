"""QueryServer metrics: the registry agrees with the ServingStats ledger.

The metrics layer is a second bookkeeper for the same events the stats
ledger counts, so after any workload the two must agree exactly —
per outcome, per batch, per rejection.  Also pins the zero-cost default:
without an ``ObsConfig`` (or with an empty one) the server keeps no obs
state at all.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import PegasusConfig
from repro.distributed import build_summary_cluster
from repro.errors import ServingError
from repro.graph import planted_partition
from repro.obs import MetricsRegistry, ObsConfig, Tracer, samples_for
from repro.serving import QUERY_TYPES, QueryServer
from repro.serving.server import STATS_FIELDS, ServingStats

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


class TestZeroCostDefault:
    def test_no_obs_keeps_no_state(self, cluster):
        server = QueryServer(cluster)
        assert server._obs is None and server._ospec is None and server._metrics is None

    def test_empty_obsconfig_is_disabled(self, cluster):
        assert not ObsConfig().enabled
        server = QueryServer(cluster, obs=ObsConfig())
        assert server._obs is None and server._ospec is None

    def test_tracer_only_obsconfig_enables_tracing_without_metrics(self, cluster):
        tracer = Tracer()
        server = QueryServer(cluster, obs=ObsConfig(tracer=tracer))
        assert server._obs is not None and server._metrics is None
        assert server._tracer is tracer


class TestStatsFieldsDocumented:
    def test_every_servingstats_field_is_documented(self):
        ledger_fields = set(ServingStats().as_dict())
        assert ledger_fields <= set(STATS_FIELDS)
        # Plus the two host-level fields the wire reply adds.
        assert {"inflight", "quota_rejections"} <= set(STATS_FIELDS)
        assert all(doc for doc in STATS_FIELDS.values())
