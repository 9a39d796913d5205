"""Multi-tenant hosting: routing isolation, quotas, and ledger balance.

Pins the :class:`~repro.serving.tenancy.TenantHost` contract: co-hosted
tenants answer byte-identically to *their own* cluster (never another
tenant's), admission quotas shed load with typed errors, and every
tenant's ledger balances ``admitted == answered + failed + cancelled``
after any eviction — draining or cancelling, mid-batch included.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import PegasusConfig
from repro.distributed import build_subgraph_cluster, build_summary_cluster
from repro.errors import TenantError
from repro.graph import planted_partition
from repro.obs import MetricsRegistry, ObsConfig
from repro.serving import QUERY_TYPES, TenantConfig, TenantHost

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


@pytest.fixture(scope="module")
def graph():
    return planted_partition(140, 4, avg_degree_in=8.0, avg_degree_out=1.0, seed=3)


@pytest.fixture(scope="module")
def clusters(graph):
    """Two distinct clusters over the same graph: different summaries,
    different answers — cross-tenant leakage cannot go unnoticed."""
    summary = build_summary_cluster(
        graph, 4, 0.5 * graph.size_in_bits(), config=PegasusConfig(seed=1, t_max=8)
    )
    subgraph = build_subgraph_cluster(graph, 3, 0.4 * graph.size_in_bits())
    return {"acme": summary, "globex": subgraph}


def _balanced(stats) -> bool:
    return stats.admitted == stats.answered + stats.failed + stats.cancelled


class TestRoutingIsolation:
    def test_interleaved_tenants_answer_from_their_own_cluster(self, clusters):
        async def _run():
            async with TenantHost(workers=1) as host:
                for name, cluster in clusters.items():
                    await host.add_tenant(name, cluster)
                jobs = [
                    (name, node, QUERY_TYPES[(node + shift) % len(QUERY_TYPES)])
                    for node in range(12)
                    for shift, name in enumerate(clusters)
                ]
                answers = await asyncio.gather(
                    *(host.submit(name, node, qt) for name, node, qt in jobs)
                )
                return list(zip(jobs, answers))

        for (name, node, query_type), answer in asyncio.run(_run()):
            expected = clusters[name].answer(node, query_type)
            assert answer.tobytes() == expected.tobytes(), (name, node, query_type)

    def test_the_two_tenants_really_answer_differently(self, clusters):
        acme, globex = clusters["acme"], clusters["globex"]
        assert any(
            acme.answer(node, "rwr").tobytes() != globex.answer(node, "rwr").tobytes()
            for node in range(20)
        ), "fixture clusters must be distinguishable for leak detection"

    def test_tenants_get_distinct_lane_offsets(self, clusters):
        async def _run():
            async with TenantHost(workers=1) as host:
                for name, cluster in clusters.items():
                    await host.add_tenant(name, cluster)
                offsets = [host.server(name)._lane_offset for name in clusters]
                assert len(set(offsets)) == len(offsets)
                assert host.tenants() == list(clusters)
                for name, cluster in clusters.items():
                    assert host.cluster(name) is cluster

        asyncio.run(_run())


class TestDirectoryAndErrors:
    def test_unknown_tenant_and_bad_registration(self, clusters):
        async def _run():
            host = TenantHost(workers=1)
            with pytest.raises(TenantError):
                await host.add_tenant("early", clusters["acme"])  # before start
            async with host:
                await host.add_tenant("acme", clusters["acme"])
                with pytest.raises(TenantError):
                    await host.add_tenant("acme", clusters["globex"])  # duplicate
                with pytest.raises(TenantError):
                    await host.add_tenant("", clusters["globex"])  # empty name
                with pytest.raises(TenantError):
                    await host.submit("nobody", 0, "rwr")
                with pytest.raises(TenantError):
                    await host.evict("nobody")
                with pytest.raises(TenantError):
                    host.stats("nobody")

        asyncio.run(_run())

    def test_double_start_raises_and_close_is_idempotent(self):
        async def _run():
            host = TenantHost(workers=1)
            await host.start()
            with pytest.raises(TenantError):
                await host.start()
            await host.close()
            await host.close()  # idempotent
            assert not host.started

        asyncio.run(_run())


class TestQuota:
    def test_max_inflight_sheds_load_with_typed_error(self, clusters):
        async def _run():
            async with TenantHost(workers=1) as host:
                await host.add_tenant(
                    "acme",
                    clusters["acme"],
                    # A wide batch window keeps requests in flight long
                    # enough for the quota to be observably exceeded.
                    config=TenantConfig(max_inflight=2, max_wait_ms=200.0),
                )
                first = asyncio.ensure_future(host.submit("acme", 0, "rwr"))
                second = asyncio.ensure_future(host.submit("acme", 1, "rwr"))
                await asyncio.sleep(0)  # let both enter service
                with pytest.raises(TenantError, match="quota"):
                    await host.submit("acme", 2, "rwr")
                stats = host.all_stats()["acme"]
                # Booked once, as a quota refusal; the queue never saw it.
                assert stats["rejected"] == 0
                assert stats["quota_rejections"] == 1
                assert stats["inflight"] == 2
                answers = await asyncio.gather(first, second)
                for node, answer in enumerate(answers):
                    expected = clusters["acme"].answer(node, "rwr")
                    assert answer.tobytes() == expected.tobytes()
                # Quota released: the same submission is admitted now.
                again = await host.submit("acme", 2, "rwr")
                assert again.tobytes() == clusters["acme"].answer(2, "rwr").tobytes()

        asyncio.run(_run())

    def test_quota_only_throttles_its_own_tenant(self, clusters):
        async def _run():
            async with TenantHost(workers=1) as host:
                await host.add_tenant(
                    "acme",
                    clusters["acme"],
                    config=TenantConfig(max_inflight=1, max_wait_ms=200.0),
                )
                await host.add_tenant("globex", clusters["globex"])
                blocked = asyncio.ensure_future(host.submit("acme", 0, "rwr"))
                await asyncio.sleep(0)
                with pytest.raises(TenantError):
                    await host.submit("acme", 1, "rwr")
                # The sibling tenant is unaffected by acme's quota.
                answer = await host.submit("globex", 1, "rwr")
                assert answer.tobytes() == clusters["globex"].answer(1, "rwr").tobytes()
                await blocked

        asyncio.run(_run())


class TestEviction:
    def test_draining_eviction_answers_everything(self, clusters):
        async def _run():
            async with TenantHost(workers=1) as host:
                await host.add_tenant("acme", clusters["acme"])
                await host.add_tenant("globex", clusters["globex"])
                futures = [
                    asyncio.ensure_future(host.submit("acme", node, "hop"))
                    for node in range(8)
                ]
                await asyncio.sleep(0)
                stats = await host.evict("acme", drain=True)
                answers = await asyncio.gather(*futures)
                for node, answer in enumerate(answers):
                    expected = clusters["acme"].answer(node, "hop")
                    assert answer.tobytes() == expected.tobytes()
                assert stats.admitted == 8
                assert stats.answered == 8
                assert _balanced(stats)
                assert host.tenants() == ["globex"]
                with pytest.raises(TenantError):
                    await host.submit("acme", 0, "hop")
                # The surviving tenant still serves correctly afterwards.
                answer = await host.submit("globex", 3, "php")
                assert answer.tobytes() == clusters["globex"].answer(3, "php").tobytes()

        asyncio.run(_run())

    def test_cancelling_eviction_mid_batch_keeps_ledger_balanced(self, clusters, tmp_path):
        """Eviction with drain=False while requests are mid-flight: clients
        see CancelledError, late batch results are discarded on arrival,
        and ``admitted == answered + failed + cancelled`` still holds."""
        acme = clusters["acme"]
        nodes = [n for n in range(acme.graph.num_nodes) if acme.machine_for(n).machine_id == 0]
        # The first machine-0 batch stalls in its lane worker (fire-once).
        chaos = {
            "hook": "_chaos:delay_machine",
            "machine": 0,
            "delay_s": 1.0,
            "token": str(tmp_path / "delay.token"),
        }

        async def _run():
            async with TenantHost(workers=2, chaos=chaos) as host:
                await host.add_tenant(
                    "acme",
                    acme,
                    # Long cap: requests behind the busy lane stay parked
                    # in the batcher until the lane frees.
                    config=TenantConfig(max_wait_ms=60_000.0),
                )
                await host.add_tenant("globex", clusters["globex"])
                futures = [asyncio.ensure_future(host.submit("acme", nodes[0], "rwr"))]
                await asyncio.sleep(0.01)  # flushed to the idle lane, stalled there
                futures += [
                    asyncio.ensure_future(host.submit("acme", node, "rwr"))
                    for node in nodes[1:6]
                ]
                await asyncio.sleep(0.01)  # admitted, parked behind the busy lane
                stats = await host.evict("acme", drain=False)
                results = await asyncio.gather(*futures, return_exceptions=True)
                assert all(isinstance(r, asyncio.CancelledError) for r in results)
                assert stats.admitted == 6
                assert stats.cancelled == 6
                assert stats.answered == 0
                assert _balanced(stats)
                # Unaffected sibling: still correct, ledger its own.
                answer = await host.submit("globex", 2, "rwr")
                assert answer.tobytes() == clusters["globex"].answer(2, "rwr").tobytes()
                assert _balanced(host.stats("globex"))

        asyncio.run(_run())

    def test_eviction_releases_worker_side_sessions(self, clusters):
        """Pooled host: evicting a tenant fans the release task across all
        lanes so long-lived workers drop the tenant's cached machines."""

        async def _run():
            async with TenantHost(workers=2) as host:
                server = await host.add_tenant("acme", clusters["acme"])
                token = server._blueprint.token
                answer = await host.submit("acme", 0, "rwr")
                assert answer.tobytes() == clusters["acme"].answer(0, "rwr").tobytes()
                from repro.serving.blueprint import session_cached_task

                stats = await host.evict("acme", drain=True)
                assert _balanced(stats)
                executor = host.executor
                cached = [
                    await asyncio.wrap_future(
                        executor.submit(session_cached_task, token, lane=lane)
                    )
                    for lane in range(executor.lanes)
                ]
                assert not any(cached)

        asyncio.run(_run())


class TestReAdmission:
    def test_evicted_tenant_can_be_re_added_with_a_fresh_ledger(self, clusters):
        async def _run(obs):
            async with TenantHost(workers=1, obs=obs) as host:
                await host.add_tenant("acme", clusters["acme"])
                await host.submit("acme", 0, "rwr")
                final = await host.evict("acme")
                assert host.tenants() == []
                # Re-registration restarts from a clean slate, even when
                # the old ledger's counters live on in a shared registry...
                await host.add_tenant("acme", clusters["globex"])
                assert set(host.stats("acme").as_dict().values()) == {0}
                # ...and routes to the *new* cluster, not the old one.
                answer = await host.submit("acme", 0, "rwr")
                assert answer.tobytes() == clusters["globex"].answer(0, "rwr").tobytes()
                stats = host.stats("acme")
                assert stats.admitted == stats.answered == stats.max_batch_size == 1
                # The evicted tenant's ledger stays final.
                assert final.admitted == final.answered == 1

        asyncio.run(_run(None))
        asyncio.run(_run(ObsConfig(registry=MetricsRegistry())))


class TestStats:
    def test_all_stats_snapshot_shape(self, clusters):
        async def _run():
            async with TenantHost(workers=1) as host:
                for name, cluster in clusters.items():
                    await host.add_tenant(name, cluster)
                await host.submit("acme", 0, "rwr")
                snapshot = host.all_stats()
                assert set(snapshot) == set(clusters)
                acme = snapshot["acme"]
                assert acme["admitted"] == 1 and acme["answered"] == 1
                assert acme["inflight"] == 0 and acme["quota_rejections"] == 0
                # Snapshots are plain data, detached from the live ledger.
                acme["answered"] = 99
                assert host.stats("acme").answered == 1

        asyncio.run(_run())


class TestHealth:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_health_reads_lanes_pids_and_respawns_from_the_executor(self, workers):
        """While started, ``health`` reports the shared executor's own
        lane liveness, worker pids and respawn count; before start and
        after close it reports no lanes."""

        async def _run():
            host = TenantHost(workers=workers)
            assert host.health() == {"started": False, "tenants": []}
            async with host:
                executor = host.executor
                health = host.health()
                assert health["started"] and health["tenants"] == []
                assert health["lanes"] == [True] * executor.lanes
                assert health["lane_pids"] == executor.lane_pids()
                assert len(health["lane_pids"]) == (0 if workers == 1 else workers)
                assert health["respawns"] == executor.respawns == 0
            assert host.health() == {"started": False, "tenants": []}

        asyncio.run(_run())
