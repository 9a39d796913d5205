"""The chaos harness: injected faults vs the serving tier's guarantees.

The full matrix — workers ∈ {1, 4} × two tenants × {kill-worker,
delay-machine, drop-connection, corrupt-frame} — must leave the
serving contract intact: every reply that reaches a client is
byte-identical to the owning tenant's ``cluster.answer``, every request
resolves **exactly once** (no lost replies, no duplicates, no
cross-tenant leaks), and every tenant's ledger balances
``admitted == answered + failed + cancelled`` once the dust settles.

Worker-side faults (``kill_worker``, ``delay_machine``) are injected by
``tests/_chaos.py`` hooks named in the blueprint payload and executed
inside the real batch path; connection faults are injected client-side
through :meth:`NetClient.abort` and :meth:`NetClient.send_raw`.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core import PegasusConfig
from repro.distributed import build_summary_cluster
from repro.graph import planted_partition
from repro.serving import NetClient, NetServer, TenantConfig, TenantHost
from repro.serving.blueprint import BatchReply, BatchTask
from repro.serving.protocol import HEADER
from repro.serving.server import QueryServer, _BatchJob, _Request

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")

FAULTS = ("kill-worker", "delay-machine", "drop-connection", "corrupt-frame")
TENANTS = ("acme", "globex")
QUERIES_PER_TENANT = 8


@pytest.fixture(scope="module")
def graph():
    return planted_partition(120, 4, avg_degree_in=8.0, avg_degree_out=1.0, seed=11)


@pytest.fixture(scope="module")
def clusters(graph):
    """Two tenants with *different* summaries of the same graph, so a
    cross-tenant leak produces observably wrong bytes."""
    return {
        "acme": build_summary_cluster(
            graph, 4, 0.5 * graph.size_in_bits(), config=PegasusConfig(seed=1, t_max=8)
        ),
        "globex": build_summary_cluster(
            graph, 4, 0.5 * graph.size_in_bits(), config=PegasusConfig(seed=9, t_max=8)
        ),
    }


def _chaos_spec(fault: str, tmp_path) -> "dict | None":
    """The worker-side injection spec for a fault (None = client-side)."""
    if fault == "kill-worker":
        return {
            "hook": "_chaos:kill_worker",
            "machine": 0,
            "token": str(tmp_path / "kill.token"),
        }
    if fault == "delay-machine":
        return {
            "hook": "_chaos:delay_machine",
            "machine": 0,
            "delay_s": 0.5,
            "token": str(tmp_path / "delay.token"),
        }
    return None


async def _await_drain(host, timeout: float = 10.0) -> None:
    """Wait until every tenant's ledger has no still-pending requests."""
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        if all(
            s["admitted"] == s["answered"] + s["failed"] + s["cancelled"]
            for s in host.all_stats().values()
        ):
            return
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"ledgers never drained: {host.all_stats()}")
        await asyncio.sleep(0.02)


def _assert_balanced(host) -> None:
    for name, s in host.all_stats().items():
        assert s["admitted"] == s["answered"] + s["failed"] + s["cancelled"], (name, s)


class TestFaultMatrix:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("fault", FAULTS)
    def test_answers_stay_byte_identical_under_fault(
        self, workers, fault, clusters, tmp_path
    ):
        """The headline guarantee, per matrix cell: the observing client's
        replies are byte-identical to each tenant's own cluster, exactly
        one reply per request, ledgers balanced post-drain."""
        hedge_ms = 40.0 if fault == "delay-machine" else None
        config = TenantConfig(hedge_ms=hedge_ms, max_wait_ms=1.0)

        async def _run():
            async with TenantHost(
                workers=workers, chaos=_chaos_spec(fault, tmp_path)
            ) as host:
                for name, cluster in clusters.items():
                    await host.add_tenant(name, cluster, config=config)
                async with NetServer(host) as net:
                    observer = await NetClient.connect("127.0.0.1", net.port)
                    async with observer:
                        if fault == "drop-connection":
                            victim = await NetClient.connect("127.0.0.1", net.port)
                            doomed = [
                                asyncio.ensure_future(victim.query("globex", n, "rwr"))
                                for n in range(5)
                            ]
                            await asyncio.sleep(0.02)
                            victim.abort()
                            await asyncio.gather(*doomed, return_exceptions=True)
                        elif fault == "corrupt-frame":
                            victim = await NetClient.connect("127.0.0.1", net.port)
                            await victim.send_raw(HEADER.pack(2**31) + b"junk")
                            await asyncio.sleep(0.02)
                            await victim.close()
                            assert net.protocol_errors == 1
                        jobs = [
                            (name, node, ("rwr", "hop", "php")[node % 3])
                            for node in range(QUERIES_PER_TENANT)
                            for name in TENANTS
                        ]
                        answers = await asyncio.gather(
                            *(observer.query(*job) for job in jobs)
                        )
                        assert len(answers) == len(jobs)  # exactly one reply each
                        for (name, node, query_type), answer in zip(jobs, answers):
                            expected = clusters[name].answer(node, query_type)
                            assert answer.dtype == expected.dtype
                            assert answer.tobytes() == expected.tobytes(), (
                                fault,
                                workers,
                                name,
                                node,
                                query_type,
                            )
                        await _await_drain(host)
                        _assert_balanced(host)
                        stats = host.all_stats()
                        if fault == "kill-worker":
                            # The injected death really happened and was
                            # absorbed by a re-dispatch (pooled) or the
                            # inline retry path (workers=1).
                            assert sum(s["redispatches"] for s in stats.values()) >= 1
                        if fault == "delay-machine" and workers > 1:
                            # The stalled batch was hedged onto another
                            # lane, and the duplicate delivered first.
                            assert sum(s["hedged"] for s in stats.values()) >= 1
                            assert sum(s["hedge_wins"] for s in stats.values()) >= 1

        asyncio.run(_run())

    @pytest.mark.parametrize("rounds", [1, 3])
    def test_real_sigkill_on_a_lane_worker(self, clusters, rounds):
        """Not a simulated death: SIGKILL lane 0's actual worker process
        while a burst is in flight, *rounds* times on the one lane, and
        require the answers to keep flowing, correct.  Each death costs
        a burst at most one re-dispatch, within the default 3 attempts."""
        import signal

        cluster = clusters["acme"]
        nodes = range(12)
        assert {cluster.machine_for(n).machine_id for n in nodes} == {0}  # all on lane 0

        async def _run():
            async with TenantHost(workers=4) as host:
                await host.add_tenant("acme", cluster)
                warm = await host.submit("acme", 0, "rwr")
                assert warm.tobytes() == cluster.answer(0, "rwr").tobytes()
                for _ in range(rounds):
                    burst = [asyncio.ensure_future(host.submit("acme", n, "rwr")) for n in nodes]
                    await asyncio.sleep(0)  # every request admitted
                    os.kill(host.executor.lane_pids()[0][0], signal.SIGKILL)
                    for n, answer in zip(nodes, await asyncio.gather(*burst)):
                        assert answer.tobytes() == cluster.answer(n, "rwr").tobytes()
                assert host.all_stats()["acme"]["failed"] == 0
                assert host.executor.respawns >= rounds
                _assert_balanced(host)

        asyncio.run(_run())

    def test_a_death_mid_batch_costs_one_redispatch_and_one_fork(self, clusters, tmp_path):
        """The dying worker's EOF re-spawns its lane before the batch's
        future fails, so the re-dispatch lands on that replacement: one
        death costs one fork and one redispatch, and the answer holds."""
        cluster = clusters["acme"]
        victim_node = next(
            n for n in range(cluster.graph.num_nodes) if cluster.machine_for(n).machine_id == 0
        )

        async def _run():
            async with QueryServer(
                cluster, workers=2, max_wait_ms=0.0, chaos=_chaos_spec("kill-worker", tmp_path)
            ) as server:
                answer = await server.submit(victim_node, "rwr")
                assert answer.tobytes() == cluster.answer(victim_node, "rwr").tobytes()
                assert server.executor.respawns == 1
                assert server.stats.redispatches == 1
                assert server.stats.answered == server.stats.admitted == 1

        asyncio.run(_run())


class TestExactlyOnce:
    def test_double_completion_resolves_each_request_once(self, clusters):
        """White-box dedup pin: two copies of one batch both complete; the
        delivered gate lets exactly one resolve the requests, the ledger
        counts one answer, and no InvalidStateError escapes."""
        cluster = clusters["acme"]

        async def _run():
            async with QueryServer(cluster) as server:
                loop = asyncio.get_running_loop()
                request = _Request(0, "rwr", 0, loop.create_future())
                server._note_admitted(request)
                job = _BatchJob(
                    batch=[request],
                    task=BatchTask(0, [(0, "rwr", None)], server._blueprint.source(0)),
                )
                copies = [loop.create_future(), loop.create_future()]
                for hedged, copy in enumerate(copies):
                    server._inflight.add(copy)
                    job.pending.add(copy)
                    copy.add_done_callback(
                        lambda done, hedged=bool(hedged): server._on_batch_done(
                            done, job, hedged
                        )
                    )
                answer = cluster.answer(0, "rwr")
                copies[0].set_result(BatchReply([answer], os.getpid(), 0.0, None))
                # The loser, never seen:
                copies[1].set_result(BatchReply([answer + 1.0], os.getpid(), 0.0, None))
                await asyncio.sleep(0)
                delivered = await request.future
                assert delivered.tobytes() == answer.tobytes()
                assert server.stats.answered == 1
                assert server.stats.cancelled == 0
                assert not server._inflight

        asyncio.run(_run())

    def test_client_disconnect_mid_hedge_keeps_ledger_balanced(self, clusters, tmp_path):
        """The ledger audit the ISSUE calls out: a client that disconnects
        while BOTH copies of its hedged batch are still in flight.  The
        request must drain as exactly one ``cancelled`` — not answered,
        not double-counted — and the tenant ledger must balance."""
        cluster = clusters["acme"]
        victim_node = next(
            n for n in range(cluster.graph.num_nodes) if cluster.machine_for(n).machine_id == 0
        )
        # No fire-once token: EVERY copy of a machine-0 batch stalls, so
        # the hedge is guaranteed to still be in flight at disconnect.
        chaos = {"hook": "_chaos:delay_machine", "machine": 0, "delay_s": 0.4}

        async def _run():
            async with TenantHost(workers=4, chaos=chaos) as host:
                await host.add_tenant(
                    "acme",
                    cluster,
                    config=TenantConfig(hedge_ms=30.0, max_wait_ms=0.0),
                )
                async with NetServer(host) as net:
                    client = await NetClient.connect("127.0.0.1", net.port)
                    hanging = asyncio.ensure_future(
                        client.query("acme", victim_node, "rwr")
                    )
                    # Primary dispatched, hedge fired, both copies stalled.
                    await asyncio.sleep(0.15)
                    assert host.stats("acme").hedged == 1
                    client.abort()
                    await asyncio.gather(hanging, return_exceptions=True)
                    await _await_drain(host)
                    stats = host.stats("acme")
                    assert stats.admitted == 1
                    assert stats.cancelled == 1
                    assert stats.answered == 0 and stats.failed == 0
                await client.close()

        asyncio.run(_run())

    def test_eviction_mid_batch_ledger_balance_under_chaos(self, clusters, tmp_path):
        """Tenant eviction while a delayed batch is mid-flight: the late
        result is discarded on arrival and the final ledger balances."""
        cluster = clusters["globex"]
        victim_node = next(
            n for n in range(cluster.graph.num_nodes) if cluster.machine_for(n).machine_id == 0
        )
        chaos = {"hook": "_chaos:delay_machine", "machine": 0, "delay_s": 0.3}

        async def _run():
            async with TenantHost(workers=2, chaos=chaos) as host:
                await host.add_tenant(
                    "globex", cluster, config=TenantConfig(max_wait_ms=0.0)
                )
                hanging = asyncio.ensure_future(
                    host.submit("globex", victim_node, "rwr")
                )
                await asyncio.sleep(0.05)  # batch flushed, worker stalled
                stats = await host.evict("globex", drain=False)
                results = await asyncio.gather(hanging, return_exceptions=True)
                assert isinstance(results[0], asyncio.CancelledError)
                assert stats.admitted == 1
                assert stats.cancelled == 1
                assert stats.admitted == stats.answered + stats.failed + stats.cancelled

        asyncio.run(_run())


class TestFaultsComposeWithCorrectness:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_kill_then_keep_serving_both_tenants(self, workers, clusters, tmp_path):
        """After the injected death is absorbed, sustained traffic on both
        tenants stays correct — the lane was actually healed, not wedged."""
        spec = _chaos_spec("kill-worker", tmp_path)

        async def _run():
            async with TenantHost(workers=workers, chaos=spec) as host:
                for name, cluster in clusters.items():
                    await host.add_tenant(name, cluster)
                for wave in range(3):
                    answers = await asyncio.gather(
                        *(
                            host.submit(name, node, "hop")
                            for node in range(6)
                            for name in TENANTS
                        )
                    )
                    it = iter(answers)
                    for node in range(6):
                        for name in TENANTS:
                            expected = clusters[name].answer(node, "hop")
                            assert next(it).tobytes() == expected.tobytes(), (
                                wave,
                                name,
                                node,
                            )
                _assert_balanced(host)

        asyncio.run(_run())
