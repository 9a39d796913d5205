"""Deadline propagation and breakers through the serving stack (in-process).

Covers the admission-to-worker pipeline: expired work is dropped before
compute and shed as typed :class:`DeadlineExceeded`, the ledger grows a
``shed`` column and still balances, retries back off per policy, and
tenant breakers shed with a retry-after hint.
"""

from __future__ import annotations

import asyncio
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import DeadlineExceeded, Overloaded, QueryError
from repro.resilience import BreakerConfig, Deadline, RetryPolicy
from repro.serving import QueryServer, TenantConfig, TenantHost

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


def _ledger_balanced(stats: dict) -> bool:
    return stats["admitted"] == (
        stats["answered"] + stats["failed"] + stats["cancelled"] + stats["shed"]
    )


class TestQueryServerDeadlines:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_expired_work_is_shed_typed_and_ledgered(self, cluster, workers):
        async def _run():
            async with QueryServer(cluster, workers=workers, max_wait_ms=1.0) as server:
                expired = Deadline.after_ms(0.000001)
                await asyncio.sleep(0.001)
                futures = [
                    server.submit_nowait(n, "rwr", deadline=expired) for n in range(4)
                ]
                results = await asyncio.gather(*futures, return_exceptions=True)
                assert all(isinstance(r, DeadlineExceeded) for r in results)
                assert server.stats.shed == 4
                assert server.outstanding == 0
                assert _ledger_balanced(server.stats.as_dict())

        asyncio.run(_run())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_generous_deadline_stays_byte_identical(self, cluster, workers):
        """Bounded deadlines ship as 3-tuple batch items — the answers must
        still match the synchronous cluster exactly, across the process
        boundary."""

        async def _run():
            async with QueryServer(cluster, workers=workers, max_wait_ms=1.0) as server:
                deadline = Deadline.after_ms(60_000.0)
                jobs = [(n, ("rwr", "hop", "php")[n % 3]) for n in range(12)]
                answers = await asyncio.gather(
                    *(server.submit(n, qt, deadline=deadline) for n, qt in jobs)
                )
                for (n, qt), answer in zip(jobs, answers):
                    assert answer.tobytes() == cluster.answer(n, qt).tobytes()
                assert server.stats.shed == 0

        asyncio.run(_run())

    def test_server_default_deadline_mints_per_request(self, cluster):
        async def _run():
            async with QueryServer(cluster, deadline_ms=0.000001, max_wait_ms=5.0) as server:
                future = server.submit_nowait(0, "rwr")
                with pytest.raises(DeadlineExceeded):
                    await future
                assert server.stats.shed == 1

        asyncio.run(_run())

    def test_mixed_batch_sheds_only_the_expired(self, cluster):
        """Nodes 0 and 1 live on machine 0, whose batches stall 50 ms in
        the worker: the 20 ms request expires there and is skipped, the
        unbounded one is answered."""
        assert cluster.machine_for(0).machine_id == cluster.machine_for(1).machine_id == 0
        chaos = {"hook": "repro.serving.blueprint:chaos_delay", "machine": 0, "delay_s": 0.05}

        async def _run():
            async with QueryServer(
                cluster, max_wait_ms=20.0, max_batch=64, chaos=chaos
            ) as server:
                doomed = server.submit_nowait(0, "rwr", deadline=Deadline.after_ms(20.0))
                healthy = server.submit_nowait(1, "rwr")
                with pytest.raises(DeadlineExceeded):
                    await doomed
                answer = await healthy
                assert answer.tobytes() == cluster.answer(1, "rwr").tobytes()
                snapshot = server.stats.as_dict()
                assert snapshot["shed"] == 1 and snapshot["answered"] == 1
                assert _ledger_balanced(snapshot)

        asyncio.run(_run())

    def test_deadline_ms_must_be_positive(self, cluster):
        with pytest.raises(Exception):
            QueryServer(cluster, deadline_ms=-5.0)


class TestRetryPolicyIntegration:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_death_is_retried_with_backoff(self, cluster, workers, tmp_path):
        chaos = {
            "hook": "_chaos:kill_worker",
            "machine": 0,
            "token": str(tmp_path / "kill.token"),
        }
        policy = RetryPolicy(max_attempts=3, base_ms=5.0, cap_ms=50.0, jitter=0.2)

        async def _run():
            async with QueryServer(
                cluster, workers=workers, max_wait_ms=1.0, retry_policy=policy, chaos=chaos
            ) as server:
                answers = await asyncio.gather(
                    *(server.submit(n, "rwr") for n in range(8))
                )
                for n, answer in enumerate(answers):
                    assert answer.tobytes() == cluster.answer(n, "rwr").tobytes()
                snapshot = server.stats.as_dict()
                assert snapshot["redispatches"] >= 1
                assert _ledger_balanced(snapshot)

        asyncio.run(_run())

    def test_exhausted_policy_fails_the_batch(self, cluster):
        # No token: the worker dies on every attempt; one total attempt
        # means the failure surfaces instead of retrying forever.
        chaos = {"hook": "_chaos:kill_worker", "machine": 0}
        policy = RetryPolicy(max_attempts=1)

        async def _run():
            async with QueryServer(
                cluster, workers=2, max_wait_ms=1.0, retry_policy=policy, chaos=chaos
            ) as server:
                results = await asyncio.gather(
                    *(server.submit(n, "rwr") for n in range(8)),
                    return_exceptions=True,
                )
                failed = [r for r in results if isinstance(r, Exception)]
                assert failed  # machine 0's batch died and was not retried
                assert all(isinstance(r, BrokenProcessPool) for r in failed)
                snapshot = server.stats.as_dict()
                assert snapshot["redispatches"] == 0
                assert snapshot["failed"] == len(failed)
                assert _ledger_balanced(snapshot)

        asyncio.run(_run())


    def test_default_policy_redispatches_twice_then_fails(self, cluster):
        """A server built without a retry policy re-sends a batch whose
        worker died at once, twice, then fails its requests."""
        chaos = {"hook": "_chaos:kill_worker", "machine": 0}
        nodes = [
            n for n in range(cluster.graph.num_nodes) if cluster.machine_for(n).machine_id == 0
        ][:4]

        async def _run():
            async with QueryServer(cluster, workers=2, max_wait_ms=1.0, chaos=chaos) as server:
                results = await asyncio.gather(
                    *(server.submit(n, "rwr") for n in nodes), return_exceptions=True
                )
                assert all(isinstance(r, BrokenProcessPool) for r in results)
                snapshot = server.stats.as_dict()
                assert snapshot["batches"] >= 1
                assert snapshot["redispatches"] == 2 * snapshot["batches"]
                assert snapshot["failed"] == len(nodes)
                assert _ledger_balanced(snapshot)

        asyncio.run(_run())


class TestTenantBreakers:
    def test_deadline_burn_opens_the_tenant_breaker(self, cluster, tmp_path):
        """A tenant whose queries keep burning their deadline budget gets
        shed at admission with a typed, hinted Overloaded."""
        config = TenantConfig(
            deadline_ms=0.000001,  # everything expires before compute
            max_wait_ms=1.0,
            breaker=BreakerConfig(window=8, min_samples=2, failure_threshold=0.5, open_ms=60_000.0),
        )

        async def _run():
            async with TenantHost(workers=1) as host:
                await host.add_tenant("acme", cluster, config=config)
                outcomes = []
                for n in range(12):
                    try:
                        await host.submit("acme", n % 4, "rwr")
                        outcomes.append("answered")
                    except DeadlineExceeded:
                        outcomes.append("shed")
                    except Overloaded as error:
                        assert error.retry_after_ms > 0
                        outcomes.append("rejected")
                assert "shed" in outcomes
                assert "rejected" in outcomes  # the breaker opened mid-run
                stats = host.all_stats()["acme"]
                assert stats["breaker_rejections"] >= 1
                assert _ledger_balanced(stats)
                snap = host.health()["tenant_breakers"]["acme"]
                assert snap["state"] == "open"

        asyncio.run(_run())

    @pytest.mark.parametrize("probe_ends_in", ["bad-node", "cancelled"])
    def test_a_probe_that_ends_otherwise_gives_its_probe_back(self, cluster, probe_ends_in):
        """A half-open probe that ends in neither an answer nor a burned
        deadline (a bad node, a cancelled client) tells nothing about the
        budget and hands its probe back: the next valid submit probes,
        answers, and closes the breaker."""
        config = TenantConfig(
            max_wait_ms=1.0, breaker=BreakerConfig(window=4, min_samples=1, open_ms=50.0)
        )

        async def _run():
            async with TenantHost(workers=1) as host:
                await host.add_tenant("acme", cluster, config=config)
                with pytest.raises(DeadlineExceeded):
                    await host.submit("acme", 0, "rwr", deadline=Deadline.after_ms(1e-6))
                assert host.health()["tenant_breakers"]["acme"]["state"] == "open"
                await asyncio.sleep(0.1)  # cooled down: half-open, one probe
                if probe_ends_in == "bad-node":
                    with pytest.raises(QueryError):
                        await host.submit("acme", 10**9, "rwr")
                else:
                    probe = asyncio.ensure_future(host.submit("acme", 0, "rwr"))
                    await asyncio.sleep(0)  # admitted, awaiting its answer
                    probe.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await probe
                for node in range(5):
                    answer = await host.submit("acme", node, "rwr")
                    assert answer.tobytes() == cluster.answer(node, "rwr").tobytes()
                snap = host.health()["tenant_breakers"]["acme"]
                assert snap["state"] == "closed" and snap["rejections"] == 0

        asyncio.run(_run())

    def test_aggregate_ledger_includes_shed(self, cluster):
        config = TenantConfig(deadline_ms=0.000001, max_wait_ms=1.0)

        async def _run():
            async with TenantHost(workers=1) as host:
                await host.add_tenant("acme", cluster, config=config)
                await host.add_tenant("globex", cluster)
                with pytest.raises(DeadlineExceeded):
                    await host.submit("acme", 0, "rwr")
                await host.submit("globex", 0, "rwr")
                aggregate = host.aggregate_stats()
                assert aggregate["shed"] == 1
                assert aggregate["answered"] == 1
                assert aggregate["admitted"] == 2

        asyncio.run(_run())

        asyncio.run(_check_no_loop_leak())


async def _check_no_loop_leak():
    # A fresh loop must start clean — nothing from the previous host leaked.
    await asyncio.sleep(0)
