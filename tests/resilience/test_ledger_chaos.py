"""Satellite (c): the extended ledger under the chaos matrix.

``admitted == answered + failed + cancelled + shed + pending`` — pinned
*mid-chaos* (while batches are in flight and faults are firing) and
*post-drain* (pending back to zero) across workers {1, 4} × {slow-lane,
kill-server, trickle-frame}, with every answered query byte-identical
to the owning tenant's cluster.

Slow-lane and trickle-frame run in-process (exact pending via each
tenant server's ``outstanding``); kill-server SIGKILLs a real serving
subprocess and pins the surviving ledgers over the wire before and
after a crash-restart from ``--state-dir``.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from _chaos import child_pids, kill_server, spawn_server, surviving, trickle_frame
from repro.core import PegasusConfig
from repro.distributed import build_summary_cluster
from repro.serving import NetClient, NetServer, ResilientClient, TenantConfig, TenantHost

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")

TENANTS = ("acme", "globex")
QUERIES_PER_TENANT = 10


@pytest.fixture(scope="module")
def clusters(graph):
    return {
        "acme": build_summary_cluster(
            graph, 4, 0.5 * graph.size_in_bits(), config=PegasusConfig(seed=1, t_max=8)
        ),
        "globex": build_summary_cluster(
            graph, 4, 0.5 * graph.size_in_bits(), config=PegasusConfig(seed=9, t_max=8)
        ),
    }


def _pin_exact(host) -> None:
    """The in-process ledger, with exact pending from each tenant server."""
    for name, stats in host.all_stats().items():
        pending = host._tenants[name].server.outstanding
        resolved = stats["answered"] + stats["failed"] + stats["cancelled"] + stats["shed"]
        assert stats["admitted"] == resolved + pending, (name, stats, pending)


def _pin_wire(all_stats: dict) -> None:
    """The over-the-wire ledger: resolved never exceeds admitted, and
    admitted never exceeds resolved + inflight (no lost requests)."""
    for name, stats in all_stats.items():
        resolved = stats["answered"] + stats["failed"] + stats["cancelled"] + stats["shed"]
        assert resolved <= stats["admitted"] <= resolved + stats["inflight"], (name, stats)


def _assert_drained(host) -> None:
    for name, stats in host.all_stats().items():
        assert host._tenants[name].server.outstanding == 0, (name, stats)
    _pin_exact(host)


class TestInProcessMatrix:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("fault", ["slow-lane", "trickle-frame"])
    def test_ledger_balances_mid_chaos_and_post_drain(
        self, workers, fault, clusters, tmp_path
    ):
        chaos = None
        if fault == "slow-lane":
            chaos = {"hook": "_chaos:slow_lane", "machine": 0, "delay_s": 0.03}
        config = TenantConfig(max_wait_ms=1.0, hedge_ms=20.0 if fault == "slow-lane" else None)

        async def _run():
            async with TenantHost(workers=workers, chaos=chaos) as host:
                for name, cluster in clusters.items():
                    await host.add_tenant(name, cluster, config=config)
                async with NetServer(
                    host, idle_timeout_ms=120.0 if fault == "trickle-frame" else None
                ) as net:
                    client = await NetClient.connect("127.0.0.1", net.port)
                    async with client:
                        jobs = [
                            (name, node, ("rwr", "hop", "php")[node % 3])
                            for node in range(QUERIES_PER_TENANT)
                            for name in TENANTS
                        ]
                        inflight = [
                            asyncio.ensure_future(client.query(*job)) for job in jobs
                        ]
                        trickler = None
                        if fault == "trickle-frame":
                            trickler = asyncio.ensure_future(
                                trickle_frame(net.port, dribbles=3, interval_s=0.03)
                            )
                        await asyncio.sleep(0.01)
                        _pin_exact(host)  # mid-chaos: work is in flight
                        answers = await asyncio.gather(*inflight)
                        if trickler is not None:
                            assert await trickler == "error-frame"
                            assert net.protocol_errors == 1
                        for (name, node, query_type), answer in zip(jobs, answers):
                            expected = clusters[name].answer(node, query_type)
                            assert answer.tobytes() == expected.tobytes(), (
                                fault,
                                workers,
                                name,
                                node,
                            )
                        _assert_drained(host)
                        if fault == "slow-lane" and workers > 1:
                            stats = host.all_stats()
                            assert sum(s["hedged"] for s in stats.values()) >= 1

        asyncio.run(_run())


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestKillServer:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_ledger_pins_across_a_crash_restart(self, workers, tmp_path):
        port = _free_port()
        state_dir = str(tmp_path / "state")
        argv = [
            "-m",
            "repro.cli",
            "serve-net",
            "--dataset",
            "synthetic_ba",
            "--scale",
            "0.1",
            "--tenants",
            "1",
            "--machines",
            "2",
            "--workers",
            str(workers),
            "--queries",
            "2",
            "--no-verify",
            "--serve-forever",
            "--state-dir",
            state_dir,
            "--port",
            str(port),
        ]
        proc, seen_port = spawn_server(argv)
        assert seen_port == port
        try:
            asyncio.run(self._drive(proc, port, state_dir, argv, workers))
        finally:
            if proc.poll() is None:
                kill_server(proc)

    @staticmethod
    def _kill_and_reap(proc, workers: int) -> None:
        """SIGKILL the server; none of its lane workers may outlive it."""
        lanes = child_pids(proc)
        assert lanes or workers == 1, "pooled server has no lane workers to check"
        kill_server(proc)
        assert surviving(lanes) == [], "lane workers outlived their SIGKILLed server"

    async def _drive(self, proc, port: int, state_dir: str, argv, workers: int) -> None:
        from repro.resilience import recover_host

        client = await ResilientClient.connect(
            "127.0.0.1", port, request_timeout_ms=1500.0
        )
        async with client:
            inflight = [
                asyncio.ensure_future(client.query("tenant0", n, "rwr"))
                for n in range(6)
            ]
            _pin_wire(await client.stats())  # mid-load, pre-crash
            await asyncio.gather(*inflight)
            self._kill_and_reap(proc, workers)

            # Restart from the durable state dir on the same port; the
            # resilient client reconnects and keeps getting byte-identical
            # answers from the *recovered* tenant state.
            restarted, seen_port = spawn_server(argv)
            assert seen_port == port
            try:
                recovered = recover_host(state_dir)["tenant0"].cluster
                for node in range(8):
                    answer = await client.query("tenant0", node, "rwr")
                    assert answer.tobytes() == recovered.answer(node, "rwr").tobytes()
                stats = await client.stats()
                _pin_wire(stats)  # post-restart, mid-load
                assert stats["tenant0"]["answered"] >= 8
                assert client.connects >= 2  # the crash really severed us
            finally:
                self._kill_and_reap(restarted, workers)
