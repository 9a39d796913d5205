"""Wire-level resilience: slow-loris bounds, dead-server hangs, reconnects.

The two satellite regressions live here — (a) a trickling peer cannot
pin decoder memory or stall the accept loop, and (b) a client whose
server dies mid-request surfaces a typed error within its own deadline
instead of blocking forever — plus the ``health`` wire op and the
reconnecting :class:`ResilientClient`.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import struct
import time

import numpy as np
import pytest

from _chaos import kill_server, spawn_server, trickle_frame
from repro.errors import DeadlineExceeded, Overloaded, ProtocolError
from repro.resilience import BreakerConfig
from repro.serving import NetClient, NetServer, ResilientClient, TenantConfig, TenantHost

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


async def _serving(cluster, *, workers=1, config=None, **server_kwargs):
    host = TenantHost(workers=workers)
    await host.start()
    await host.add_tenant("acme", cluster, config=config)
    server = await NetServer(host, **server_kwargs).start()
    return host, server


class TestTrickleFrameBound:
    def test_sixteen_mib_header_trickled_gets_typed_error_close(self, cluster):
        """Satellite (a), failing-first shape: announce MAX_FRAME_BYTES,
        feed one byte at a time; the server must close *that* connection
        with a typed error while a healthy pipelined connection keeps
        answering."""

        async def _run():
            host, server = await _serving(cluster, idle_timeout_ms=200.0)
            try:
                healthy = await NetClient.connect("127.0.0.1", server.port)
                async with healthy:
                    warm = await healthy.query("acme", 0, "rwr")
                    assert warm.tobytes() == cluster.answer(0, "rwr").tobytes()

                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(struct.pack(">I", 16 * 1024 * 1024))
                    await writer.drain()
                    # Trickle one byte at a time, slower than any frame
                    # could reasonably complete but faster than a naive
                    # per-read timeout would notice.
                    for _ in range(3):
                        writer.write(b"\0")
                        await writer.drain()
                        await asyncio.sleep(0.05)
                    raw = await asyncio.wait_for(reader.read(65536), 5.0)
                    frame = json.loads(raw[4:].decode())
                    assert frame["op"] == "error"
                    assert frame["kind"] == "ProtocolError"
                    assert "stalled" in frame["message"]
                    assert frame["fatal"]
                    assert await reader.read(4096) == b""  # closed after the frame
                    writer.close()
                    await writer.wait_closed()
                    assert server.protocol_errors == 1

                    # The healthy connection never noticed.
                    again = await healthy.query("acme", 1, "hop")
                    assert again.tobytes() == cluster.answer(1, "hop").tobytes()
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())

    def test_idle_between_frames_is_never_killed(self, cluster):
        """The bound is a mid-frame stall bound, not a naive idle timeout:
        a quiescent pipelined client outlives many windows."""

        async def _run():
            host, server = await _serving(cluster, idle_timeout_ms=80.0)
            try:
                client = await NetClient.connect("127.0.0.1", server.port)
                async with client:
                    first = await client.query("acme", 0, "rwr")
                    await asyncio.sleep(0.4)  # five windows of pure idle
                    second = await client.query("acme", 0, "rwr")
                    assert first.tobytes() == second.tobytes()
                    assert server.protocol_errors == 0
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())

    def test_chaos_helper_reports_the_typed_close(self, cluster):
        async def _run():
            host, server = await _serving(cluster, idle_timeout_ms=150.0)
            try:
                outcome = await trickle_frame(server.port, dribbles=3, interval_s=0.03)
                assert outcome == "error-frame"
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())


class TestDeadlinesOverTheWire:
    def test_expired_budget_returns_typed_deadline_exceeded(self, cluster):
        async def _run():
            host, server = await _serving(cluster)
            try:
                client = await NetClient.connect("127.0.0.1", server.port)
                async with client:
                    with pytest.raises(DeadlineExceeded):
                        await client.query("acme", 0, "rwr", deadline_ms=0.000001)
                    # The connection survives the shed.
                    answer = await client.query("acme", 0, "rwr", deadline_ms=60_000.0)
                    assert answer.tobytes() == cluster.answer(0, "rwr").tobytes()
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())

    def test_server_default_tightens_client_budgets(self, cluster):
        async def _run():
            host, server = await _serving(cluster, deadline_ms=0.000001)
            try:
                client = await NetClient.connect("127.0.0.1", server.port)
                async with client:
                    with pytest.raises(DeadlineExceeded):
                        # A generous client hint cannot extend the server cap.
                        await client.query("acme", 0, "rwr", deadline_ms=60_000.0)
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())

    def test_overloaded_shed_ships_retry_after_hint(self, cluster):
        config = TenantConfig(
            deadline_ms=0.000001,
            max_wait_ms=1.0,
            breaker=BreakerConfig(window=4, min_samples=1, open_ms=60_000.0),
        )

        async def _run():
            host, server = await _serving(cluster, config=config)
            try:
                client = await NetClient.connect("127.0.0.1", server.port)
                async with client:
                    with pytest.raises(DeadlineExceeded):
                        await client.query("acme", 0, "rwr")
                    with pytest.raises(Overloaded) as info:
                        await client.query("acme", 1, "rwr")
                    assert info.value.retry_after_ms > 0  # crossed the wire
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())


class TestHealthWireOp:
    def test_health_reports_a_healed_lane_and_connections(self, cluster):
        """SIGKILL a lane worker: its lane heals without traffic, and the
        ``health`` op reports the live lanes, the new pid and one respawn."""

        async def _run():
            host, server = await _serving(cluster, workers=2)
            try:
                client = await NetClient.connect("127.0.0.1", server.port)
                async with client:
                    health = await client.health()
                    assert health["started"]
                    assert health["tenants"] == ["acme"]
                    assert health["connections"] >= 1
                    assert health["lanes"] == [True, True] and health["respawns"] == 0
                    victim = health["lane_pids"][0][0]
                    os.kill(victim, signal.SIGKILL)
                    deadline = time.monotonic() + 10.0
                    while health["respawns"] == 0 and time.monotonic() < deadline:
                        await asyncio.sleep(0.01)
                        health = await client.health()
                    assert health["respawns"] == 1
                    assert health["lanes"] == [True, True]
                    assert len(health["lane_pids"]) == 2
                    assert victim not in [pids[0] for pids in health["lane_pids"]]
                    answer = await client.query("acme", 0, "rwr")
                    assert answer.tobytes() == cluster.answer(0, "rwr").tobytes()
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())


class TestDeadServerClient:
    """Satellite (b): the server process dies between request and reply.

    Forked lane workers hold dup'd accepted-socket fds, so the client's
    connection sees *no EOF* when the serving process is SIGKILLed — the
    exact mid-frame hang ``request_timeout_ms`` exists to bound.
    """

    @pytest.fixture(scope="class")
    def dead_server_port(self):
        proc, port = spawn_server(
            [
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
                "2",
                "--queries",
                "2",
                "--no-verify",
                "--serve-forever",
            ]
        )
        yield proc, port
        if proc.poll() is None:
            kill_server(proc)

    def test_client_surfaces_typed_error_within_deadline(self, dead_server_port):
        proc, port = dead_server_port

        async def _run():
            client = await NetClient.connect(
                "127.0.0.1", port, request_timeout_ms=1000.0
            )
            async with client:
                warm = await client.query("tenant0", 0, "rwr")
                assert isinstance(warm, np.ndarray)
                kill_server(proc)
                started = time.monotonic()
                with pytest.raises((ProtocolError, ConnectionError)):
                    await client.query("tenant0", 1, "rwr")
                # Bounded by request_timeout_ms, not hung forever.
                assert time.monotonic() - started < 5.0

        asyncio.run(_run())


class TestResilientClient:
    def test_reconnects_and_resends_after_connection_loss(self, cluster):
        async def _run():
            host, server = await _serving(cluster)
            try:
                client = ResilientClient("127.0.0.1", server.port)
                async with client:
                    first = await client.query("acme", 0, "rwr")
                    assert first.tobytes() == cluster.answer(0, "rwr").tobytes()
                    client.client.abort()  # sever the TCP session under it
                    second = await client.query("acme", 1, "rwr")
                    assert second.tobytes() == cluster.answer(1, "rwr").tobytes()
                    assert client.connects >= 2
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())

    def test_connect_failure_is_typed_after_policy_exhaustion(self):
        from repro.resilience import RetryPolicy

        async def _run():
            client = ResilientClient(
                "127.0.0.1",
                1,  # nothing listens on port 1
                retry=RetryPolicy(max_attempts=2, base_ms=1.0, jitter=0.0),
            )
            with pytest.raises(ProtocolError, match="could not connect"):
                await client.query("acme", 0, "rwr")

        asyncio.run(_run())
