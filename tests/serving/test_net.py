"""The TCP tier: handshake, pipelining, typed errors, fault containment.

Pins the :class:`~repro.serving.net.NetServer` /
:class:`~repro.serving.net.NetClient` contract: every answer that
crosses the wire is byte-identical to the owning tenant's
``cluster.answer``; remote failures surface as the *same* typed
exception classes the in-process API raises; and a misbehaving or dying
connection is contained — it never corrupts another connection, another
tenant, or the per-tenant ledgers.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core import PegasusConfig
from repro.distributed import build_summary_cluster
from repro.errors import FrameError, ProtocolError, QueryError, ServingError, TenantError
from repro.graph import planted_partition
from repro.serving import NetClient, NetServer, ResilientClient, TenantConfig, TenantHost
from repro.serving.protocol import HEADER, PROTOCOL_VERSION, encode_frame

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


@pytest.fixture(scope="module")
def graph():
    return planted_partition(120, 4, avg_degree_in=8.0, avg_degree_out=1.0, seed=5)


@pytest.fixture(scope="module")
def clusters(graph):
    return {
        "acme": build_summary_cluster(
            graph, 4, 0.5 * graph.size_in_bits(), config=PegasusConfig(seed=1, t_max=8)
        ),
        "globex": build_summary_cluster(
            graph, 3, 0.5 * graph.size_in_bits(), config=PegasusConfig(seed=9, t_max=8)
        ),
    }


async def _serving(clusters, **host_kwargs):
    """(host, server) with every fixture tenant registered and serving."""
    host = await TenantHost(**host_kwargs).start()
    for name, cluster in clusters.items():
        await host.add_tenant(name, cluster)
    server = await NetServer(host).start()
    return host, server


class TestHandshake:
    def test_hello_lists_tenants(self, clusters):
        async def _run():
            host, server = await _serving(clusters)
            try:
                async with await NetClient.connect("127.0.0.1", server.port) as client:
                    assert client.tenants == list(clusters)
                    assert await client.ping()
                    assert await client.list_tenants() == list(clusters)
                assert server.connections_accepted == 1
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())

    def test_json_only_peer_is_served(self, clusters):
        """A hello's ``encodings`` offer is ignored: every frame is JSON."""
        async def _run():
            host, server = await _serving(clusters)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                hello = {"op": "hello", "protocol": PROTOCOL_VERSION, "encodings": ["cbor"]}
                writer.write(encode_frame(json.dumps(hello).encode()))
                await writer.drain()
                (length,) = HEADER.unpack(await reader.readexactly(HEADER.size))
                reply = json.loads(await reader.readexactly(length))
                assert reply == {
                    "op": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "tenants": list(clusters),
                }
                writer.close()
                await writer.wait_closed()
                async with await NetClient.connect("127.0.0.1", server.port) as client:
                    answer = await client.query("acme", 0, "rwr")
                    expected = clusters["acme"].answer(0, "rwr")
                    assert answer.tobytes() == expected.tobytes()
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())

    def test_non_hello_first_frame_is_rejected(self, clusters):
        async def _run():
            host, server = await _serving(clusters)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(encode_frame(b'{"op":"query","tenant":"acme","node":0}'))
                await writer.drain()
                reply = await reader.read(4096)
                assert b"error" in reply and b"hello" in reply
                assert await reader.read(4096) == b""  # server closed
                writer.close()
                await writer.wait_closed()
                assert server.protocol_errors == 1
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())


class TestQueriesOverTheWire:
    def test_pipelined_queries_byte_identical_per_tenant(self, clusters):
        async def _run():
            host, server = await _serving(clusters, workers=1)
            try:
                async with await NetClient.connect("127.0.0.1", server.port) as client:
                    jobs = [
                        (name, node, qt)
                        for node in range(10)
                        for name in clusters
                        for qt in ("rwr", "hop", "php")
                    ]
                    answers = await asyncio.gather(
                        *(client.query(*job) for job in jobs)
                    )
                    return list(zip(jobs, answers))
            finally:
                await server.stop()
                await host.close()

        for (name, node, query_type), answer in asyncio.run(_run()):
            expected = clusters[name].answer(node, query_type)
            assert answer.dtype == expected.dtype
            assert answer.tobytes() == expected.tobytes(), (name, node, query_type)

    def test_two_clients_two_tenants_no_cross_talk(self, clusters):
        async def _run():
            host, server = await _serving(clusters)
            try:
                a = await NetClient.connect("127.0.0.1", server.port)
                b = await NetClient.connect("127.0.0.1", server.port)
                async with a, b:
                    answers = await asyncio.gather(
                        *(a.query("acme", n, "rwr") for n in range(8)),
                        *(b.query("globex", n, "rwr") for n in range(8)),
                    )
                return answers
            finally:
                await server.stop()
                await host.close()

        answers = asyncio.run(_run())
        for n in range(8):
            assert answers[n].tobytes() == clusters["acme"].answer(n, "rwr").tobytes()
            assert (
                answers[8 + n].tobytes()
                == clusters["globex"].answer(n, "rwr").tobytes()
            )

    def test_remote_errors_arrive_as_local_typed_exceptions(self, clusters):
        async def _run():
            host, server = await _serving(clusters)
            try:
                async with await NetClient.connect("127.0.0.1", server.port) as client:
                    with pytest.raises(TenantError):
                        await client.query("nobody", 0, "rwr")
                    with pytest.raises(QueryError):
                        await client.query("acme", 0, "eigenvector")
                    with pytest.raises(QueryError):
                        await client.query("acme", 10**9, "rwr")
                    with pytest.raises(QueryError):
                        await client._request(
                            {"op": "query", "tenant": "acme", "node": "zero", "type": "rwr"}
                        )
                    with pytest.raises(TenantError):
                        await client.stats("nobody")
                    # The connection survives every typed error above.
                    answer = await client.query("acme", 1, "hop")
                    expected = clusters["acme"].answer(1, "hop")
                    assert answer.tobytes() == expected.tobytes()
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())

    @pytest.mark.parametrize("node", [3.7, True])
    def test_non_integral_and_boolean_nodes_rejected(self, clusters, node):
        """Both clients run the kernels' node check before sending: no
        truncation to node 3, no bool as node 1; numpy integers answer."""

        async def _run():
            host, server = await _serving(clusters)
            try:
                async with await NetClient.connect("127.0.0.1", server.port) as client:
                    with pytest.raises(QueryError):
                        await client.query("acme", node, "rwr")
                    answer = await client.query("acme", np.int64(3), "rwr")
                async with ResilientClient("127.0.0.1", server.port) as resilient:
                    with pytest.raises(QueryError):
                        await resilient.query("acme", node, "rwr")
                    assert resilient.connects == 0  # rejected before connecting
                stats = host.stats("acme").as_dict()
                return answer, stats
            finally:
                await server.stop()
                await host.close()

        answer, stats = asyncio.run(_run())
        assert answer.tobytes() == clusters["acme"].answer(3, "rwr").tobytes()
        assert stats["admitted"] == 1  # only the numpy-integer query

    def test_stats_over_the_wire(self, clusters):
        async def _run():
            host, server = await _serving(clusters)
            try:
                async with await NetClient.connect("127.0.0.1", server.port) as client:
                    await client.query("acme", 0, "rwr")
                    one = await client.stats("acme")
                    assert one["admitted"] == 1 and one["answered"] == 1
                    every = await client.stats()
                    assert set(every) == set(clusters)
                    assert every["globex"]["admitted"] == 0
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())

    def test_ping_and_tenant_directory_over_the_wire(self, clusters):
        async def _run():
            host, server = await _serving(clusters)
            try:
                async with await NetClient.connect("127.0.0.1", server.port) as client:
                    await client.ping()
                    listed = await client.list_tenants()
                    assert sorted(listed) == sorted(clusters)
                    # The hello already carried the same directory.
                    assert sorted(client.tenants) == sorted(clusters)
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())

    def test_directory_tracks_eviction_live(self, clusters):
        async def _run():
            host, server = await _serving(clusters)
            try:
                async with await NetClient.connect("127.0.0.1", server.port) as client:
                    await host.evict("globex")
                    assert await client.list_tenants() == ["acme"]
                    with pytest.raises(TenantError):
                        await client.query("globex", 0, "rwr")
                    # The surviving tenant still answers byte-identically.
                    answer = await client.query("acme", 0, "rwr")
                    expected = clusters["acme"].answer(0, "rwr")
                    assert answer.tobytes() == expected.tobytes()
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())


class TestFaultContainment:
    def test_corrupt_frame_gets_typed_error_and_only_kills_that_connection(
        self, clusters
    ):
        async def _run():
            host, server = await _serving(clusters)
            try:
                bad = await NetClient.connect("127.0.0.1", server.port)
                good = await NetClient.connect("127.0.0.1", server.port)
                async with good:
                    # An impossible header: announces a frame far beyond
                    # the cap.  The server answers with a fatal typed
                    # error frame and closes only this connection.
                    await bad.send_raw(HEADER.pack(2**31))
                    with pytest.raises((FrameError, ProtocolError)):
                        await bad.query("acme", 0, "rwr")
                    await bad.close()
                    assert server.protocol_errors == 1
                    answer = await good.query("acme", 0, "rwr")
                    expected = clusters["acme"].answer(0, "rwr")
                    assert answer.tobytes() == expected.tobytes()
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())

    def test_undecodable_payload_is_a_codec_error_not_a_crash(self, clusters):
        async def _run():
            host, server = await _serving(clusters)
            try:
                bad = await NetClient.connect("127.0.0.1", server.port)
                await bad.send_raw(encode_frame(b"\xff\xfe not json at all"))
                with pytest.raises(ProtocolError):
                    await bad.query("acme", 0, "rwr")
                await bad.close()
                assert server.protocol_errors == 1
                assert server.serving
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())

    def test_client_disconnect_cancels_only_its_requests(self, clusters, tmp_path):
        """Dropping a connection mid-flight: the dead client's admitted
        requests drain as ``cancelled`` (ledger stays balanced), and a
        concurrent client on the same tenant is untouched."""
        acme = clusters["acme"]
        doomed_nodes = [
            n for n in range(acme.graph.num_nodes) if acme.machine_for(n).machine_id == 0
        ][:5]
        # The first machine-0 batch stalls in its lane worker (fire-once),
        # so every doomed request is still pending when the connection dies.
        chaos = {
            "hook": "_chaos:delay_machine",
            "machine": 0,
            "delay_s": 0.5,
            "token": str(tmp_path / "delay.token"),
        }

        async def _run():
            host, server = await _serving(clusters, workers=2, chaos=chaos)
            # Long cap so the doomed requests behind the busy lane stay
            # parked in the batcher.
            await host.evict("acme", drain=True)
            await host.add_tenant("acme", acme, config=TenantConfig(max_wait_ms=60_000.0))
            try:
                doomed = await NetClient.connect("127.0.0.1", server.port)
                survivor = await NetClient.connect("127.0.0.1", server.port)
                async with survivor:
                    hanging = [asyncio.ensure_future(doomed.query("acme", doomed_nodes[0], "rwr"))]
                    await asyncio.sleep(0.05)  # flushed to the idle lane, stalled there
                    hanging += [
                        asyncio.ensure_future(doomed.query("acme", n, "rwr"))
                        for n in doomed_nodes[1:]
                    ]
                    await asyncio.sleep(0.05)  # admitted server-side
                    doomed.abort()
                    await asyncio.gather(*hanging, return_exceptions=True)
                    answer = await survivor.query("acme", 7, "rwr")
                    assert answer.tobytes() == acme.answer(7, "rwr").tobytes()
                    # Give the server's batcher time to drain the
                    # cancelled requests through a flush.
                    for _ in range(100):
                        stats = host.stats("acme")
                        done = stats.answered + stats.failed + stats.cancelled
                        if done == stats.admitted:
                            break
                        await asyncio.sleep(0.05)
                    stats = host.stats("acme")
                    assert stats.admitted == stats.answered + stats.failed + stats.cancelled
                    assert stats.cancelled == 5
                    assert stats.answered == 1
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())

    def test_server_stop_fails_outstanding_client_requests(self, clusters):
        async def _run():
            host, server = await _serving(clusters)
            client = await NetClient.connect("127.0.0.1", server.port)
            await server.stop()
            with pytest.raises((ProtocolError, ServingError, ConnectionError, OSError)):
                await client.query("acme", 0, "rwr")
            await client.close()
            await host.close()

        asyncio.run(_run())


class TestLifecycle:
    def test_port_requires_listening_and_double_start_raises(self, clusters):
        async def _run():
            host = await TenantHost().start()
            await host.add_tenant("acme", clusters["acme"])
            server = NetServer(host)
            with pytest.raises(ServingError):
                server.port
            await server.start()
            with pytest.raises(ServingError):
                await server.start()
            assert server.port > 0
            await server.stop()
            await server.stop()  # idempotent
            await host.close()

        asyncio.run(_run())

    def test_server_requires_started_host(self, clusters):
        async def _run():
            host = TenantHost()
            with pytest.raises(ServingError):
                await NetServer(host).start()

        asyncio.run(_run())

    def test_client_is_unusable_after_close(self, clusters):
        async def _run():
            host, server = await _serving(clusters)
            try:
                client = await NetClient.connect("127.0.0.1", server.port)
                await client.close()
                await client.close()  # idempotent
                with pytest.raises(ServingError):
                    await client.ping()
            finally:
                await server.stop()
                await host.close()

        asyncio.run(_run())
