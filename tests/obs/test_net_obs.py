"""The wire-level observability surface: ``metrics`` op, aggregate
stats, the scrape endpoint, the slow-query log, and ``repro top``.

Everything a monitoring stack touches from outside the process:
``metrics`` frames (the JSON snapshot), the ``stats`` op with
per-tenant / all / ``"*"`` aggregate forms (including the hedging
fields), the HTTP scrape endpoint (Prometheus text), and the ``repro
top`` CLI polling a live server.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import PegasusConfig
from repro.distributed import build_summary_cluster
from repro.errors import ServingError
from repro.graph import planted_partition
from repro.obs import MetricsHTTPServer, MetricsRegistry, ObsConfig, Tracer
from repro.serving import QUERY_TYPES, NetClient, NetServer, TenantHost

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")

TENANTS = ("acme", "globex")


@pytest.fixture(scope="module")
def graph():
    return planted_partition(120, 4, avg_degree_in=8.0, avg_degree_out=1.0, seed=13)


@pytest.fixture(scope="module")
def clusters(graph):
    return {
        name: build_summary_cluster(
            graph,
            4,
            0.5 * graph.size_in_bits(),
            config=PegasusConfig(seed=i, t_max=8),
        )
        for i, name in enumerate(TENANTS)
    }


def _queries(graph, count=8, seed=3):
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, graph.num_nodes, size=count)
    return [(int(n), QUERY_TYPES[i % len(QUERY_TYPES)]) for i, n in enumerate(nodes)]


async def _drive(clusters, obs, queries, *, chaos=None, config=None):
    """Serve *queries* to every tenant over TCP; return what a client saw."""
    async with TenantHost(workers=1, chaos=chaos, obs=obs) as host:
        for name, cluster in clusters.items():
            await host.add_tenant(name, cluster, config=config)
        async with NetServer(host, obs=obs) as net:
            client = await NetClient.connect("127.0.0.1", net.port)
            async with client:
                for name in clusters:
                    for node, query_type in queries:
                        await client.query(name, node, query_type)
                return {
                    "json": await client.metrics(),
                    "per_tenant": await client.stats("acme"),
                    "all": await client.stats(),
                    "aggregate": await client.aggregate_stats(),
                }


class TestMetricsWireOp:
    @pytest.fixture(scope="class")
    def served(self, clusters, graph):
        obs = ObsConfig(registry=MetricsRegistry())
        return asyncio.run(_drive(clusters, obs, _queries(graph)))

    def test_json_snapshot_over_the_wire(self, served):
        snapshot = served["json"]
        names = {f["name"] for f in snapshot["families"]}
        assert {"repro_requests_total", "repro_request_latency_seconds"} <= names
        json.dumps(snapshot)  # round-trippable

    def test_stats_shapes_per_tenant_all_and_aggregate(self, served):
        per_tenant, all_stats, aggregate = (
            served["per_tenant"],
            served["all"],
            served["aggregate"],
        )
        assert per_tenant["answered"] == 8
        for field in ("hedged", "hedge_wins", "redispatches"):
            assert field in per_tenant, f"stats op must expose {field}"
            assert field in aggregate
        assert set(all_stats) == set(TENANTS)
        assert aggregate["tenants"] == len(TENANTS)
        assert aggregate["answered"] == sum(s["answered"] for s in all_stats.values())

    def test_metrics_off_is_a_clean_wire_error(self, clusters, graph):
        async def _run():
            async with TenantHost(workers=1) as host:  # no obs
                for name, cluster in clusters.items():
                    await host.add_tenant(name, cluster)
                async with NetServer(host) as net:
                    client = await NetClient.connect("127.0.0.1", net.port)
                    async with client:
                        with pytest.raises(ServingError, match="not enabled"):
                            await client.metrics()
                        return await client.ping()  # connection survived

        assert asyncio.run(_run())


class TestHTTPScrape:
    def test_prometheus_endpoint(self, clusters, graph):
        registry = MetricsRegistry()
        obs = ObsConfig(registry=registry)

        async def _run():
            async with TenantHost(workers=1, obs=obs) as host:
                for name, cluster in clusters.items():
                    await host.add_tenant(name, cluster)
                async with NetServer(host) as net:
                    client = await NetClient.connect("127.0.0.1", net.port)
                    async with client:
                        for name in clusters:
                            for node, query_type in _queries(graph, count=4):
                                await client.query(name, node, query_type)
                async with MetricsHTTPServer(registry) as http:
                    url = f"http://127.0.0.1:{http.port}/metrics"

                    def _get():
                        with urllib.request.urlopen(url, timeout=5) as reply:
                            return reply.status, reply.headers, reply.read().decode()

                    status, headers, text = await asyncio.to_thread(_get)
                    assert status == 200
                    assert headers["Content-Type"].startswith("text/plain")
                    assert "# TYPE repro_requests_total counter" in text
                    assert 'tenant="acme"' in text and 'tenant="globex"' in text
                    assert "repro_request_latency_seconds_bucket" in text
                    assert http.scrapes == 1

        asyncio.run(_run())

    def test_unknown_path_404(self):
        async def _run():
            async with MetricsHTTPServer(MetricsRegistry()) as http:
                def _get():
                    try:
                        urllib.request.urlopen(
                            f"http://127.0.0.1:{http.port}/nope", timeout=5
                        )
                    except urllib.error.HTTPError as error:
                        return error.code
                    return 200

                assert await asyncio.to_thread(_get) == 404

        asyncio.run(_run())


class TestSlowQueryLog:
    def test_delayed_query_emits_structured_line(self, clusters, graph, tmp_path, caplog):
        """Satellite (c): a delay-machine-chaos query crosses the
        threshold and produces one structured line with the trace id and
        the per-span breakdown; undelayed queries stay quiet."""
        tracer = Tracer(slow_ms=150.0)
        obs = ObsConfig(registry=MetricsRegistry(), tracer=tracer)
        chaos = {
            "hook": "_chaos:delay_machine",
            "delay_s": 0.4,
            "token": str(tmp_path / "delay.token"),
        }
        with caplog.at_level(logging.WARNING, logger="repro.obs.slow"):
            asyncio.run(
                _drive(clusters, obs, _queries(graph, count=6), chaos=chaos)
            )
        assert tracer.slow_queries >= 1
        lines = [
            json.loads(r.getMessage().split(" ", 1)[1])
            for r in caplog.records
            if r.name == "repro.obs.slow"
        ]
        assert lines, "the delayed query must hit the slow log"
        assert len(lines) < 12, "fast queries must not be logged"
        slow = lines[0]
        assert slow["total_ms"] >= 150.0 and slow["threshold_ms"] == 150.0
        assert len(slow["trace_id"]) == 16
        span_names = {s["name"] for s in slow["spans"]}
        assert {"queue", "dispatch", "compute"} <= span_names


class TestTopCLI:
    def _serve_in_background(self, clusters, graph):
        """A live server on a daemon thread, stoppable from the test."""
        ready = threading.Event()
        stop = threading.Event()
        info = {}

        def _thread():
            async def _serve():
                obs = ObsConfig(registry=MetricsRegistry())
                async with TenantHost(workers=1, obs=obs) as host:
                    for name, cluster in clusters.items():
                        await host.add_tenant(name, cluster)
                    async with NetServer(host, obs=obs) as net:
                        client = await NetClient.connect("127.0.0.1", net.port)
                        async with client:
                            for node, query_type in _queries(graph, count=4):
                                await client.query("acme", node, query_type)
                        info["port"] = net.port
                        ready.set()
                        while not stop.is_set():
                            await asyncio.sleep(0.02)

            asyncio.run(_serve())

        thread = threading.Thread(target=_thread, daemon=True)
        thread.start()
        assert ready.wait(timeout=60), "server thread never came up"
        return info["port"], stop, thread

    def test_top_renders_tenant_and_lane_tables(self, clusters, graph, capsys):
        from repro.cli import main

        port, stop, thread = self._serve_in_background(clusters, graph)
        try:
            code = main(["top", "--port", str(port), "--iterations", "1"])
        finally:
            stop.set()
            thread.join(timeout=30)
        assert code == 0
        out = capsys.readouterr().out
        assert "Tenant" in out and "p99 ms" in out
        assert "acme" in out and "globex" in out

    def test_top_degenerate_flags(self, capsys):
        from repro.cli import main

        assert main(["top", "--port", "1", "--interval", "0"]) == 2
        assert main(["top", "--port", "1", "--iterations", "-1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_top_unreachable_server_exits_2(self, capsys):
        from repro.cli import main

        assert main(["top", "--port", "1", "--iterations", "1"]) == 2
        assert "cannot reach" in capsys.readouterr().err
