"""Network serving bench — closed-loop TCP load against the tenant tier.

Not a paper figure: this bench measures the PR-7 network tier online.  A
fixed population of closed-loop clients drives several tenants hosted in
one process through real loopback TCP connections (length-prefixed
frames, per-tenant routing), sweeping the lane count and the hedging
deadline.  The table reports sustained throughput and p50/p99 *wire*
latency per configuration — the marginal cost of the network hop over
:mod:`bench_serving`'s in-process numbers — and every answer is checked
byte-identical against its own tenant's synchronous ``cluster.answer``.

Each configuration additionally runs once with the PR-8 observability
layer attached (metrics registry + request tracer).  Those rows report
the *server-side* p50/p95/p99 straight from the
``repro_request_latency_seconds`` histogram — the registry is the
measurement, not an extra timer — and the ``obs Δ%`` column is the
throughput delta against the matching uninstrumented row, which is the
bench-verified instrumentation overhead (budget: <3%).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from _util import bench_main, emit_table, fmt

from repro.core import PegasusConfig
from repro.distributed import build_summary_cluster
from repro.experiments.common import ExperimentScale
from repro.graph import load_dataset
from repro.obs import Histogram, MetricsRegistry, ObsConfig, Tracer, samples_for
from repro.serving import QUERY_TYPES, NetClient, NetServer, TenantConfig, TenantHost


@dataclass
class NetRow:
    dataset: str
    tenants: int
    workers: int
    clients: int
    hedge_ms: "float | None"
    obs: bool
    queries: int
    throughput_qps: float
    p50_ms: float
    p99_ms: float
    srv_p50_ms: "float | None"
    srv_p95_ms: "float | None"
    srv_p99_ms: "float | None"
    obs_overhead_pct: "float | None"
    hedged: int
    verified: bool


def _server_quantiles(snapshot) -> "tuple[float, float, float] | None":
    """p50/p95/p99 (ms) merged across tenants from the obs histograms."""
    merged: "Histogram | None" = None
    for sample in samples_for(snapshot, "repro_request_latency_seconds"):
        if merged is None:
            merged = Histogram(sample["bounds"])
        merged.merge_counts(sample["counts"], sample["sum"], sample["count"])
    if merged is None or merged.count == 0:
        return None
    return tuple(1000.0 * merged.quantile(q) for q in (0.5, 0.95, 0.99))


def _build_clusters(dataset_scale: float, num_machines: int, t_max: int, tenants: int):
    dataset = load_dataset("lastfm_asia", scale=dataset_scale, seed=0)
    graph = dataset.graph
    clusters = {
        f"tenant{i}": build_summary_cluster(
            graph,
            num_machines,
            0.5 * graph.size_in_bits(),
            config=PegasusConfig(seed=i, t_max=t_max),
            seed=i,
        )
        for i in range(tenants)
    }
    return dataset.display_name, graph, clusters


def _run_closed_loop(
    graph,
    clusters,
    *,
    total_queries: int,
    clients: int,
    workers: int,
    hedge_ms: "float | None",
    obs: bool = False,
    seed: int = 0,
) -> Tuple[float, float, float, int, bool, "tuple[float, float, float] | None"]:
    rng = np.random.default_rng(seed)
    tenant_names = list(clusters)
    nodes = rng.integers(0, graph.num_nodes, size=total_queries)
    jobs = [
        (index, tenant_names[index % len(tenant_names)], int(node),
         QUERY_TYPES[index % len(QUERY_TYPES)])
        for index, node in enumerate(nodes)
    ]
    shards = [jobs[c::clients] for c in range(clients)]
    latencies: List[float] = []
    answers: Dict[int, np.ndarray] = {}

    async def _client(port: int, shard) -> None:
        # One real TCP connection per closed-loop client.
        connection = await NetClient.connect("127.0.0.1", port)
        async with connection:
            for index, tenant, node, query_type in shard:
                started = time.perf_counter()
                answers[index] = await connection.query(tenant, node, query_type)
                latencies.append(time.perf_counter() - started)

    obs_config = ObsConfig(registry=MetricsRegistry(), tracer=Tracer()) if obs else None

    async def _run() -> int:
        config = TenantConfig(hedge_ms=hedge_ms)
        async with TenantHost(workers=workers, obs=obs_config) as host:
            for name, cluster in clusters.items():
                await host.add_tenant(name, cluster, config=config)
            async with NetServer(host, obs=obs_config) as net:
                await asyncio.gather(*(_client(net.port, shard) for shard in shards))
            return sum(s["hedged"] for s in host.all_stats().values())

    started = time.perf_counter()
    hedged = asyncio.run(_run())
    elapsed = time.perf_counter() - started
    verified = all(
        answers[index].tobytes() == clusters[tenant].answer(node, query_type).tobytes()
        for index, tenant, node, query_type in jobs
    )
    p50, p99 = np.percentile(np.asarray(latencies) * 1000.0, [50, 99])
    throughput = total_queries / elapsed if elapsed > 0 else float("nan")
    server_quantiles = (
        _server_quantiles(obs_config.registry.snapshot()) if obs_config else None
    )
    return throughput, float(p50), float(p99), hedged, verified, server_quantiles


def run(
    *,
    tenants: int = 2,
    worker_counts: "tuple[int, ...]" = (1, 4),
    hedge_deadlines: "tuple[float | None, ...]" = (None, 25.0),
    clients: int = 4,
    queries_per_config: "int | None" = None,
    obs_modes: "tuple[bool, ...]" = (False, True),
) -> List[NetRow]:
    scale = ExperimentScale.from_env()
    total = queries_per_config or max(48, 12 * scale.num_queries)
    name, graph, clusters = _build_clusters(
        scale.dataset_scale, scale.num_machines, scale.t_max, tenants
    )
    rows = []
    for workers in worker_counts:
        for hedge_ms in hedge_deadlines:
            if hedge_ms is not None and workers <= 1:
                continue  # inline path has no second lane to hedge onto
            baseline_qps: "float | None" = None
            for obs in obs_modes:
                throughput, p50, p99, hedged, verified, server_q = _run_closed_loop(
                    graph,
                    clusters,
                    total_queries=total,
                    clients=clients,
                    workers=workers,
                    hedge_ms=hedge_ms,
                    obs=obs,
                )
                overhead = None
                if obs and baseline_qps and baseline_qps > 0:
                    overhead = 100.0 * (baseline_qps - throughput) / baseline_qps
                if not obs:
                    baseline_qps = throughput
                rows.append(
                    NetRow(
                        dataset=name,
                        tenants=tenants,
                        workers=workers,
                        clients=clients,
                        hedge_ms=hedge_ms,
                        obs=obs,
                        queries=total,
                        throughput_qps=throughput,
                        p50_ms=p50,
                        p99_ms=p99,
                        srv_p50_ms=server_q[0] if server_q else None,
                        srv_p95_ms=server_q[1] if server_q else None,
                        srv_p99_ms=server_q[2] if server_q else None,
                        obs_overhead_pct=overhead,
                        hedged=hedged,
                        verified=verified,
                    )
                )
    return rows


def _emit(rows: List[NetRow]) -> str:
    return emit_table(
        "net",
        "Network tier: closed-loop multi-tenant TCP throughput/latency "
        "(answers verified byte-identical to each tenant's synchronous path; "
        "obs rows report server-side quantiles from the metrics histograms "
        "and the throughput overhead vs the matching uninstrumented row)",
        ["Dataset", "Tenants", "Workers", "Clients", "Hedge(ms)", "Obs",
         "Queries", "q/s", "p50(ms)", "p99(ms)", "srv p50", "srv p95",
         "srv p99", "obs Δ%", "Hedged", "Verified"],
        [
            (
                r.dataset, r.tenants, r.workers, r.clients,
                "-" if r.hedge_ms is None else fmt(r.hedge_ms, 1),
                "on" if r.obs else "off",
                r.queries, fmt(r.throughput_qps, 1), fmt(r.p50_ms, 2),
                fmt(r.p99_ms, 2),
                "-" if r.srv_p50_ms is None else fmt(r.srv_p50_ms, 2),
                "-" if r.srv_p95_ms is None else fmt(r.srv_p95_ms, 2),
                "-" if r.srv_p99_ms is None else fmt(r.srv_p99_ms, 2),
                "-" if r.obs_overhead_pct is None else fmt(r.obs_overhead_pct, 1),
                r.hedged, r.verified,
            )
            for r in rows
        ],
    )


def test_net(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _emit(rows)
    assert all(row.verified for row in rows), "wire answers diverged from cluster.answer"
    assert all(row.throughput_qps > 0 for row in rows)
    obs_rows = [row for row in rows if row.obs]
    assert obs_rows, "every configuration should also run with observability on"
    assert all(row.srv_p99_ms is not None for row in obs_rows), (
        "obs rows must carry server-side histogram quantiles"
    )


def _run_table(args) -> None:
    kwargs = {
        "tenants": args.tenants,
        "worker_counts": tuple(int(w) for w in args.workers.split(",")),
        "hedge_deadlines": tuple(
            None if h in ("none", "-") else float(h) for h in args.hedge.split(",")
        ),
        "clients": args.clients,
    }
    if args.smoke:
        kwargs.update(worker_counts=(1,), hedge_deadlines=(None,), clients=2,
                      queries_per_config=12)
    rows = run(**kwargs)
    _emit(rows)
    if not all(row.verified for row in rows):
        raise SystemExit("wire answers diverged from the synchronous path")


def _net_arguments(parser) -> None:
    parser.add_argument("--tenants", type=int, default=2, help="tenants hosted per run")
    parser.add_argument(
        "--workers",
        default="1,4",
        help="comma-separated lane counts to sweep (1 = inline reference)",
    )
    parser.add_argument(
        "--hedge",
        default="none,25",
        help="comma-separated hedge deadlines in ms ('none' disables hedging)",
    )
    parser.add_argument("--clients", type=int, default=4, help="closed-loop TCP client count")


def main(argv: "list[str] | None" = None) -> int:
    return bench_main(
        argv,
        _run_table,
        description="Closed-loop TCP load against the multi-tenant network serving tier.",
        parser_hook=_net_arguments,
    )


if __name__ == "__main__":
    raise SystemExit(main())
