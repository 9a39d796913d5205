"""Serving bench — closed-loop load generation against ``QueryServer``.

Not a paper figure: this bench measures the PR-3 serving subsystem on the
Sect. IV workload, online.  A fixed population of closed-loop clients
(each issues its next query only after receiving the previous answer)
drives the async front end; the table reports sustained throughput and
p50/p99 request latency per serving configuration, and every served
answer is checked byte-identical against the synchronous
``cluster.answer`` path.
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
from repro.serving import QUERY_TYPES, QueryServer


@dataclass
class ServingRow:
    dataset: str
    workers: int
    clients: int
    max_batch: int
    max_wait_ms: float
    queries: int
    throughput_qps: float
    p50_ms: float
    p99_ms: float
    mean_batch: float
    verified: bool


def _build_cluster(dataset_scale: float, num_machines: int, t_max: int):
    dataset = load_dataset("lastfm_asia", scale=dataset_scale, seed=0)
    graph = dataset.graph
    cluster = build_summary_cluster(
        graph,
        num_machines,
        0.5 * graph.size_in_bits(),
        config=PegasusConfig(seed=0, t_max=t_max),
        seed=0,
    )
    return dataset.display_name, cluster


def _run_closed_loop(
    cluster,
    *,
    total_queries: int,
    clients: int,
    workers: int,
    max_batch: int,
    max_wait_ms: float,
    seed: int = 0,
) -> Tuple[float, float, float, float, bool, int]:
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, cluster.graph.num_nodes, size=total_queries)
    jobs = [
        (index, int(node), QUERY_TYPES[index % len(QUERY_TYPES)])
        for index, node in enumerate(nodes)
    ]
    shards = [jobs[c::clients] for c in range(clients)]
    latencies: List[float] = []
    answers: Dict[int, np.ndarray] = {}

    async def _client(server: QueryServer, shard) -> None:
        for index, node, query_type in shard:
            started = time.perf_counter()
            answers[index] = await server.submit(node, query_type)
            latencies.append(time.perf_counter() - started)

    async def _run() -> QueryServer:
        server = QueryServer(
            cluster, workers=workers, max_batch=max_batch, max_wait_ms=max_wait_ms
        )
        async with server:
            await asyncio.gather(*(_client(server, shard) for shard in shards))
        return server

    started = time.perf_counter()
    server = asyncio.run(_run())
    elapsed = time.perf_counter() - started
    cluster.assert_communication_free()
    verified = all(
        answers[index].tobytes() == cluster.answer(node, query_type).tobytes()
        for index, node, query_type in jobs
    )
    p50, p99 = np.percentile(np.asarray(latencies) * 1000.0, [50, 99])
    throughput = total_queries / elapsed if elapsed > 0 else float("nan")
    return throughput, float(p50), float(p99), server.stats.mean_batch_size, verified, elapsed


def run(
    *,
    worker_counts: "tuple[int, ...]" = (1, 2, 4),
    clients: int = 8,
    queries_per_config: "int | None" = None,
    max_batch: int = 8,
    max_wait_ms: float = 2.0,
) -> List[ServingRow]:
    scale = ExperimentScale.from_env()
    total = queries_per_config or max(48, 12 * scale.num_queries)
    name, cluster = _build_cluster(scale.dataset_scale, scale.num_machines, scale.t_max)
    rows = []
    for workers in worker_counts:
        throughput, p50, p99, mean_batch, verified, _elapsed = _run_closed_loop(
            cluster,
            total_queries=total,
            clients=clients,
            workers=workers,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
        )
        rows.append(
            ServingRow(
                dataset=name,
                workers=workers,
                clients=clients,
                max_batch=max_batch,
                max_wait_ms=max_wait_ms,
                queries=total,
                throughput_qps=throughput,
                p50_ms=p50,
                p99_ms=p99,
                mean_batch=mean_batch,
                verified=verified,
            )
        )
    return rows


def _emit(rows: List[ServingRow]) -> str:
    return emit_table(
        "serving",
        "Serving: closed-loop async micro-batched throughput/latency "
        "(answers verified byte-identical to the synchronous path)",
        ["Dataset", "Workers", "Clients", "Batch", "Wait(ms)", "Queries",
         "q/s", "p50(ms)", "p99(ms)", "MeanBatch", "Verified"],
        [
            (
                r.dataset, r.workers, r.clients, r.max_batch, fmt(r.max_wait_ms, 1),
                r.queries, fmt(r.throughput_qps, 1), fmt(r.p50_ms, 2), fmt(r.p99_ms, 2),
                fmt(r.mean_batch, 1), r.verified,
            )
            for r in rows
        ],
    )


def test_serving(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _emit(rows)
    assert all(row.verified for row in rows), "served answers diverged from cluster.answer"
    assert all(row.throughput_qps > 0 for row in rows)


def _run_table(args) -> None:
    kwargs = {
        "worker_counts": tuple(int(w) for w in args.workers.split(",")),
        "clients": args.clients,
        "max_batch": args.max_batch,
        "max_wait_ms": args.max_wait_ms,
    }
    if args.smoke:
        kwargs.update(worker_counts=(1, 2), clients=4, queries_per_config=24)
    rows = run(**kwargs)
    _emit(rows)
    if not all(row.verified for row in rows):
        raise SystemExit("served answers diverged from the synchronous path")


def _serving_arguments(parser) -> None:
    parser.add_argument(
        "--workers",
        default="1,2,4",
        help="comma-separated serving-pool sizes to sweep (1 = inline reference)",
    )
    parser.add_argument("--clients", type=int, default=8, help="closed-loop client count")
    parser.add_argument("--max-batch", type=int, default=8, help="micro-batch size cap")
    parser.add_argument(
        "--max-wait-ms", type=float, default=2.0, help="micro-batch arrival window (ms)"
    )


def main(argv: "list[str] | None" = None) -> int:
    return bench_main(
        argv,
        _run_table,
        description="Closed-loop serving bench (throughput + latency percentiles).",
        parser_hook=_serving_arguments,
    )


if __name__ == "__main__":
    raise SystemExit(main())
