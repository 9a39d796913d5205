"""Command-line interface: ``repro-pegasus`` (or ``python -m repro``).

Subcommands
-----------

``datasets``
    Print Table II for the synthetic stand-ins.
``summarize``
    Summarize a dataset or edge-list file with PeGaSus (or SSumM) and
    optionally save the summary graph.
``query``
    Answer an RWR / HOP / PHP query from a graph and (optionally) compare
    it against the answer from a personalized summary.
``experiment``
    Run one of the paper's experiments and print its rows.
``serve``
    Build a simulated cluster and serve a stream of concurrent queries
    through the async micro-batching front end, reporting throughput,
    latency percentiles, and (by default) byte-identical verification
    against the synchronous answering path.
``serve-net``
    Host several tenant clusters in one process behind the TCP serving
    tier (length-prefixed frames, per-tenant routing and quotas), drive
    a demo load over loopback — optionally while SIGKILLing a lane
    worker — and verify every tenant's answers stay byte-identical.
``net-client``
    Connect to a running ``serve-net`` listener and fire a one-shot
    query, read ``tenant node qtype`` lines from stdin, or print every
    tenant's serving ledger.
``top``
    Poll a running ``serve-net`` listener's ``stats`` and ``metrics``
    wire ops and render live per-tenant and per-lane tables (request
    counters, histogram-derived p50/p99, worker compute times).
``stream``
    Hold out a fraction of a dataset's edges, stream them back in
    micro-batches through the online re-summarization layer while
    serving queries between batches, and (by default) verify that the
    final refreshed cluster is byte-identical to a from-scratch build on
    the materialized graph.
``convert``
    Translate a summary graph (or an edge list) between the v1 text
    format and the checksummed binary store format, with an optional
    post-write ``--verify`` round trip.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Sequence

import numpy as np

from repro._util import format_table
from repro.baselines import ssumm_summarize
from repro.core import PegasusConfig, summarize
from repro.core.summary_io import save_summary
from repro.distributed.cluster import QUERY_TYPES, answer_query
from repro.errors import ReproError
from repro.eval import smape, spearman_correlation
from repro.graph import dataset_names, load_dataset, read_edgelist, table2_rows


def _load_graph(args) -> "tuple":
    if args.input:
        graph, labels = read_edgelist(args.input)
        return graph, f"file:{args.input}"
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    return dataset.graph, dataset.display_name


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--input", help="edge-list file to summarize")
    source.add_argument(
        "--dataset",
        choices=dataset_names(),
        default="lastfm_asia",
        help="synthetic stand-in dataset (default: lastfm_asia)",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")
    parser.add_argument("--seed", type=int, default=0, help="random seed")


def _cmd_datasets(args) -> int:
    rows = table2_rows(scale=args.scale, seed=args.seed)
    print(format_table(["Name", "# Nodes", "# Edges", "Summary"], rows))
    return 0


def _cmd_summarize(args) -> int:
    try:
        targets = [int(t) for t in args.targets.split(",")] if args.targets else None
    except ValueError:
        print(
            f"error: --targets must be comma-separated node ids, got {args.targets!r}",
            file=sys.stderr,
        )
        return 2
    try:
        # Checks the flags for either method (SSumM then fixes alpha and
        # the threshold schedule itself).
        config = PegasusConfig(alpha=args.alpha, beta=args.beta, t_max=args.t_max, seed=args.seed)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    graph, name = _load_graph(args)
    try:
        if args.method == "ssumm":
            result = ssumm_summarize(
                graph, compression_ratio=args.ratio, t_max=args.t_max, seed=args.seed
            )
        else:
            result = summarize(graph, targets=targets, compression_ratio=args.ratio, config=config)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    summary = result.summary
    print(f"graph           {name}: |V|={graph.num_nodes}, |E|={graph.num_edges}")
    print(f"summary         |S|={summary.num_supernodes}, |P|={summary.num_superedges}")
    print(f"size            {summary.size_in_bits():.0f} bits (ratio {summary.compression_ratio():.3f})")
    print(f"budget met      {result.budget_met}")
    print(f"iterations      {result.iterations}, merges {result.total_merges}")
    print(f"elapsed         {result.elapsed_seconds:.2f}s")
    if args.output:
        save_summary(summary, args.output)
        print(f"saved           {args.output}")
    return 0


def _cmd_query(args) -> int:
    try:
        config = PegasusConfig(alpha=args.alpha, seed=args.seed)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    graph, name = _load_graph(args)
    node = args.node
    if not 0 <= node < graph.num_nodes:
        print(f"error: node {node} out of range for {name}", file=sys.stderr)
        return 2

    exact = answer_query(graph, node, args.type)
    top = np.argsort(exact)[::-1][: args.top]
    rows: List[Sequence[object]] = [(int(u), f"{exact[u]:.6f}") for u in top]
    headers = ["Node", f"{args.type.upper()} (exact)"]
    if args.compare_summary:
        try:
            result = summarize(graph, targets=[node], compression_ratio=args.ratio, config=config)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        approx = answer_query(result.summary, node, args.type)
        rows = [(int(u), f"{exact[u]:.6f}", f"{approx[u]:.6f}") for u in top]
        headers.append(f"{args.type.upper()} (summary @ {result.summary.compression_ratio():.2f})")
        print(
            f"summary answer quality: SMAPE={smape(exact, approx):.4f}, "
            f"Spearman={spearman_correlation(exact, approx):.4f}"
        )
    print(format_table(headers, rows))
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments import (  # imported lazily: heavy modules
        ablations,
        fig5_effectiveness,
        fig6_scalability,
        fig7_accuracy,
        fig8_runtime,
        fig9_alpha,
        fig10_diameter,
        fig11_beta,
        fig12_distributed,
    )

    runners = {
        "fig5": fig5_effectiveness.run,
        "fig6": fig6_scalability.run,
        "fig7": fig7_accuracy.run,
        "fig8": fig8_runtime.run,
        "fig9": fig9_alpha.run,
        "fig10": fig10_diameter.run,
        "fig11": fig11_beta.run,
        "fig12": fig12_distributed.run,
        "ablation-cost": ablations.run_cost_criterion,
        "ablation-threshold": ablations.run_threshold_schedule,
    }
    # Experiments whose sweep points fan out over the worker pool.
    parallel_runners = {"fig5", "fig6", "fig8", "fig9", "fig11", "fig12"}
    kwargs = {}
    if args.name in parallel_runners:
        # Only override when the flag was given, so the REPRO_WORKERS
        # environment default (read by ExperimentScale) stays live.
        if args.workers is not None:
            kwargs["workers"] = args.workers
    elif args.workers not in (None, 1):
        print(f"note: {args.name} runs sequentially; --workers ignored", file=sys.stderr)
    rows = runners[args.name](**kwargs)
    if not rows:
        print("no rows produced")
        return 1
    headers = list(vars(rows[0]).keys())
    table_rows = [
        [f"{v:.4f}" if isinstance(v, float) else v for v in vars(row).values()] for row in rows
    ]
    print(format_table(headers, table_rows))
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import time

    from repro.distributed import build_subgraph_cluster, build_summary_cluster
    from repro.serving import QUERY_TYPES, QueryServer

    if args.queries < 1:
        print(f"error: --queries must be >= 1, got {args.queries}", file=sys.stderr)
        return 2
    query_types = [q.strip() for q in args.types.split(",") if q.strip()]
    unknown = [q for q in query_types if q not in QUERY_TYPES]
    if not query_types or unknown:
        print(
            f"error: --types must name at least one of {', '.join(QUERY_TYPES)}"
            + (f" (unknown: {', '.join(unknown)})" if unknown else ""),
            file=sys.stderr,
        )
        return 2

    graph, name = _load_graph(args)
    budget = args.ratio * graph.size_in_bits()
    if args.source == "subgraph":
        cluster = build_subgraph_cluster(graph, args.machines, budget, seed=args.seed)
    else:
        config = PegasusConfig(seed=args.seed)
        cluster = build_summary_cluster(
            graph, args.machines, budget, config=config, seed=args.seed
        )

    rng = np.random.default_rng(args.seed)
    nodes = rng.integers(0, graph.num_nodes, size=args.queries)
    stream = [(int(node), query_types[i % len(query_types)]) for i, node in enumerate(nodes)]

    latencies: List[float] = []
    answers: List[np.ndarray] = [None] * len(stream)

    async def _client(server, index: int, node: int, query_type: str) -> None:
        started = time.perf_counter()
        answers[index] = await server.submit(node, query_type)
        latencies.append(time.perf_counter() - started)

    async def _run() -> "QueryServer":
        server = QueryServer(
            cluster,
            workers=args.workers,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_pending=args.max_pending,
        )
        async with server:
            await asyncio.gather(
                *(_client(server, i, node, qt) for i, (node, qt) in enumerate(stream))
            )
        return server

    started = time.perf_counter()
    server = asyncio.run(_run())
    elapsed = time.perf_counter() - started
    cluster.assert_communication_free()

    stats = server.stats
    p50, p99 = np.percentile(np.asarray(latencies) * 1000.0, [50, 99])
    print(f"cluster         {name}: m={args.machines}, budget {args.ratio:.2f} * Size(G), source={args.source}")
    print(
        f"serving         workers={args.workers}, max_batch={args.max_batch}, "
        f"max_wait={args.max_wait_ms:.1f}ms"
    )
    print(f"queries         {stats.answered} answered in {elapsed:.2f}s ({stats.answered / elapsed:.1f} q/s)")
    print(f"batches         {stats.batches} (mean {stats.mean_batch_size:.1f} queries/batch, max {stats.max_batch_size})")
    print(f"latency         p50 {p50:.1f}ms, p99 {p99:.1f}ms")
    if args.no_verify:
        return 0
    mismatches = sum(
        1
        for (node, qt), answer in zip(stream, answers)
        if answer is None or answer.tobytes() != cluster.answer(node, qt).tobytes()
    )
    print(f"verified        {len(stream) - mismatches}/{len(stream)} answers byte-identical to the synchronous path")
    if mismatches:
        print(f"error: {mismatches} served answer(s) diverged", file=sys.stderr)
        return 1
    return 0


def _cmd_serve_net(args) -> int:
    import asyncio
    import logging
    import os
    import signal
    import time

    from repro.distributed import build_summary_cluster
    from repro.errors import DeadlineExceeded, Overloaded
    from repro.obs import MetricsHTTPServer, MetricsRegistry, ObsConfig, Tracer, slow_log
    from repro.resilience import HostState, RetryPolicy, recover_host
    from repro.serving import (
        QUERY_TYPES,
        NetClient,
        NetServer,
        TenantConfig,
        TenantHost,
    )

    if args.tenants < 1:
        print(f"error: --tenants must be >= 1, got {args.tenants}", file=sys.stderr)
        return 2
    if args.queries < 1:
        print(f"error: --queries must be >= 1, got {args.queries}", file=sys.stderr)
        return 2
    chaos = None
    if args.chaos == "kill-worker" and args.workers <= 1:
        print("error: --chaos kill-worker needs --workers > 1", file=sys.stderr)
        return 2
    if args.chaos == "slow-lane":
        # Worker-side stall on machine 0's lane: the hedge/deadline
        # machinery must keep answers flowing and ledgers balanced.
        chaos = {
            "hook": "repro.serving.blueprint:chaos_delay",
            "machine": 0,
            "delay_s": 0.05,
        }
    try:
        retry_policy = RetryPolicy.parse(args.retry_policy)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    recovered = None
    try:
        state = None if args.state_dir is None else HostState(args.state_dir)
        if state is not None and state.exists and state.tenants:
            # A previous server durably saved its tenants here: recover
            # and serve them instead of rebuilding — answers must
            # byte-match the recovered clusters.
            recovered = recover_host(args.state_dir)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if recovered is not None:
        clusters = {tenant: r.cluster for tenant, r in recovered.items()}
        name = f"recovered from {args.state_dir}"
        for tenant, r in recovered.items():
            suffix = "" if r.generation is None else f" (delta generation {r.generation})"
            print(f"recovered       {tenant}{suffix}")
        num_nodes = next(iter(clusters.values())).graph.num_nodes
    else:
        graph, name = _load_graph(args)
        budget = args.ratio * graph.size_in_bits()
        # Same dataset, per-tenant seeds: each tenant serves a *different*
        # summary, so the verification below also detects cross-tenant mixups.
        clusters = {
            f"tenant{i}": build_summary_cluster(
                graph,
                args.machines,
                budget,
                config=PegasusConfig(seed=args.seed + i),
                seed=args.seed + i,
            )
            for i in range(args.tenants)
        }
        num_nodes = graph.num_nodes
        if state is not None:
            for tenant, cluster in clusters.items():
                state.save_static_tenant(tenant, cluster)
            print(f"state           saved {len(clusters)} tenant(s) to {args.state_dir}")
    rng = np.random.default_rng(args.seed)
    nodes = rng.integers(0, num_nodes, size=args.queries)
    stream = [
        (tenant, int(node), QUERY_TYPES[i % len(QUERY_TYPES)])
        for i, node in enumerate(nodes)
        for tenant in clusters
    ]

    config = TenantConfig(
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        hedge_ms=args.hedge_ms,
        retry_policy=retry_policy,
    )

    # Observability: metrics are always on for this command (the
    # ``metrics`` wire op and ``repro top`` rely on them); tracing — and
    # its slow-query log — only when a sink or threshold asks for it.
    registry = MetricsRegistry()
    tracer = None
    trace_path = None
    if args.trace_dir is not None:
        os.makedirs(args.trace_dir, exist_ok=True)
        trace_path = os.path.join(args.trace_dir, f"spans-{os.getpid()}.jsonl")
    if args.trace_dir is not None or args.slow_ms is not None:
        tracer = Tracer(sink_path=trace_path, slow_ms=args.slow_ms)
        if args.slow_ms is not None and not slow_log.handlers:
            handler = logging.StreamHandler(sys.stderr)
            handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
            slow_log.addHandler(handler)
            slow_log.setLevel(logging.WARNING)
    obs = ObsConfig(registry=registry, tracer=tracer)

    latencies: List[float] = []
    answers: List[np.ndarray] = [None] * len(stream)

    async def _fire(client, index: int, tenant: str, node: int, query_type: str) -> None:
        started = time.perf_counter()
        try:
            answers[index] = await client.query(tenant, node, query_type)
        except (DeadlineExceeded, Overloaded):
            # Typed shed under --deadline-ms / breaker pressure: the ledger
            # accounts for it; the demo load just moves on.
            return
        latencies.append(time.perf_counter() - started)

    async def _serve_metrics():
        if args.metrics_port is None:
            return None
        http = await MetricsHTTPServer(registry, port=args.metrics_port).start()
        print(f"metrics         http://127.0.0.1:{http.port}/metrics")
        return http

    async def _run():
        async with TenantHost(workers=args.workers, chaos=chaos, obs=obs) as host:
            for tenant, cluster in clusters.items():
                await host.add_tenant(tenant, cluster, config=config)
            metrics_http = await _serve_metrics()
            async with NetServer(
                host,
                port=args.port,
                deadline_ms=args.deadline_ms,
                idle_timeout_ms=args.idle_timeout_ms,
                obs=obs,
            ) as net:
                print(f"listening       127.0.0.1:{net.port} ({len(clusters)} tenants)")
                client = await NetClient.connect("127.0.0.1", net.port)
                async with client:
                    midpoint = len(stream) // 2
                    first = asyncio.gather(
                        *(_fire(client, i, *q) for i, q in enumerate(stream[:midpoint]))
                    )
                    if args.chaos == "kill-worker":
                        # Kill a real lane worker mid-stream; the failover
                        # layer must absorb it without a wrong answer.
                        await asyncio.sleep(0.01)
                        pids = [p for lane in host.executor.lane_pids() for p in lane]
                        if pids:
                            os.kill(pids[0], signal.SIGKILL)
                            print(f"chaos           SIGKILL worker pid={pids[0]}")
                    elif args.chaos == "trickle-frame":
                        # Hostile peer mid-stream: announce a 16 MiB
                        # frame, then trickle single bytes.  The stall
                        # bound must close only that connection — with a
                        # typed error frame — while the real stream keeps
                        # answering.
                        import struct as _struct

                        t_reader, t_writer = await asyncio.open_connection(
                            "127.0.0.1", net.port
                        )
                        t_writer.write(_struct.pack(">I", 16 * 1024 * 1024))
                        await t_writer.drain()
                        closed = "no reply"
                        try:
                            for _ in range(5):
                                t_writer.write(b"\0")
                                await t_writer.drain()
                                await asyncio.sleep(0.05)
                            reply = await asyncio.wait_for(
                                t_reader.read(65536),
                                args.idle_timeout_ms / 1000.0 + 2.0,
                            )
                            closed = "typed error frame" if reply else "bare close"
                        except (ConnectionError, OSError, asyncio.TimeoutError):
                            closed = "connection reset"
                        t_writer.close()
                        print(f"chaos           trickle-frame closed ({closed})")
                    await first
                    await asyncio.gather(
                        *(
                            _fire(client, midpoint + i, *q)
                            for i, q in enumerate(stream[midpoint:])
                        )
                    )
                    stats = await client.stats()
                if args.serve_forever:
                    print("serving forever (ctrl-c to stop)")
                    await asyncio.Event().wait()
                if metrics_http is not None:
                    await metrics_http.stop()
                return stats, host.executor.respawns

    started = time.perf_counter()
    try:
        all_stats, respawns = asyncio.run(_run())
    finally:
        if tracer is not None:
            tracer.close()
    elapsed = time.perf_counter() - started

    total_answered = sum(s["answered"] for s in all_stats.values())
    redispatches = sum(s["redispatches"] for s in all_stats.values())
    hedged = sum(s["hedged"] for s in all_stats.values())
    total_shed = sum(s.get("shed", 0) for s in all_stats.values())
    if latencies:
        p50, p99 = np.percentile(np.asarray(latencies) * 1000.0, [50, 99])
    else:
        p50 = p99 = float("nan")
    print(f"cluster         {name}: m={args.machines} per tenant, budget {args.ratio:.2f} * Size(G)")
    print(
        f"serving         tenants={len(clusters)}, workers={args.workers}, "
        f"hedge={'off' if args.hedge_ms is None else f'{args.hedge_ms:g}ms'}, "
        f"chaos={args.chaos or 'none'}"
    )
    print(f"queries         {total_answered} answered in {elapsed:.2f}s ({total_answered / elapsed:.1f} q/s)")
    print(
        f"resilience      redispatches={redispatches}, hedged={hedged}, shed={total_shed}, "
        f"respawns={respawns}"
    )
    print(f"latency         p50 {p50:.1f}ms, p99 {p99:.1f}ms")
    from repro.obs import quantile_from_sample, samples_for

    server_lat = samples_for(registry.snapshot(), "repro_request_latency_seconds")
    if server_lat:
        merged_count = sum(s["count"] for s in server_lat)
        worst_p99 = max(quantile_from_sample(s, 0.99) for s in server_lat) * 1000.0
        print(
            f"metrics         {merged_count} requests histogrammed, "
            f"worst-tenant server-side p99 {worst_p99:.1f}ms"
        )
    if tracer is not None and args.slow_ms is not None:
        print(f"slow queries    {tracer.slow_queries} over {args.slow_ms:.0f}ms")
    if trace_path is not None:
        print(f"trace sink      {trace_path}")
    for tenant, s in all_stats.items():
        shed = s.get("shed", 0)
        balanced = s["admitted"] == s["answered"] + s["failed"] + s["cancelled"] + shed
        print(
            f"ledger          {tenant}: admitted={s['admitted']} answered={s['answered']} "
            f"failed={s['failed']} cancelled={s['cancelled']} shed={shed} balanced={balanced}"
        )
        if not balanced:
            print(f"error: {tenant} ledger does not balance", file=sys.stderr)
            return 1
    if args.no_verify:
        return 0
    served = [(q, a) for q, a in zip(stream, answers) if a is not None]
    mismatches = sum(
        1
        for (tenant, node, qt), answer in served
        if answer.tobytes() != clusters[tenant].answer(node, qt).tobytes()
    )
    print(
        f"verified        {len(served) - mismatches}/{len(served)} answers "
        "byte-identical to each tenant's own cluster (answered queries only)"
    )
    if mismatches:
        print(f"error: {mismatches} served answer(s) diverged", file=sys.stderr)
        return 1
    return 0


def _cmd_doctor(args) -> int:
    from repro.resilience import doctor_report

    report = doctor_report(args.state_dir, verify=not args.no_verify)
    print(f"state dir       {report['state_dir']}")
    manifest = report["manifest"]
    if manifest["ok"]:
        print("manifest        ok")
    else:
        print(f"manifest        FAIL — {manifest['error']}")
    for name, tenant in report["tenants"].items():
        status = "ok" if tenant["ok"] else "BROKEN"
        print(f"tenant          {name}: {status} ({tenant['kind']})")
        for entry in tenant["files"]:
            mark = "ok" if entry["ok"] else "FAIL"
            detail = "" if entry.get("error") is None else f" — {entry['error']}"
            print(f"  file          {entry['file']}: {mark} ({entry['bytes']} bytes){detail}")
        delta = tenant["delta"]
        if delta is not None:
            print(
                f"  delta log     generation {delta['generation']}, "
                f"durable window [{delta['origin']}, {delta['logged_offset']}]"
            )
        if tenant["error"]:
            print(f"  error         {tenant['error']}")
    verdict = "recoverable" if report["recoverable"] else "NOT recoverable"
    print(f"verdict         {verdict}")
    return 0 if report["recoverable"] else 1


def _cmd_net_client(args) -> int:
    import asyncio

    from repro.serving import NetClient

    async def _run() -> int:
        client = await NetClient.connect(args.host, args.port)
        async with client:
            if args.stats:
                for tenant, stats in (await client.stats()).items():
                    pairs = " ".join(f"{k}={v}" for k, v in stats.items())
                    print(f"{tenant}: {pairs}")
                return 0
            if args.node is not None:
                tenant = args.tenant or client.tenants[0]
                answer = await client.query(tenant, args.node, args.type)
                top = np.argsort(answer)[::-1][: args.top]
                for u in top:
                    print(f"{int(u)}\t{answer[u]:.6f}")
                return 0
            # Line mode: one "tenant node qtype" query per stdin line.
            status = 0
            for line in sys.stdin:
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != 3:
                    print(f"error: expected 'tenant node qtype', got {line.strip()!r}", file=sys.stderr)
                    status = 1
                    continue
                tenant, node_text, query_type = parts
                try:
                    answer = await client.query(tenant, int(node_text), query_type)
                except (ReproError, ValueError) as error:
                    print(f"error: {error}", file=sys.stderr)
                    status = 1
                    continue
                best = int(np.argmax(answer))
                print(f"{tenant} {node_text} {query_type}: n={answer.size} top={best} score={answer[best]:.6f}")
            return status

    try:
        return asyncio.run(_run())
    except (ConnectionError, OSError) as error:
        print(f"error: cannot reach {args.host}:{args.port} ({error})", file=sys.stderr)
        return 2


def _cmd_top(args) -> int:
    import asyncio

    from repro.errors import ServingError
    from repro.obs import Histogram, quantile_from_sample, samples_for
    from repro.serving import NetClient

    if args.interval <= 0:
        print(f"error: --interval must be > 0, got {args.interval}", file=sys.stderr)
        return 2
    if args.iterations < 0:
        print(f"error: --iterations must be >= 0, got {args.iterations}", file=sys.stderr)
        return 2

    def _render(stats, snapshot) -> None:
        latency = {
            sample["labels"].get("tenant", ""): sample
            for sample in samples_for(snapshot, "repro_request_latency_seconds")
        }
        rows = []
        for tenant in sorted(stats):
            s = stats[tenant]
            sample = latency.get(tenant)
            p50 = quantile_from_sample(sample, 0.5) * 1000.0 if sample else 0.0
            p99 = quantile_from_sample(sample, 0.99) * 1000.0 if sample else 0.0
            rows.append(
                [
                    tenant,
                    s.get("admitted", 0),
                    s.get("answered", 0),
                    s.get("failed", 0),
                    s.get("inflight", 0),
                    s.get("hedged", 0),
                    s.get("hedge_wins", 0),
                    s.get("redispatches", 0),
                    f"{p50:.1f}",
                    f"{p99:.1f}",
                ]
            )
        print(
            format_table(
                [
                    "Tenant",
                    "Admitted",
                    "Answered",
                    "Failed",
                    "Inflight",
                    "Hedged",
                    "Wins",
                    "Redisp",
                    "p50 ms",
                    "p99 ms",
                ],
                rows,
            )
        )
        # Per-lane compute: merge every tenant's histogram for each lane
        # (fixed shared bounds make the merge exact).
        lanes: dict = {}
        for sample in samples_for(snapshot, "repro_worker_compute_seconds"):
            lane = sample["labels"].get("lane", "?")
            merged = lanes.get(lane)
            if merged is None:
                merged = lanes[lane] = Histogram(sample["bounds"])
            merged.merge_counts(sample["counts"], sample["sum"], sample["count"])
        if lanes:
            lane_rows = [
                [
                    lane,
                    hist.count,
                    f"{hist.mean * 1000.0:.2f}",
                    f"{hist.quantile(0.99) * 1000.0:.2f}",
                ]
                for lane, hist in sorted(lanes.items(), key=lambda kv: kv[0])
            ]
            print()
            print(format_table(["Lane", "Batches", "Mean ms", "p99 ms"], lane_rows))

    async def _run() -> int:
        client = await NetClient.connect(args.host, args.port)
        async with client:
            iteration = 0
            while True:
                if iteration:
                    await asyncio.sleep(args.interval)
                    print()
                stats = await client.stats()
                try:
                    snapshot = await client.metrics()
                except ServingError as error:
                    print(f"error: {error}", file=sys.stderr)
                    return 1
                _render(stats, snapshot)
                iteration += 1
                if args.iterations and iteration >= args.iterations:
                    return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as error:
        print(f"error: cannot reach {args.host}:{args.port} ({error})", file=sys.stderr)
        return 2


def _cmd_stream(args) -> int:
    import asyncio
    import time

    from repro.distributed import build_summary_cluster
    from repro.graph import Graph
    from repro.serving import QUERY_TYPES, QueryServer
    from repro.streaming import StreamingSummarizer

    if not 0.0 < args.stream_fraction < 1.0:
        print(
            f"error: --stream-fraction must be in (0, 1), got {args.stream_fraction}",
            file=sys.stderr,
        )
        return 2
    if args.batches < 1:
        print(f"error: --batches must be >= 1, got {args.batches}", file=sys.stderr)
        return 2

    graph, name = _load_graph(args)
    rng = np.random.default_rng(args.seed)
    edges = graph.edge_array()
    order = rng.permutation(edges.shape[0])
    held_out = max(1, int(round(args.stream_fraction * edges.shape[0])))
    base = Graph.from_edges(graph.num_nodes, edges[order[:-held_out]])
    stream = edges[order[-held_out:]]
    budget = args.ratio * base.size_in_bits()

    config = PegasusConfig(seed=args.seed)
    summarizer = StreamingSummarizer(
        base,
        args.machines,
        budget,
        config=config,
        seed=args.seed,
        drift_threshold=args.drift_threshold,
        workers=args.workers,
    )
    print(f"graph           {name}: |V|={graph.num_nodes}, |E|={graph.num_edges}")
    print(
        f"stream          base |E|={base.num_edges}, streaming {stream.shape[0]} edges "
        f"in {args.batches} batches (m={args.machines}, drift threshold {args.drift_threshold})"
    )

    batches = np.array_split(stream, args.batches)
    query_nodes = rng.integers(0, graph.num_nodes, size=args.queries_per_batch * args.batches)
    served = 0
    ingest_seconds = 0.0
    refresh_events = 0

    async def _run() -> None:
        nonlocal served, ingest_seconds, refresh_events
        async with QueryServer(
            summarizer.cluster, workers=args.workers, max_batch=8, max_wait_ms=1.0
        ) as server:
            summarizer.attach(server)
            try:
                for index, batch in enumerate(batches):
                    lo = index * args.queries_per_batch
                    queries = [
                        (int(node), QUERY_TYPES[i % len(QUERY_TYPES)])
                        for i, node in enumerate(query_nodes[lo : lo + args.queries_per_batch])
                    ]
                    answers = await asyncio.gather(
                        *(server.submit(node, qt) for node, qt in queries)
                    )
                    served += len(answers)
                    report = summarizer.ingest(batch)
                    ingest_seconds += report.seconds
                    refresh_events += len(report.refreshed)
            finally:
                summarizer.detach()

    started = time.perf_counter()
    asyncio.run(_run())
    elapsed = time.perf_counter() - started
    summarizer.cluster.assert_communication_free()

    pending_rate = stream.shape[0] / ingest_seconds if ingest_seconds > 0 else float("inf")
    print(
        f"ingested        {summarizer.delta.num_pending} novel edges "
        f"({pending_rate:.0f} edges/s ingest+maintenance), {served} queries served in-stream"
    )
    print(
        f"refreshes       {refresh_events} machine re-summarizations "
        f"(per machine: {summarizer.refresh_counts()})"
    )
    print(f"elapsed         {elapsed:.2f}s")
    if args.no_verify:
        return 0
    summarizer.refresh()  # bring every machine to the final prefix
    materialized = summarizer.delta.materialize()
    reference = build_summary_cluster(
        materialized,
        args.machines,
        budget,
        assignment=summarizer.assignment,
        config=config,
    )
    probes = rng.integers(0, graph.num_nodes, size=max(8, args.queries_per_batch))
    mismatches = sum(
        1
        for i, node in enumerate(probes)
        for qt in [QUERY_TYPES[i % len(QUERY_TYPES)]]
        if summarizer.cluster.answer(int(node), qt).tobytes()
        != reference.answer(int(node), qt).tobytes()
    )
    print(
        f"verified        {probes.size - mismatches}/{probes.size} refreshed answers "
        "byte-identical to a from-scratch cluster on the materialized graph"
    )
    if mismatches:
        print(f"error: {mismatches} streamed answer(s) diverged", file=sys.stderr)
        return 1
    return 0


def _summaries_equivalent(a, b) -> bool:
    """Structural equality of two summaries: partition + superedge columns."""
    lo_a, hi_a, w_a = a.superedge_arrays()
    lo_b, hi_b, w_b = b.superedge_arrays()
    return (
        a.num_nodes == b.num_nodes
        and a.is_weighted == b.is_weighted
        and np.array_equal(np.asarray(a.supernode_of), np.asarray(b.supernode_of))
        and np.array_equal(lo_a, lo_b)
        and np.array_equal(hi_a, hi_b)
        and (w_a is None) == (w_b is None)
        and (w_a is None or np.array_equal(w_a, w_b))
    )


def _cmd_convert(args) -> int:
    from repro.core.summary_io import load_summary
    from repro.graph import write_edgelist
    from repro.store import (
        MAGIC,
        load_graph,
        load_summary_binary,
        save_graph,
        save_summary_binary,
    )

    try:
        with open(args.src, "rb") as handle:
            src_is_binary = handle.read(len(MAGIC)) == MAGIC
    except OSError as exc:
        print(f"error: cannot read {args.src}: {exc}", file=sys.stderr)
        return 2
    direction = args.to or ("text" if src_is_binary else "binary")
    if (direction == "binary") == src_is_binary:
        print(
            f"error: {args.src} is already in the {direction} format",
            file=sys.stderr,
        )
        return 2

    if args.kind == "graph":
        if direction == "binary":
            graph, _labels = read_edgelist(args.src)
            save_graph(graph, args.dst)
        else:
            graph = load_graph(args.src)
            write_edgelist(graph, args.dst)
        print(
            f"converted       {args.src} -> {args.dst} "
            f"(graph, {direction}; |V|={graph.num_nodes}, |E|={graph.num_edges})"
        )
        if args.verify:
            if direction == "binary":
                reloaded = load_graph(args.dst)
            else:
                reloaded, _labels = read_edgelist(args.dst)
            same = (
                reloaded.num_nodes == graph.num_nodes
                and reloaded.edge_array().tobytes() == graph.edge_array().tobytes()
            )
            print(f"verified        round trip {'OK' if same else 'FAILED'}")
            if not same:
                return 1
        return 0

    if direction == "binary":
        graph, name = _load_graph(args)
        summary = load_summary(args.src, graph)
        save_summary_binary(summary, args.dst, include_graph=not args.no_embed_graph)
    else:
        summary = load_summary_binary(args.src)
        save_summary(summary, args.dst)
    print(
        f"converted       {args.src} -> {args.dst} "
        f"(summary, {direction}; |S|={summary.num_supernodes}, |P|={summary.num_superedges})"
    )
    if args.verify:
        if direction == "binary":
            reloaded = load_summary_binary(args.dst)
        else:
            graph = summary.graph
            if graph is None:
                graph, _name = _load_graph(args)
            reloaded = load_summary(args.dst, graph)
        same = _summaries_equivalent(summary, reloaded)
        print(f"verified        round trip {'OK' if same else 'FAILED'}")
        if not same:
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pegasus",
        description="Personalized graph summarization (PeGaSus, ICDE 2022) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    datasets = sub.add_parser("datasets", help="print the Table II stand-ins")
    datasets.add_argument("--scale", type=float, default=1.0)
    datasets.add_argument("--seed", type=int, default=0)
    datasets.set_defaults(func=_cmd_datasets)

    summarize_cmd = sub.add_parser("summarize", help="summarize a graph with PeGaSus")
    _add_graph_arguments(summarize_cmd)
    summarize_cmd.add_argument("--method", choices=("pegasus", "ssumm"), default="pegasus")
    summarize_cmd.add_argument("--ratio", type=float, default=0.5, help="compression ratio budget")
    summarize_cmd.add_argument("--targets", help="comma-separated target nodes (default: all)")
    summarize_cmd.add_argument("--alpha", type=float, default=1.25)
    summarize_cmd.add_argument("--beta", type=float, default=0.1)
    summarize_cmd.add_argument("--t-max", type=int, default=20)
    summarize_cmd.add_argument("--output", help="write the summary graph to this file")
    summarize_cmd.set_defaults(func=_cmd_summarize)

    query_cmd = sub.add_parser("query", help="answer a node-similarity query")
    _add_graph_arguments(query_cmd)
    query_cmd.add_argument("--type", choices=QUERY_TYPES, default="rwr")
    query_cmd.add_argument("--node", type=int, default=0, help="query node")
    query_cmd.add_argument("--top", type=int, default=10, help="rows to print")
    query_cmd.add_argument(
        "--compare-summary",
        action="store_true",
        help="also answer from a summary personalized to the query node",
    )
    query_cmd.add_argument("--ratio", type=float, default=0.5)
    query_cmd.add_argument("--alpha", type=float, default=1.25)
    query_cmd.set_defaults(func=_cmd_query)

    experiment_cmd = sub.add_parser("experiment", help="run one paper experiment")
    experiment_cmd.add_argument(
        "name",
        choices=(
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "ablation-cost",
            "ablation-threshold",
        ),
    )
    experiment_cmd.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size for the experiment sweep "
        "(1 = sequential, 0 = all cores; identical rows at any count; "
        "default: REPRO_WORKERS or 1)",
    )
    experiment_cmd.set_defaults(func=_cmd_experiment)

    serve_cmd = sub.add_parser(
        "serve", help="serve a concurrent query stream through the async front end"
    )
    _add_graph_arguments(serve_cmd)
    serve_cmd.add_argument("--machines", type=int, default=2, help="number of simulated machines m")
    serve_cmd.add_argument(
        "--ratio", type=float, default=0.5, help="per-machine budget as a fraction of Size(G)"
    )
    serve_cmd.add_argument(
        "--source",
        choices=("summary", "subgraph"),
        default="summary",
        help="what each machine holds: a personalized summary or a budgeted subgraph",
    )
    serve_cmd.add_argument("--queries", type=int, default=64, help="number of queries to fire")
    serve_cmd.add_argument(
        "--types",
        default="rwr,hop,php",
        help="comma-separated query types cycled through the stream",
    )
    serve_cmd.add_argument(
        "--workers",
        type=int,
        default=1,
        help="serving-pool size (1 = inline reference path, 0 = all cores)",
    )
    serve_cmd.add_argument("--max-batch", type=int, default=8, help="flush a machine batch at this size")
    serve_cmd.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="cap in milliseconds on how long a batch waits behind its machine's busy lane "
        "(a batch for an idle lane goes out at once)",
    )
    serve_cmd.add_argument(
        "--max-pending", type=int, default=1024, help="admission-queue bound (backpressure beyond it)"
    )
    serve_cmd.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the byte-identical comparison against the synchronous path",
    )
    serve_cmd.set_defaults(func=_cmd_serve)

    serve_net_cmd = sub.add_parser(
        "serve-net",
        help="host several tenants behind the TCP serving tier and drive a demo load",
    )
    _add_graph_arguments(serve_net_cmd)
    serve_net_cmd.add_argument(
        "--tenants", type=int, default=2, help="number of tenants hosted in the process"
    )
    serve_net_cmd.add_argument(
        "--machines", type=int, default=2, help="simulated machines m per tenant cluster"
    )
    serve_net_cmd.add_argument(
        "--ratio", type=float, default=0.5, help="per-machine budget as a fraction of Size(G)"
    )
    serve_net_cmd.add_argument(
        "--queries", type=int, default=32, help="queries fired per tenant over the wire"
    )
    serve_net_cmd.add_argument(
        "--workers",
        type=int,
        default=1,
        help="lane count of the shared executor (1 = inline reference path)",
    )
    serve_net_cmd.add_argument(
        "--port", type=int, default=0, help="TCP port to listen on (0 = ephemeral)"
    )
    serve_net_cmd.add_argument(
        "--max-batch", type=int, default=8, help="flush a machine batch at this size"
    )
    serve_net_cmd.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="cap in milliseconds on how long a batch waits behind its machine's busy lane "
        "(a batch for an idle lane goes out at once)",
    )
    serve_net_cmd.add_argument(
        "--hedge-ms",
        type=float,
        default=None,
        help="duplicate a straggling batch onto the next lane after this deadline",
    )
    serve_net_cmd.add_argument(
        "--chaos",
        choices=("kill-worker", "slow-lane", "trickle-frame"),
        default=None,
        help=(
            "inject a fault mid-stream: kill-worker SIGKILLs a lane worker, "
            "slow-lane stalls machine 0's batches, trickle-frame connects a "
            "hostile slow-loris peer"
        ),
    )
    serve_net_cmd.add_argument(
        "--state-dir",
        default=None,
        help=(
            "persist tenant state under this directory (recover from it when "
            "it already holds tenants)"
        ),
    )
    serve_net_cmd.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="server-side deadline budget minted for every admitted query",
    )
    serve_net_cmd.add_argument(
        "--retry-policy",
        default=None,
        help=(
            "redispatch policy for a batch whose lane worker died, e.g. "
            "'attempts=4,base_ms=5,cap_ms=500,jitter=0.3' ('none' disables "
            "retries; default: attempts=3,base_ms=0,jitter=0, re-sent at once up to twice)"
        ),
    )
    serve_net_cmd.add_argument(
        "--idle-timeout-ms",
        type=float,
        default=30000.0,
        help="close a connection stalled mid-frame for this long (slow-loris bound)",
    )
    serve_net_cmd.add_argument(
        "--serve-forever",
        action="store_true",
        help="keep the listener up after the demo load (ctrl-c to stop)",
    )
    serve_net_cmd.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the per-tenant byte-identical comparison against cluster.answer",
    )
    serve_net_cmd.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="also expose /metrics (Prometheus text) over HTTP on this port (0 = ephemeral)",
    )
    serve_net_cmd.add_argument(
        "--trace-dir",
        default=None,
        help="write request trace spans as JSONL under this directory (enables tracing)",
    )
    serve_net_cmd.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="log a structured slow-query line for requests slower than this (enables tracing)",
    )
    serve_net_cmd.set_defaults(func=_cmd_serve_net)

    doctor_cmd = sub.add_parser(
        "doctor",
        help="dry-run recovery of a --state-dir and report recoverability, serving nothing",
    )
    doctor_cmd.add_argument("state_dir", help="state directory written by serve-net --state-dir")
    doctor_cmd.add_argument(
        "--no-verify",
        action="store_true",
        help="skip checksum verification (structure checks only)",
    )
    doctor_cmd.set_defaults(func=_cmd_doctor)

    top_cmd = sub.add_parser(
        "top",
        help="live per-tenant / per-lane tables from a running serve-net listener",
    )
    top_cmd.add_argument("--host", default="127.0.0.1", help="server host")
    top_cmd.add_argument("--port", type=int, required=True, help="server port")
    top_cmd.add_argument(
        "--interval", type=float, default=2.0, help="seconds between refreshes"
    )
    top_cmd.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="refresh this many times then exit (0 = until ctrl-c)",
    )
    top_cmd.set_defaults(func=_cmd_top)

    net_client_cmd = sub.add_parser(
        "net-client",
        help="query a running serve-net listener (one-shot, line mode, or --stats)",
    )
    net_client_cmd.add_argument("--host", default="127.0.0.1", help="server host")
    net_client_cmd.add_argument("--port", type=int, required=True, help="server port")
    net_client_cmd.add_argument(
        "--tenant", default=None, help="tenant for --node (default: first advertised)"
    )
    net_client_cmd.add_argument(
        "--node", type=int, default=None, help="one-shot: query this node and print the top scores"
    )
    net_client_cmd.add_argument(
        "--type", default="rwr", help="query type for --node (rwr, hop, or php)"
    )
    net_client_cmd.add_argument(
        "--top", type=int, default=5, help="rows printed for a one-shot query"
    )
    net_client_cmd.add_argument(
        "--stats",
        action="store_true",
        help="print every tenant's serving ledger instead of querying",
    )
    net_client_cmd.set_defaults(func=_cmd_net_client)

    stream_cmd = sub.add_parser(
        "stream",
        help="stream held-out edges through online re-summarization while serving",
    )
    _add_graph_arguments(stream_cmd)
    stream_cmd.add_argument("--machines", type=int, default=2, help="number of simulated machines m")
    stream_cmd.add_argument(
        "--ratio", type=float, default=0.5, help="per-machine budget as a fraction of Size(G₀)"
    )
    stream_cmd.add_argument(
        "--stream-fraction",
        type=float,
        default=0.25,
        help="fraction of the dataset's edges held out and streamed back in",
    )
    stream_cmd.add_argument("--batches", type=int, default=8, help="number of ingest micro-batches")
    stream_cmd.add_argument(
        "--drift-threshold",
        type=float,
        default=0.1,
        help="re-summarize a machine when its residual correction bits exceed "
        "this fraction of the budget (0 = refresh every batch)",
    )
    stream_cmd.add_argument(
        "--queries-per-batch",
        type=int,
        default=6,
        help="queries served between consecutive ingest batches",
    )
    stream_cmd.add_argument(
        "--workers",
        type=int,
        default=1,
        help="pool size for serving and refresh fan-outs (identical output at any count)",
    )
    stream_cmd.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the final byte-identical comparison against a from-scratch cluster",
    )
    stream_cmd.set_defaults(func=_cmd_stream)

    convert_cmd = sub.add_parser(
        "convert",
        help="convert a summary (or edge list) between the text and binary store formats",
    )
    _add_graph_arguments(convert_cmd)
    convert_cmd.add_argument("src", help="source file (format auto-detected from its bytes)")
    convert_cmd.add_argument("dst", help="destination file")
    convert_cmd.add_argument(
        "--kind",
        choices=("summary", "graph"),
        default="summary",
        help="what the source file holds (default: summary)",
    )
    convert_cmd.add_argument(
        "--to",
        choices=("binary", "text"),
        default=None,
        help="target format (default: the opposite of the source's format)",
    )
    convert_cmd.add_argument(
        "--no-embed-graph",
        action="store_true",
        help="text→binary summaries: do not embed the input graph's CSR in the store",
    )
    convert_cmd.add_argument(
        "--verify",
        action="store_true",
        help="reload the written file and check it is equivalent to the source",
    )
    convert_cmd.set_defaults(func=_cmd_convert)
    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    """Entry point for ``repro-pegasus`` and ``python -m repro``."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    raise SystemExit(main())
