"""Streaming bench — ingest throughput and the staleness/refresh-cost dial.

Not a paper figure: the paper summarizes static graphs.  This bench
drives the streaming maintenance layer (``repro.streaming``) with a
held-out edge stream and sweeps the cost-drift threshold that decides
when a machine is re-summarized:

* ``threshold = 0`` refreshes every machine at every micro-batch — the
  always-fresh reference: maximum refresh cost, no stale merge
  structure;
* larger thresholds carry streamed edges as residual corrections for
  longer, trading answer drift (staleness) for fewer re-summarizations;
* ``no-refresh`` never re-summarizes — the pure correction-list end of
  the curve.

Per threshold the table reports ingest+maintenance throughput, the
number and total wall-clock of machine re-summarizations (the refresh
*cost*), and the two faces of staleness under a fixed per-machine
budget ``k``:

* ``PeakMem/k`` — the peak machine memory over the stream relative to
  the budget.  Correction lists are exact but unbounded: the longer a
  machine goes without a refresh, the further it overshoots ``k``.
  This is the quantity the drift threshold actually bounds (threshold
  ``t`` caps it near ``1 + t``).
* ``RWR drift`` — mean SMAPE between the streaming cluster's RWR
  answers and exact RWR on the materialized graph, sampled after every
  ingest batch (answer-level divergence; note corrections are exact
  topology, so carrying them can even *reduce* drift at the price of
  the memory overshoot above).

After the stream, every configuration force-refreshes and must be
byte-identical to a from-scratch cluster on the materialized graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

import numpy as np

from _util import bench_main, emit_table, fmt

from repro.core import PegasusConfig
from repro.distributed import build_summary_cluster
from repro.eval import smape
from repro.experiments.common import ExperimentScale
from repro.graph import Graph, load_dataset
from repro.queries import rwr_scores


@dataclass
class StreamingRow:
    dataset: str
    threshold: str
    batches: int
    streamed: int
    ingest_eps: float
    refreshes: int
    refresh_s: float
    peak_mem: float
    staleness: float
    verified: bool


def _split_stream(graph: Graph, fraction: float, seed: int):
    rng = np.random.default_rng(seed)
    edges = graph.edge_array()
    order = rng.permutation(edges.shape[0])
    held_out = max(1, int(round(fraction * edges.shape[0])))
    base = Graph.from_edges(graph.num_nodes, edges[order[:-held_out]])
    return base, edges[order[-held_out:]]


def _run_threshold(
    base: Graph,
    stream: np.ndarray,
    *,
    threshold: "float | None",
    num_machines: int,
    budget_bits: float,
    config: PegasusConfig,
    batches: int,
    probe_nodes: np.ndarray,
    seed: int,
):
    from repro.streaming import StreamingSummarizer

    summarizer = StreamingSummarizer(
        base,
        num_machines,
        budget_bits,
        config=config,
        seed=seed,
        drift_threshold=0.0 if threshold is None else threshold,
    )
    chunks = np.array_split(stream, batches)
    ingest_seconds = 0.0
    refresh_seconds = 0.0
    refreshes = 0
    peak_mem = 0.0
    staleness_samples: List[float] = []
    for chunk in chunks:
        started = time.perf_counter()
        report = summarizer.ingest(chunk, refresh="none" if threshold is None else "auto")
        ingest_seconds += time.perf_counter() - started
        refreshes += len(report.refreshed)
        peak_mem = max(
            peak_mem,
            max(machine.memory_bits for machine in summarizer.cluster.machines) / budget_bits,
        )
        materialized = summarizer.delta.materialize()
        for node in probe_nodes:
            exact = rwr_scores(materialized, int(node))
            streamed_answer = summarizer.cluster.answer(int(node), "rwr")
            staleness_samples.append(smape(exact, streamed_answer))
    started = time.perf_counter()
    summarizer.refresh()
    refresh_seconds = time.perf_counter() - started
    reference = build_summary_cluster(
        summarizer.delta.materialize(),
        num_machines,
        budget_bits,
        assignment=summarizer.assignment,
        config=config,
    )
    verified = all(
        summarizer.cluster.answer(int(node), qt).tobytes()
        == reference.answer(int(node), qt).tobytes()
        for node in probe_nodes
        for qt in ("rwr", "hop", "php")
    )
    ingest_eps = stream.shape[0] / ingest_seconds if ingest_seconds > 0 else float("nan")
    return (
        ingest_eps,
        refreshes,
        ingest_seconds + refresh_seconds,
        peak_mem,
        staleness_samples,
        verified,
    )


def run(
    *,
    thresholds: "tuple | None" = (0.0, 0.05, 0.2, None),
    batches: int = 6,
    stream_fraction: float = 0.25,
    num_probes: int = 4,
    seed: int = 0,
) -> List[StreamingRow]:
    scale = ExperimentScale.from_env()
    dataset = load_dataset("lastfm_asia", scale=scale.dataset_scale, seed=seed)
    base, stream = _split_stream(dataset.graph, stream_fraction, seed)
    budget = 0.5 * base.size_in_bits()
    config = PegasusConfig(seed=seed, t_max=scale.t_max)
    rng = np.random.default_rng(seed + 1)
    probes = rng.integers(0, base.num_nodes, size=num_probes)
    rows = []
    for threshold in thresholds:
        eps, refreshes, total_s, peak_mem, staleness, verified = _run_threshold(
            base,
            stream,
            threshold=threshold,
            num_machines=scale.num_machines,
            budget_bits=budget,
            config=config,
            batches=batches,
            probe_nodes=probes,
            seed=seed,
        )
        rows.append(
            StreamingRow(
                dataset=dataset.display_name,
                threshold="no-refresh" if threshold is None else f"{threshold:.2f}",
                batches=batches,
                streamed=stream.shape[0],
                ingest_eps=eps,
                refreshes=refreshes,
                refresh_s=total_s,
                peak_mem=peak_mem,
                staleness=float(np.mean(staleness)) if staleness else float("nan"),
                verified=verified,
            )
        )
    return rows


def _emit(rows: List[StreamingRow]) -> str:
    return emit_table(
        "streaming",
        "Streaming: ingest throughput and staleness vs refresh cost "
        "(post-refresh clusters verified byte-identical to from-scratch builds)",
        ["Dataset", "Threshold", "Batches", "Edges", "Ingest(e/s)",
         "Refreshes", "Total(s)", "PeakMem/k", "RWR drift", "Verified"],
        [
            (
                r.dataset, r.threshold, r.batches, r.streamed, fmt(r.ingest_eps, 1),
                r.refreshes, fmt(r.refresh_s, 2), fmt(r.peak_mem, 3),
                fmt(r.staleness, 4), r.verified,
            )
            for r in rows
        ],
    )


def test_streaming(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _emit(rows)
    assert all(row.verified for row in rows), "refreshed cluster diverged from from-scratch build"
    always_fresh = next(row for row in rows if row.threshold == "0.00")
    lazy = next(row for row in rows if row.threshold == "no-refresh")
    assert always_fresh.refreshes >= lazy.refreshes
    # Never refreshing accumulates correction bits past the budget that
    # the always-fresh cadence stays near.
    assert lazy.peak_mem >= always_fresh.peak_mem


def _run_table(args) -> None:
    kwargs = {
        "batches": args.batches,
        "stream_fraction": args.stream_fraction,
    }
    if args.smoke:
        kwargs.update(batches=3, num_probes=2, thresholds=(0.0, 0.2, None))
    rows = run(**kwargs)
    _emit(rows)
    if not all(row.verified for row in rows):
        raise SystemExit("refreshed cluster diverged from a from-scratch build")


def _streaming_arguments(parser) -> None:
    parser.add_argument("--batches", type=int, default=6, help="ingest micro-batches")
    parser.add_argument(
        "--stream-fraction",
        type=float,
        default=0.25,
        help="fraction of edges held out and streamed back",
    )


def main(argv: "list[str] | None" = None) -> int:
    return bench_main(
        argv,
        _run_table,
        description="Streaming maintenance bench (ingest throughput, staleness vs refresh cost).",
        parser_hook=_streaming_arguments,
    )


if __name__ == "__main__":
    raise SystemExit(main())
