"""Fig. 8 — summarization time and query time per method.

Protocol (Sect. V-D): at compression ratio 0.5, time (a) summarization per
dataset per method, and (b) BFS (HOP) and RWR query processing on the
resulting summaries.  The paper's point is that PeGaSus summaries are
*sparse* (selective superedge addition), so queries run fast, while the
dense weighted summaries of SAAGs/S2L/k-Grass are slow to query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

from repro.eval import sample_query_nodes
from repro.experiments.common import (
    ExperimentScale,
    MethodSkipped,
    METHODS,
    build_summary_for_method,
    sweep,
)
from repro.graph import load_dataset
from repro.queries import ReconstructedOperator, rwr_scores
from repro.queries.hop import hop_distances_reference


@dataclass
class RuntimeRow:
    """One (dataset, method) group of Fig. 8's three panels."""

    dataset: str
    method: str
    summarize_seconds: float
    bfs_query_seconds: float
    rwr_query_seconds: float
    superedges: int
    skipped: bool = False


def _runtime_point(shared, point) -> RuntimeRow:
    """Build and time one (dataset, method) group (runs in a pool worker)."""
    per_dataset, ratio, scale = shared
    name, method = point
    graph, queries = per_dataset[name]
    try:
        summary, _achieved, build_time = build_summary_for_method(
            method,
            graph,
            ratio,
            targets=queries,
            t_max=scale.t_max,
            seed=scale.seed,
        )
    except MethodSkipped:
        return RuntimeRow(name, method, float("nan"), float("nan"), float("nan"), 0, True)
    # Fig. 8(b) times the getNeighbors-driven BFS (Alg. 5): dense
    # weighted summaries materialize huge neighborhoods and pay it.
    started = time.perf_counter()
    for q in queries:
        hop_distances_reference(summary, int(q))
    bfs_time = time.perf_counter() - started
    operator = ReconstructedOperator(summary)
    started = time.perf_counter()
    for q in queries:
        rwr_scores(summary, int(q), operator=operator)
    rwr_time = time.perf_counter() - started
    return RuntimeRow(
        dataset=name,
        method=method,
        summarize_seconds=build_time,
        bfs_query_seconds=bfs_time,
        rwr_query_seconds=rwr_time,
        superedges=summary.num_superedges,
    )


def run(
    *,
    datasets: Sequence[str] = ("lastfm_asia", "caida", "dblp", "synthetic_ba"),
    methods: Sequence[str] = METHODS,
    ratio: float = 0.5,
    scale: "ExperimentScale | None" = None,
    workers: "int | None" = None,
) -> List[RuntimeRow]:
    """Time summarization plus HOP/RWR query answering per method.

    The (dataset, method) groups are independent and fan out over
    *workers* processes (default: ``scale.workers``); note per-group
    timings measure the group's own work, but on a saturated pool they
    contend for cores, so cross-method timing comparisons are sharpest
    at ``workers=1``.
    """
    scale = scale or ExperimentScale.from_env()
    workers = scale.workers if workers is None else workers
    per_dataset = {}
    for name in datasets:
        graph = load_dataset(name, scale=scale.dataset_scale, seed=scale.seed).graph
        queries = sample_query_nodes(graph, scale.num_queries, seed=scale.seed)
        per_dataset[name] = (graph, queries)
    points = [(name, method) for name in datasets for method in methods]
    return sweep(
        _runtime_point,
        points,
        workers=workers,
        shared=(per_dataset, ratio, scale),
    )
