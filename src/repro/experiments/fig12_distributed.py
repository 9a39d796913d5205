"""Fig. 12 (and Fig. 2c) — communication-free distributed multi-query
answering.

Protocol (Sect. V-F): ``m`` machines, per-machine memory ``k`` set by the
compression ratio.  The PeGaSus rows follow Alg. 3 (Louvain parts, one
summary personalized per part); the SSumM row loads the same
non-personalized summary on every machine; the partitioning rows
distribute budgeted subgraphs built from BLP / SHP-I / SHP-II / SHP-KL /
Louvain parts.  Every query is routed to the machine owning its node and
answered without communication (asserted on every cluster).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.baselines import ssumm_summarize
from repro.core import PegasusConfig
from repro.distributed import build_subgraph_cluster, build_summary_cluster
from repro.distributed.cluster import DistributedCluster, Machine
from repro.eval import evaluate_query_accuracy, sample_query_nodes
from repro.experiments.common import ExperimentScale, sweep
from repro.graph import load_dataset
from repro.partitioning import blp_partition, louvain_partition, shp_partition

DISTRIBUTED_METHODS = ("pegasus", "ssumm", "blp", "shp1", "shp2", "shpkl", "louvain")


@dataclass
class DistributedRow:
    """One point of one curve in Fig. 12."""

    dataset: str
    method: str
    ratio: float
    query_type: str
    smape: float
    spearman: float


def _partitioner(method: str, seed: int):
    if method == "blp":
        return lambda g, m: blp_partition(g, m, seed=seed)
    if method in ("shp1", "shp2", "shpkl"):
        return lambda g, m: shp_partition(g, m, variant=method, seed=seed)
    return lambda g, m: louvain_partition(g, m, seed=seed)


def _build_cluster(method, graph, num_machines, budget, assignment, scale) -> DistributedCluster:
    if method == "pegasus":
        return build_summary_cluster(
            graph,
            num_machines,
            budget,
            assignment=assignment,
            config=PegasusConfig(t_max=scale.t_max, seed=scale.seed),
        )
    if method == "ssumm":
        result = ssumm_summarize(graph, budget_bits=budget, t_max=scale.t_max, seed=scale.seed)
        machines = [
            Machine(i, np.flatnonzero(assignment == i), result.summary, result.summary.size_in_bits())
            for i in range(num_machines)
        ]
        return DistributedCluster(graph, machines)
    partitioner = _partitioner(method, scale.seed)
    part_assignment = partitioner(graph, num_machines)
    return build_subgraph_cluster(
        graph, num_machines, budget, assignment=part_assignment, seed=scale.seed
    )


def _distributed_point(shared, point):
    """Build one (dataset, ratio, method) cluster and evaluate its queries.

    Runs in a pool worker; the whole cluster build + routed answering of
    one curve point is self-contained, so points parallelize without any
    cross-point state.  Returns the per-query-type accuracy pairs.
    """
    per_dataset, machines, scale, query_types = shared
    name, ratio, method = point
    graph, queries, louvain_assignment = per_dataset[name]
    budget = ratio * graph.size_in_bits()
    cluster = _build_cluster(method, graph, machines, budget, louvain_assignment, scale)
    accuracy = evaluate_query_accuracy(
        graph,
        None,
        queries,
        query_types=tuple(query_types),
        answer_on=lambda q, t, c=cluster: c.answer(q, t),
    )
    cluster.assert_communication_free()
    return {qt: (result.smape, result.spearman) for qt, result in accuracy.items()}


def run(
    *,
    datasets: Sequence[str] = ("lastfm_asia", "caida"),
    ratios: Sequence[float] = (0.3, 0.5),
    methods: Sequence[str] = DISTRIBUTED_METHODS,
    query_types: Sequence[str] = ("rwr", "hop"),
    dataset_scale_multiplier: float = 2.0,
    num_machines: "int | None" = None,
    scale: "ExperimentScale | None" = None,
    workers: "int | None" = None,
) -> List[DistributedRow]:
    """Run the distributed comparison; returns one row per
    (dataset, method, ratio, query type).

    The distributed setting needs larger graphs than the single-summary
    experiments — with tiny parts, part-personalization degenerates into
    the uniform setting — hence the dataset-scale multiplier and the
    paper's 8 machines by default.

    The (dataset, ratio, method) curve points are independent and fan out
    over *workers* processes (default: ``scale.workers``); every point
    still asserts communication-free answering, and rows are identical at
    any worker count.
    """
    scale = scale or ExperimentScale.from_env()
    workers = scale.workers if workers is None else workers
    machines = num_machines if num_machines is not None else max(scale.num_machines, 8)
    per_dataset = {}
    for name in datasets:
        graph = load_dataset(
            name, scale=scale.dataset_scale * dataset_scale_multiplier, seed=scale.seed
        ).graph
        queries = sample_query_nodes(graph, scale.num_queries, seed=scale.seed)
        # The summary rows route by the Alg. 3 Louvain parts.
        louvain_assignment = louvain_partition(graph, machines, seed=scale.seed)
        per_dataset[name] = (graph, queries, louvain_assignment)
    points = [(name, ratio, method) for name in datasets for ratio in ratios for method in methods]
    results = sweep(
        _distributed_point,
        points,
        workers=workers,
        shared=(per_dataset, machines, scale, tuple(query_types)),
    )
    rows: List[DistributedRow] = []
    for (name, ratio, method), accuracy in zip(points, results):
        for qt in query_types:
            smape, spearman = accuracy[qt]
            rows.append(
                DistributedRow(
                    dataset=name,
                    method=method,
                    ratio=ratio,
                    query_type=qt,
                    smape=smape,
                    spearman=spearman,
                )
            )
    return rows


def mean_metric(rows: Sequence[DistributedRow], *, method: str, query_type: str, metric: str) -> float:
    """Average one metric over all rows of a method/query type."""
    values = [
        getattr(row, metric)
        for row in rows
        if row.method == method and row.query_type == query_type
    ]
    return float(np.mean(values)) if values else float("nan")
