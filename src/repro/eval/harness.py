"""Experiment harness: query-accuracy evaluation shared by Figs. 7, 9–12.

The recurring experiment shape in the paper's evaluation is

    sample query nodes → answer each query exactly on ``G`` and
    approximately on a summary → average SMAPE / Spearman over queries

packaged here as :func:`evaluate_query_accuracy` so every benchmark and
example reports numbers the same way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from repro._util import ensure_rng
from repro.distributed.cluster import QUERY_TYPES, answer_query
from repro.errors import QueryError
from repro.eval.metrics import smape, spearman_correlation
from repro.graph.graph import Graph
from repro.queries.operator import QuerySource, ReconstructedOperator, check_query_node


@dataclass
class QueryAccuracy:
    """Averaged accuracy of one (summary, query type) combination."""

    query_type: str
    smape: float
    spearman: float
    num_queries: int


def sample_query_nodes(
    graph: Graph, count: int, *, seed: "int | np.random.Generator | None" = 0
) -> np.ndarray:
    """*count* query nodes sampled uniformly without replacement (Sect. V-D)."""
    rng = ensure_rng(seed)
    count = min(count, graph.num_nodes)
    return np.sort(rng.choice(graph.num_nodes, size=count, replace=False))


def evaluate_query_accuracy(
    graph: Graph,
    summary: QuerySource,
    query_nodes: Iterable[int],
    *,
    query_types: Tuple[str, ...] = QUERY_TYPES,
    answer_on: "Callable[[int, str], np.ndarray] | None" = None,
) -> Dict[str, QueryAccuracy]:
    """SMAPE and Spearman of summary answers vs exact answers, per query type.

    Parameters
    ----------
    graph:
        Ground-truth graph.
    summary:
        The approximate source (summary graph, or any
        :class:`~repro.queries.operator.QuerySource`).  Ignored when
        *answer_on* is given.
    query_nodes:
        Query nodes; results are averaged over them (Sect. V-A).
    query_types:
        Subset of ``("rwr", "hop", "php")``.
    answer_on:
        Optional override ``(node, query_type) -> score vector`` for
        settings where different queries hit different sources (the
        distributed application, Alg. 3).
    """
    nodes = [check_query_node(node, graph.num_nodes) for node in query_nodes]
    exact_operator = ReconstructedOperator(graph)
    summary_operator = ReconstructedOperator(summary) if answer_on is None else None

    results: Dict[str, QueryAccuracy] = {}
    for query_type in query_types:
        if query_type not in QUERY_TYPES:
            raise QueryError(f"unknown query type {query_type!r}")
        smape_values: List[float] = []
        spearman_values: List[float] = []
        for node in nodes:
            exact = answer_query(exact_operator, node, query_type)
            if answer_on is not None:
                approximate = answer_on(node, query_type)
            else:
                approximate = answer_query(summary_operator, node, query_type)
            smape_values.append(smape(exact, approximate))
            spearman_values.append(spearman_correlation(exact, approximate))
        results[query_type] = QueryAccuracy(
            query_type=query_type,
            smape=float(np.mean(smape_values)) if smape_values else 0.0,
            spearman=float(np.mean(spearman_values)) if spearman_values else 0.0,
            num_queries=len(nodes),
        )
    return results


def time_call(fn: Callable[[], object]) -> Tuple[object, float]:
    """Run *fn* and return ``(result, elapsed_seconds)``."""
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started
