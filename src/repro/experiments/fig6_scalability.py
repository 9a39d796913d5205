"""Fig. 6 (and Fig. 2b) — linear scalability of PeGaSus.

Protocol (Sect. V-C): induce subgraphs by sampling 10%–100% of the nodes
of a large graph, run PeGaSus on each with ``|T| = 100`` and
``|T| = |V|/2``, and check that runtime grows linearly in the edge count
(log-log slope ≈ 1).  The paper uses Skitter and a billion-edge BA graph;
we use the Skitter stand-in and a BA graph whose size is set by the scale
preset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core import PegasusConfig, summarize
from repro.experiments.common import ExperimentScale, sweep
from repro.graph import barabasi_albert, load_dataset
from repro.graph.traversal import largest_connected_component


@dataclass
class ScalabilityRow:
    """One point of the Fig. 6 log-log plot."""

    graph_name: str
    target_mode: str
    num_nodes: int
    num_edges: int
    elapsed_seconds: float


def fit_loglog_slope(rows: Sequence[ScalabilityRow]) -> float:
    """Least-squares slope of log(time) against log(|E|)."""
    if len(rows) < 2:
        return float("nan")
    x = np.log([row.num_edges for row in rows])
    y = np.log([max(row.elapsed_seconds, 1e-9) for row in rows])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def _scalability_point(shared, point):
    """Time one (subgraph, targets) summarization (runs in a pool worker)."""
    ratio = shared
    subgraph, targets, config = point
    return summarize(subgraph, targets=targets, compression_ratio=ratio, config=config).elapsed_seconds


def run(
    *,
    node_fractions: Sequence[float] = (0.4, 0.55, 0.7, 0.85, 1.0),
    target_modes: Sequence[str] = ("100", "|V|/2"),
    ratio: float = 0.5,
    base_nodes: "int | None" = None,
    scale: "ExperimentScale | None" = None,
    workers: "int | None" = None,
) -> List[ScalabilityRow]:
    """Run the scalability sweep; returns one row per (graph, |T|, fraction).

    All subgraph/target sampling happens while planning the point list, so
    fanning the summarizations out over *workers* processes (default:
    ``scale.workers``) changes only the wall clock, not the workload.
    """
    scale = scale or ExperimentScale.from_env()
    workers = scale.workers if workers is None else workers
    rng = np.random.default_rng(scale.seed)
    graphs: List[Tuple[str, object]] = []
    skitter = load_dataset("skitter", scale=scale.dataset_scale * 2, seed=scale.seed).graph
    graphs.append(("skitter", skitter))
    ba_nodes = base_nodes or max(int(3000 * scale.dataset_scale * 2), 500)
    graphs.append(("synthetic_ba", barabasi_albert(ba_nodes, 5, seed=scale.seed)))

    labels: List[Tuple[str, str, int, int]] = []
    points = []
    for graph_name, graph in graphs:
        for fraction in node_fractions:
            count = max(int(fraction * graph.num_nodes), 10)
            sampled = rng.choice(graph.num_nodes, size=count, replace=False)
            subgraph, _ = graph.induced_subgraph(sampled)
            subgraph, _ = largest_connected_component(subgraph)
            if subgraph.num_nodes < 10 or subgraph.num_edges < 10:
                continue
            for mode in target_modes:
                if mode == "100":
                    size = min(100, subgraph.num_nodes)
                else:
                    size = max(subgraph.num_nodes // 2, 1)
                targets = rng.choice(subgraph.num_nodes, size=size, replace=False)
                config = PegasusConfig(t_max=scale.t_max, seed=scale.seed)
                labels.append((graph_name, mode, subgraph.num_nodes, subgraph.num_edges))
                points.append((subgraph, targets, config))

    timings = sweep(_scalability_point, points, workers=workers, shared=ratio)
    return [
        ScalabilityRow(
            graph_name=graph_name,
            target_mode=mode,
            num_nodes=num_nodes,
            num_edges=num_edges,
            elapsed_seconds=elapsed,
        )
        for (graph_name, mode, num_nodes, num_edges), elapsed in zip(labels, timings)
    ]
