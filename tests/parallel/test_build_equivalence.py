"""Builds and sweeps are byte-identical at any worker count and start method.

The cluster builders and the experiment sweep runner fan their tasks out
over a :class:`~repro.parallel.ParallelExecutor`, with the input graph (or
the sweep's point list) in the executor's shared payload: inherited by
``fork`` workers, pickled once per worker under ``spawn``.  These tests
pin ``workers=1`` (inline) against ``workers=2`` under both start
methods, and that a sweep task stays a point index even when the points
hold graphs (the Fig. 6 subgraphs).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import PegasusConfig
from repro.distributed import build_subgraph_cluster, build_summary_cluster
from repro.experiments.common import sweep
from repro.graph import barabasi_albert
from repro.parallel import ParallelExecutor


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(300, 3, seed=5)


@pytest.fixture(params=["fork", "spawn"])
def start_method(request, monkeypatch):
    """Run the pooled side under *fork* or a true *spawn* (workers
    inherit nothing, so the shared payload genuinely arrives pickled)."""
    if request.param == "spawn":
        import repro.parallel.executor as executor_module

        monkeypatch.setattr(
            executor_module.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
    return request.param


def _sweep_point(shared, point):
    ratio = shared
    subgraph, targets = point
    # A cheap deterministic function of the shipped graph's structure.
    return float(subgraph.num_edges) * ratio + float(np.sum(targets)) + float(
        subgraph.degree(0)
    )


def _sweep_points(graph):
    rng = np.random.default_rng(0)
    points = []
    for _ in range(4):
        nodes = rng.choice(graph.num_nodes, size=80, replace=False)
        subgraph, _ = graph.induced_subgraph(nodes)
        points.append((subgraph, rng.integers(0, 50, size=3)))
    return points


class TestEquivalence:
    def test_summary_cluster_matches_inline(self, graph, start_method):
        budget = 0.4 * graph.size_in_bits()
        kwargs = dict(config=PegasusConfig(seed=3, t_max=4), seed=3)
        inline = build_summary_cluster(graph, 2, budget, workers=1, **kwargs)
        pooled = build_summary_cluster(graph, 2, budget, workers=2, **kwargs)
        for left, right in zip(inline.machines, pooled.machines):
            assert np.array_equal(left.part_nodes, right.part_nodes)
            assert np.array_equal(left.source.supernode_of, right.source.supernode_of)
            assert sorted(left.source.superedges()) == sorted(right.source.superedges())
            assert left.memory_bits == right.memory_bits

    def test_subgraph_cluster_matches_inline(self, graph, start_method):
        budget = 0.4 * graph.size_in_bits()
        inline = build_subgraph_cluster(graph, 2, budget, workers=1, seed=1)
        pooled = build_subgraph_cluster(graph, 2, budget, workers=2, seed=1)
        for left, right in zip(inline.machines, pooled.machines):
            assert left.source == right.source
            assert left.memory_bits == right.memory_bits

    def test_sweep_with_graphs_in_points_matches_inline(self, graph, start_method):
        points = _sweep_points(graph)
        inline = sweep(_sweep_point, points, workers=1, shared=0.25)
        pooled = sweep(_sweep_point, points, workers=2, shared=0.25)
        assert inline == pooled


def test_sweep_tasks_are_point_indices(monkeypatch):
    """The points (graphs included) ride in the shared payload, so each
    task pickles to a few bytes however large its point is."""
    tasks = []
    map_tasks = ParallelExecutor.map

    def recording(self, fn, batch, *, shared=None):
        batch = list(batch)
        tasks.extend(batch)
        return map_tasks(self, fn, batch, shared=shared)

    monkeypatch.setattr(ParallelExecutor, "map", recording)
    points = [(barabasi_albert(2000, 6, seed=s), np.arange(3)) for s in range(3)]
    assert len(pickle.dumps(points[0])) > 100_000
    sweep(_sweep_point, points, workers=2, shared=0.25)
    assert tasks == list(range(len(points)))
    assert all(len(pickle.dumps(task)) < 64 for task in tasks)
