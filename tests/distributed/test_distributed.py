"""Tests for the communication-free distributed application (Alg. 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PegasusConfig
from repro.distributed import (
    DistributedCluster,
    Machine,
    budgeted_subgraph,
    build_subgraph_cluster,
    build_summary_cluster,
)
from repro.errors import BudgetError, PartitionError, QueryError
from repro.graph import planted_partition


@pytest.fixture(scope="module")
def graph():
    return planted_partition(160, 4, avg_degree_in=8.0, avg_degree_out=1.0, seed=2)


@pytest.fixture(scope="module")
def summary_cluster(graph):
    return build_summary_cluster(
        graph, 4, 0.5 * graph.size_in_bits(), config=PegasusConfig(seed=1, t_max=10)
    )


class TestBudgetedSubgraph:
    def test_respects_budget(self, graph):
        budget = 0.3 * graph.size_in_bits()
        sub = budgeted_subgraph(graph, np.arange(40), budget)
        assert sub.size_in_bits() <= budget
        assert sub.num_nodes == graph.num_nodes

    def test_prefers_close_edges(self, graph):
        part = np.arange(40)
        sub = budgeted_subgraph(graph, part, 0.2 * graph.size_in_bits(), seed=0)
        from repro.graph import bfs_distances

        dist = bfs_distances(graph, part)
        kept = sub.edge_array()
        all_edges = graph.edge_array()
        kept_near = np.minimum(dist[kept[:, 0]], dist[kept[:, 1]]).mean()
        all_near = np.minimum(dist[all_edges[:, 0]], dist[all_edges[:, 1]]).mean()
        assert kept_near <= all_near

    def test_whole_graph_fits(self, graph):
        sub = budgeted_subgraph(graph, np.arange(10), 10 * graph.size_in_bits())
        assert sub == graph

    def test_zero_budget_rejected(self, graph):
        with pytest.raises(BudgetError):
            budgeted_subgraph(graph, np.arange(10), 0.0)

    def test_tiny_budget_gives_empty(self, graph):
        sub = budgeted_subgraph(graph, np.arange(10), 1.0)
        assert sub.num_edges == 0

    def test_empty_part(self, graph):
        sub = budgeted_subgraph(graph, np.asarray([], dtype=np.int64), 100.0)
        assert sub.num_edges == 0


class TestCluster:
    def test_machine_count_and_memory(self, graph, summary_cluster):
        assert summary_cluster.num_machines == 4
        budget = 0.5 * graph.size_in_bits()
        for bits in summary_cluster.memory_per_machine():
            assert bits <= budget

    def test_routing_matches_parts(self, graph, summary_cluster):
        for machine in summary_cluster.machines:
            for node in machine.part_nodes[:5]:
                assert summary_cluster.machine_for(int(node)).machine_id == machine.machine_id

    def test_communication_free(self, graph, summary_cluster):
        summary_cluster.answer(0, "rwr")
        summary_cluster.answer(1, "hop")
        summary_cluster.answer(2, "php")
        summary_cluster.assert_communication_free()

    def test_answer_many(self, graph, summary_cluster):
        answers = summary_cluster.answer_many([0, 5, 9], "hop")
        assert set(answers) == {0, 5, 9}
        for vec in answers.values():
            assert vec.shape == (graph.num_nodes,)

    def test_unknown_query_type(self, graph, summary_cluster):
        with pytest.raises(QueryError):
            summary_cluster.answer(0, "pagerank")

    def test_node_out_of_range(self, graph, summary_cluster):
        with pytest.raises(QueryError):
            summary_cluster.answer(10_000, "rwr")

    def test_overlapping_parts_rejected(self, graph):
        m = Machine(0, np.asarray([0, 1]), graph, 0.0)
        m2 = Machine(1, np.asarray([1, 2]), graph, 0.0)
        with pytest.raises(PartitionError):
            DistributedCluster(graph, [m, m2])

    def test_uncovered_nodes_rejected(self, graph):
        m = Machine(0, np.asarray([0, 1]), graph, 0.0)
        with pytest.raises(PartitionError):
            DistributedCluster(graph, [m])

    def test_empty_cluster_rejected(self, graph):
        with pytest.raises(PartitionError):
            DistributedCluster(graph, [])


class TestPipelines:
    def test_subgraph_cluster_builds(self, graph):
        cluster = build_subgraph_cluster(graph, 4, 0.4 * graph.size_in_bits())
        assert cluster.num_machines == 4
        for bits in cluster.memory_per_machine():
            assert bits <= 0.4 * graph.size_in_bits()

    def test_custom_assignment(self, graph):
        assignment = np.arange(graph.num_nodes) % 4
        cluster = build_subgraph_cluster(graph, 4, 0.4 * graph.size_in_bits(), assignment=assignment)
        assert cluster.machine_for(0).machine_id == 0
        assert cluster.machine_for(1).machine_id == 1

    def test_empty_part_rejected(self, graph):
        assignment = np.zeros(graph.num_nodes, dtype=np.int64)
        with pytest.raises(PartitionError):
            build_subgraph_cluster(graph, 2, 1000.0, assignment=assignment)

    def test_summary_cluster_personalization_helps(self, graph):
        """Each machine answers queries on its own part more accurately than
        on a foreign part (the Alg. 3 routing rationale)."""
        from repro.eval import smape
        from repro.queries import rwr_scores

        cluster = build_summary_cluster(
            graph, 2, 0.35 * graph.size_in_bits(), config=PegasusConfig(seed=3, alpha=2.0)
        )
        home_errors, away_errors = [], []
        for machine in cluster.machines:
            other = cluster.machines[1 - machine.machine_id]
            for node in machine.part_nodes[:8]:
                exact = rwr_scores(graph, int(node))
                home_errors.append(smape(exact, machine.answer(int(node), "rwr")))
                away_errors.append(smape(exact, other.answer(int(node), "rwr")))
        assert np.mean(home_errors) < np.mean(away_errors)
