"""Parallel cluster builds and batch serving: the determinism contract.

Pins the PR-2 guarantees: (a) ``build_summary_cluster`` /
``build_subgraph_cluster`` produce byte-identical machines at any worker
count, (b) ``answer_batch`` answers exactly like the per-query loop for
every query type, sequentially and in parallel, and (c) the
communication-free property survives both parallel paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PegasusConfig, save_summary
from repro.distributed import build_subgraph_cluster, build_summary_cluster
from repro.errors import QueryError
from repro.graph import planted_partition
from repro.partitioning import louvain_partition

QUERY_TYPES = ("rwr", "hop", "php")


@pytest.fixture(scope="module")
def graph():
    return planted_partition(160, 4, avg_degree_in=8.0, avg_degree_out=1.0, seed=2)


@pytest.fixture(scope="module")
def config():
    return PegasusConfig(seed=1, t_max=8)


@pytest.fixture(scope="module")
def sequential_cluster(graph, config):
    return build_summary_cluster(graph, 4, 0.5 * graph.size_in_bits(), config=config, workers=1)


@pytest.fixture(scope="module")
def parallel_cluster(graph, config):
    return build_summary_cluster(graph, 4, 0.5 * graph.size_in_bits(), config=config, workers=4)


def _summary_bytes(summary, tmp_path, name):
    path = tmp_path / name
    save_summary(summary, path)
    return path.read_bytes()


class TestParallelSummaryCluster:
    def test_machine_summaries_byte_identical(
        self, sequential_cluster, parallel_cluster, tmp_path
    ):
        assert sequential_cluster.num_machines == parallel_cluster.num_machines
        for seq, par in zip(sequential_cluster.machines, parallel_cluster.machines):
            assert seq.machine_id == par.machine_id
            assert np.array_equal(seq.part_nodes, par.part_nodes)
            assert seq.memory_bits == par.memory_bits
            assert _summary_bytes(seq.source, tmp_path, f"seq{seq.machine_id}") == _summary_bytes(
                par.source, tmp_path, f"par{par.machine_id}"
            )

    def test_two_machine_builds_in_parallel(self, graph, tmp_path):
        budget = 0.5 * graph.size_in_bits()
        clusters = [
            build_summary_cluster(
                graph,
                2,
                budget,
                config=PegasusConfig(seed=1, t_max=5),
                workers=workers,
            )
            for workers in (1, 2)
        ]
        for seq, par in zip(clusters[0].machines, clusters[1].machines):
            assert _summary_bytes(seq.source, tmp_path, "fseq") == _summary_bytes(
                par.source, tmp_path, "fpar"
            )

    def test_communication_free_after_parallel_build(self, parallel_cluster):
        parallel_cluster.answer(0, "rwr")
        parallel_cluster.answer(1, "hop")
        parallel_cluster.assert_communication_free()

    def test_partitioner_seed_is_threaded(self, graph, config):
        cluster = build_summary_cluster(
            graph, 4, 0.5 * graph.size_in_bits(), config=config, seed=7
        )
        expected = louvain_partition(graph, 4, seed=7)
        route = np.full(graph.num_nodes, -1, dtype=np.int64)
        for machine in cluster.machines:
            route[machine.part_nodes] = machine.machine_id
        assert np.array_equal(route, expected)

    def test_default_config_build_is_reproducible(self, graph, tmp_path):
        """Without an explicit config, *seed* also seeds the summarizer —
        the seed used to stop at the partitioner, leaving default builds
        non-reproducible at any worker count."""
        budget = 0.5 * graph.size_in_bits()
        first = build_summary_cluster(graph, 2, budget, seed=3, workers=1)
        second = build_summary_cluster(graph, 2, budget, seed=3, workers=2)
        for seq, par in zip(first.machines, second.machines):
            assert _summary_bytes(seq.source, tmp_path, "d1") == _summary_bytes(
                par.source, tmp_path, "d2"
            )


class TestParallelSubgraphCluster:
    def test_machines_identical_at_any_worker_count(self, graph):
        budget = 0.4 * graph.size_in_bits()
        seq = build_subgraph_cluster(graph, 4, budget, workers=1)
        par = build_subgraph_cluster(graph, 4, budget, workers=3)
        for m_seq, m_par in zip(seq.machines, par.machines):
            assert np.array_equal(m_seq.part_nodes, m_par.part_nodes)
            assert m_seq.source == m_par.source
            assert m_seq.memory_bits == m_par.memory_bits

    def test_partitioner_seed_is_threaded(self, graph):
        budget = 0.4 * graph.size_in_bits()
        cluster = build_subgraph_cluster(graph, 4, budget, seed=9)
        expected = louvain_partition(graph, 4, seed=9)
        route = np.full(graph.num_nodes, -1, dtype=np.int64)
        for machine in cluster.machines:
            route[machine.part_nodes] = machine.machine_id
        assert np.array_equal(route, expected)


class TestAnswerBatch:
    @pytest.mark.parametrize("query_type", QUERY_TYPES)
    def test_matches_per_query_loop(self, sequential_cluster, query_type):
        nodes = [0, 5, 9, 40, 80, 121]
        expected = sequential_cluster.answer_many(nodes, query_type)
        batch = sequential_cluster.answer_batch(nodes, query_type)
        assert list(batch) == [int(n) for n in nodes]
        for node in expected:
            assert np.array_equal(expected[node], batch[node])

    @pytest.mark.parametrize("query_type", QUERY_TYPES)
    def test_parallel_matches_sequential(self, parallel_cluster, query_type):
        nodes = [0, 5, 9, 40, 80, 121]
        sequential = parallel_cluster.answer_batch(nodes, query_type, workers=1)
        parallel = parallel_cluster.answer_batch(nodes, query_type, workers=2)
        for node in sequential:
            assert np.array_equal(sequential[node], parallel[node])

    def test_duplicate_nodes_preserved(self, sequential_cluster):
        batch = sequential_cluster.answer_batch([3, 3, 7], "hop")
        assert set(batch) == {3, 7}
        assert np.array_equal(batch[3], sequential_cluster.answer(3, "hop"))

    def test_dict_return_dedupes_duplicate_nodes(self, sequential_cluster):
        """Documented contract: the dict-returning batch APIs collapse
        repeated query nodes to one entry, so callers that need one
        answer per *request* (the serving layer) must not route through
        them.  ``repro.serving`` pins the per-request side."""
        nodes = [5, 5, 5, 9]
        for api in (sequential_cluster.answer_many, sequential_cluster.answer_batch):
            answers = api(nodes, "rwr")
            assert len(answers) == 2  # not 4: duplicates silently collapse
            assert list(answers) == [5, 9]

    def test_empty_batch(self, sequential_cluster):
        assert sequential_cluster.answer_batch([], "rwr") == {}

    def test_out_of_range_node_rejected(self, sequential_cluster):
        with pytest.raises(QueryError):
            sequential_cluster.answer_batch([0, 10_000], "rwr")

    def test_unknown_query_type_rejected(self, sequential_cluster):
        with pytest.raises(QueryError):
            sequential_cluster.answer_batch([0], "pagerank")

    def test_batch_stays_communication_free(self, parallel_cluster):
        parallel_cluster.answer_batch([0, 41, 81, 121], "rwr", workers=2)
        parallel_cluster.assert_communication_free()

    def test_subgraph_cluster_batch(self, graph):
        cluster = build_subgraph_cluster(graph, 4, 0.4 * graph.size_in_bits())
        nodes = [1, 50, 100]
        expected = cluster.answer_many(nodes, "rwr")
        batch = cluster.answer_batch(nodes, "rwr", workers=2)
        for node in expected:
            assert np.array_equal(expected[node], batch[node])
