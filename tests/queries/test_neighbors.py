"""Direct unit tests for the neighborhood query (Alg. 4: ``getNeighbors``).

The primitive every other query builds on; ``test_queries.py`` touches it
only incidentally.  Contracts pinned here: exactness on graphs and
identity summaries, correct block decoding after merges
(self-loops, lossless twin merges), the positive-weight presence rule for
weighted summaries, and sorted/clean output — on sources held in RAM and
memory-mapped from the binary store alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PegasusConfig, SummaryGraph, summarize
from repro.errors import GraphFormatError, QueryError
from repro.graph import planted_partition
from repro.queries import approximate_neighbors


class TestExactness:
    def test_graph_is_exact(self, ba_small, stored):
        source = stored(ba_small)
        for node in (0, 13, 99):
            assert np.array_equal(approximate_neighbors(source, node), ba_small.neighbors(node))

    def test_identity_summary_is_exact(self, ba_small, stored):
        summary = stored(SummaryGraph(ba_small))
        for node in range(0, ba_small.num_nodes, 17):
            assert np.array_equal(
                approximate_neighbors(summary, node), ba_small.neighbors(node)
            )

    def test_lossless_twin_merge_is_exact(self, twins_graph, stored):
        """Merging twins (identical neighborhoods) must not change any
        reconstructed neighborhood (the canonical lossless merge)."""
        summary = SummaryGraph(twins_graph)
        summary.merge_supernodes(0, 1)
        summary.add_superedge(0, 2)
        summary.add_superedge(0, 3)
        summary = stored(summary)
        for node in range(twins_graph.num_nodes):
            assert np.array_equal(
                approximate_neighbors(summary, node), twins_graph.neighbors(node)
            ), f"twin merge changed the neighborhood of {node}"


class TestBlockDecoding:
    def test_self_loop_decodes_to_clique(self, two_cliques, stored):
        summary = SummaryGraph(two_cliques)
        for b in (1, 2, 3):
            summary.merge_supernodes(0, b)
        summary.add_superedge(0, 0)
        summary = stored(summary)
        for node in (0, 1, 2, 3):
            expected = sorted(set(range(4)) - {node})
            assert approximate_neighbors(summary, node).tolist() == expected

    def test_no_self_loop_means_no_internal_edges(self, two_cliques, stored):
        summary = SummaryGraph(two_cliques)
        for b in (1, 2, 3):
            summary.merge_supernodes(0, b)
        summary = stored(summary)
        # No self-loop: the merged clique decodes as an independent set.
        for node in (0, 1, 2, 3):
            assert approximate_neighbors(summary, node).size == 0

    def test_output_sorted_unique_and_excludes_self(self, sbm_medium, stored):
        result = summarize(
            sbm_medium, targets=[0], compression_ratio=0.5, config=PegasusConfig(seed=2)
        )
        summary = stored(result.summary)
        for node in (0, 42, 137):
            neighbors = approximate_neighbors(summary, node)
            assert node not in neighbors
            assert np.array_equal(neighbors, np.unique(neighbors))  # sorted, no dups


class TestCompressedSummaries:
    def test_bounded_error_after_compression(self, stored):
        """After moderate compression the decoded neighborhoods overlap the
        true ones substantially (mean Jaccard well above zero)."""
        graph = planted_partition(120, 4, avg_degree_in=8.0, avg_degree_out=0.8, seed=6)
        result = summarize(
            graph,
            targets=[0],
            compression_ratio=0.5,
            config=PegasusConfig(seed=3),
        )
        summary = stored(result.summary)
        scores = []
        for node in range(graph.num_nodes):
            exact = set(graph.neighbors(node).tolist())
            approx = set(approximate_neighbors(summary, node).tolist())
            union = exact | approx
            if union:
                scores.append(len(exact & approx) / len(union))
        assert float(np.mean(scores)) > 0.3


class TestWeightedSummaries:
    def test_positive_weight_counts_as_present(self, two_cliques, stored):
        assignment = np.asarray([0, 0, 0, 0, 1, 1, 1, 1])
        summary = stored(
            SummaryGraph.from_partition(
                two_cliques, assignment, weighted=True, superedge_rule="all_blocks"
            )
        )
        # The bridge block has density 1/16 but positive weight: present.
        neighbors = approximate_neighbors(summary, 0)
        assert 4 in neighbors and 7 in neighbors


class TestValidation:
    def test_unsupported_source(self):
        with pytest.raises(QueryError):
            approximate_neighbors({"not": "a graph"}, 0)

    def test_node_out_of_range(self, triangle, stored):
        with pytest.raises(GraphFormatError):
            approximate_neighbors(stored(SummaryGraph(triangle)), 99)
