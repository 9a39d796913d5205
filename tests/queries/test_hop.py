"""Direct unit tests for the HOP query (Alg. 5): quotient-space BFS vs the
``getNeighbors``-driven reference, on input graphs and on summaries, each
held in RAM and memory-mapped from the binary store.

``test_queries.py`` covers HOP only through integration paths; these tests
pin its unit-level contracts: exactness on identity summaries, agreement
between the optimized quotient BFS and the literal Alg. 5 reference,
bounded approximation error after compression, and the unreachable-node
conventions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PegasusConfig, SummaryGraph, summarize
from repro.errors import QueryError
from repro.graph import Graph, bfs_distances, planted_partition
from repro.queries.hop import hop_distances, hop_distances_reference


@pytest.fixture(scope="module")
def compressed():
    graph = planted_partition(140, 5, avg_degree_in=8.0, avg_degree_out=1.2, seed=9)
    summary = summarize(
        graph,
        targets=[0],
        compression_ratio=0.5,
        config=PegasusConfig(seed=4),
    ).summary
    return graph, summary


class TestExactOnGraphs:
    def test_matches_bfs(self, ba_small, stored):
        source = stored(ba_small)
        for query in (0, 17, 63):
            assert np.array_equal(
                hop_distances(source, query, unreachable="raw"),
                bfs_distances(ba_small, query),
            )

    def test_reference_matches_bfs(self, ba_small, stored):
        assert np.array_equal(
            hop_distances_reference(stored(ba_small), 5, unreachable="raw"),
            bfs_distances(ba_small, 5),
        )

    def test_disconnected_longest_fill(self, stored):
        graph = stored(Graph.from_edges(5, [(0, 1), (1, 2)]))  # nodes 3, 4 isolated
        raw = hop_distances(graph, 0, unreachable="raw")
        assert raw[3] == raw[4] == -1
        filled = hop_distances(graph, 0)
        assert filled[3] == filled[4] == 2  # longest observed shortest path
        assert filled[2] == 2


class TestExactOnIdentitySummaries:
    def test_identity_summary_is_exact(self, ba_small, stored):
        summary = stored(SummaryGraph(ba_small))
        for query in (0, 17, 63):
            assert np.array_equal(
                hop_distances(summary, query), hop_distances(ba_small, query)
            )

    def test_identity_reference_is_exact(self, path4, stored):
        summary = stored(SummaryGraph(path4))
        assert np.array_equal(
            hop_distances_reference(summary, 0), hop_distances(path4, 0)
        )


class TestOnCompressedSummaries:
    def test_quotient_bfs_matches_reference(self, compressed, stored):
        """The optimized quotient-space BFS is exactly the literal Alg. 5."""
        summary = stored(compressed[1])
        for query in (0, 25, 77, 139):
            assert np.array_equal(
                hop_distances(summary, query),
                hop_distances_reference(summary, query),
            ), f"quotient BFS deviates from Alg. 5 at query {query}"

    def test_error_bounded_after_compression(self, compressed, stored):
        """Compression changes distances but boundedly: answers stay within
        the graph's exact eccentricity from the query, and the mean
        absolute error stays small relative to it."""
        graph, summary = compressed
        summary = stored(summary)
        for query in (0, 25, 77):
            exact = hop_distances(graph, query).astype(np.float64)
            approx = hop_distances(summary, query).astype(np.float64)
            eccentricity = exact.max()
            assert approx.max() <= 2 * eccentricity
            assert np.abs(exact - approx).mean() <= eccentricity / 2.0

    def test_merged_clique_keeps_distance_structure(self, two_cliques, stored):
        """Collapsing one clique to a self-looped supernode preserves the
        hop profile of the two-clique graph exactly."""
        summary = SummaryGraph(two_cliques)
        for b in (1, 2, 3):
            summary.merge_supernodes(0, b)
        summary.add_superedge(0, 0)
        summary.add_superedge(0, 4)  # rebuild the bridge block {0..3} x {4}
        dist = hop_distances(stored(summary), 0)
        assert dist[0] == 0
        assert set(dist[[1, 2, 3]].tolist()) == {1}
        assert dist[4] == 1  # bridge block decodes to all pairs


class TestValidation:
    def test_query_out_of_range(self, triangle, stored):
        with pytest.raises(QueryError):
            hop_distances(stored(SummaryGraph(triangle)), 10)
        with pytest.raises(QueryError):
            hop_distances_reference(triangle, -1)

    def test_unknown_unreachable_mode(self, triangle):
        with pytest.raises(QueryError):
            hop_distances(triangle, 0, unreachable="bogus")
        with pytest.raises(QueryError):
            hop_distances_reference(triangle, 0, unreachable="bogus")

    def test_unsupported_source(self):
        with pytest.raises(QueryError):
            hop_distances([[0, 1]], 0)
