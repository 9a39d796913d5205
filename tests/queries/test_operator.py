"""Unit tests for the reconstructed-adjacency operator.

Summary operators are built both from summaries in RAM and from their
memory-mapped reloads (the ``stored`` fixture), as serving workers build
them for spilled machines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SummaryGraph
from repro.errors import QueryError
from repro.queries import ReconstructedOperator


def dense_adjacency(graph_or_summary):
    """Materialize Â as a dense matrix (tests only)."""
    if isinstance(graph_or_summary, SummaryGraph):
        recon = graph_or_summary.reconstruct()
    else:
        recon = graph_or_summary
    n = recon.num_nodes
    mat = np.zeros((n, n))
    for u, v in recon.edges():
        mat[u, v] = mat[v, u] = 1.0
    return mat


class TestGraphOperator:
    def test_matvec_matches_dense(self, ba_small, rng):
        op = ReconstructedOperator(ba_small)
        mat = dense_adjacency(ba_small)
        x = rng.random(ba_small.num_nodes)
        assert np.allclose(op.matvec(x), mat @ x)

    def test_degrees(self, ba_small):
        op = ReconstructedOperator(ba_small)
        assert np.array_equal(op.degrees(), ba_small.degrees())

    def test_empty_graph(self):
        from repro.graph import Graph

        op = ReconstructedOperator(Graph.empty(3))
        assert np.allclose(op.matvec(np.ones(3)), 0.0)

    def test_shape_validation(self, triangle):
        op = ReconstructedOperator(triangle)
        with pytest.raises(QueryError):
            op.matvec(np.ones(5))


class TestSummaryOperator:
    def test_matvec_matches_dense_reconstruction(self, two_cliques, rng, stored):
        summary = SummaryGraph(two_cliques)
        for b in (1, 2, 3):
            summary.merge_supernodes(0, b)
        summary.add_superedge(0, 0)
        summary.add_superedge(0, 4)
        op = ReconstructedOperator(stored(summary))
        mat = dense_adjacency(summary)
        x = rng.random(two_cliques.num_nodes)
        assert np.allclose(op.matvec(x), mat @ x)

    def test_degrees_match_reconstruction(self, two_cliques, stored):
        summary = SummaryGraph(two_cliques)
        summary.merge_supernodes(0, 1)
        summary.add_superedge(0, 0)
        summary.add_superedge(0, 2)
        op = ReconstructedOperator(stored(summary))
        expected = [summary.reconstructed_degree(u) for u in range(two_cliques.num_nodes)]
        assert np.allclose(op.degrees(), expected)

    def test_identity_summary_equals_graph_operator(self, ba_small, rng, stored):
        graph_op = ReconstructedOperator(ba_small)
        summary_op = ReconstructedOperator(stored(SummaryGraph(ba_small)))
        x = rng.random(ba_small.num_nodes)
        assert np.allclose(graph_op.matvec(x), summary_op.matvec(x))

    def test_weighted_summary_uses_density(self, two_cliques, rng, stored):
        assignment = np.asarray([0, 0, 0, 0, 1, 1, 1, 1])
        summary = SummaryGraph.from_partition(
            two_cliques, assignment, weighted=True, superedge_rule="all_blocks"
        )
        op = ReconstructedOperator(stored(summary))
        x = np.ones(8)
        # Node 0's weighted degree: internal clique density 1 over 3 peers
        # plus bridge density 1/16 toward 4 nodes.
        assert op.degrees()[0] == pytest.approx(3.0 + 4.0 / 16.0)
        assert np.allclose(op.matvec(x), op.degrees())

    def test_use_weights_false_treats_blocks_as_full(self, two_cliques, stored):
        assignment = np.asarray([0, 0, 0, 0, 1, 1, 1, 1])
        summary = SummaryGraph.from_partition(
            two_cliques, assignment, weighted=True, superedge_rule="all_blocks"
        )
        op = ReconstructedOperator(stored(summary), use_weights=False)
        assert op.degrees()[0] == pytest.approx(3.0 + 4.0)

    def test_unsupported_source(self):
        with pytest.raises(QueryError):
            ReconstructedOperator([1, 2, 3])
