"""Tests for RWR, HOP, PHP, and neighborhood queries (Appendix A).

Tests that take the ``stored`` fixture run twice: on the source in RAM and
on its memory-mapped reload from the binary store.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PegasusConfig, SummaryGraph, summarize
from repro.errors import QueryError
from repro.graph import Graph, bfs_distances
from repro.queries import approximate_neighbors, hop_distances, php_scores, rwr_scores
from repro.queries.php import php_scores_reference
from repro.queries.rwr import rwr_scores_reference
from repro.streaming import ResidualSource


@pytest.fixture(scope="module")
def summarized(request):
    from repro.graph import planted_partition

    graph = planted_partition(150, 5, avg_degree_in=8.0, avg_degree_out=1.0, seed=3)
    result = summarize(graph, targets=[0], compression_ratio=0.5, config=PegasusConfig(seed=1))
    return graph, result.summary


class TestNeighbors:
    def test_graph_neighbors_exact(self, ba_small):
        assert np.array_equal(approximate_neighbors(ba_small, 4), ba_small.neighbors(4))

    def test_identity_summary_neighbors_exact(self, ba_small, stored):
        summary = stored(SummaryGraph(ba_small))
        for u in (0, 7, 31):
            assert np.array_equal(approximate_neighbors(summary, u), ba_small.neighbors(u))

    def test_unsupported_source(self):
        with pytest.raises(QueryError):
            approximate_neighbors({"not": "a graph"}, 0)


class TestRwr:
    def test_scores_sum_to_one(self, summarized, stored):
        graph, summary = summarized
        for source in (stored(graph), stored(summary)):
            scores = rwr_scores(source, 0)
            assert scores.sum() == pytest.approx(1.0)
            assert scores.min() >= 0.0

    def test_query_node_has_high_score(self, summarized):
        graph, _ = summarized
        scores = rwr_scores(graph, 5)
        assert scores[5] == scores.max()

    def test_matches_reference_on_graph(self, two_cliques):
        fast = rwr_scores(two_cliques, 0)
        slow = rwr_scores_reference(two_cliques, 0)
        assert np.allclose(fast, slow, atol=1e-8)

    def test_matches_reference_on_summary(self, summarized, stored):
        summary = stored(summarized[1])
        fast = rwr_scores(summary, 3)
        slow = rwr_scores_reference(summary, 3)
        assert np.allclose(fast, slow, atol=1e-8)

    def test_identity_summary_equals_exact(self, ba_small, stored):
        exact = rwr_scores(ba_small, 0)
        via_summary = rwr_scores(stored(SummaryGraph(ba_small)), 0)
        assert np.allclose(exact, via_summary, atol=1e-10)

    def test_restart_validation(self, triangle):
        with pytest.raises(QueryError):
            rwr_scores(triangle, 0, restart=0.0)

    def test_query_out_of_range(self, triangle):
        with pytest.raises(QueryError):
            rwr_scores(triangle, 9)

    def test_higher_restart_concentrates_mass(self, ba_small):
        diffuse = rwr_scores(ba_small, 0, restart=0.05)
        focused = rwr_scores(ba_small, 0, restart=0.5)
        assert focused[0] > diffuse[0]

    def test_dangling_nodes_handled(self):
        g = Graph.from_edges(4, [(0, 1)])  # nodes 2, 3 isolated
        scores = rwr_scores(g, 0)
        assert scores.sum() == pytest.approx(1.0)
        assert scores[2] == pytest.approx(0.0)


class TestHop:
    def test_exact_on_graph(self, ba_small):
        assert np.array_equal(hop_distances(ba_small, 0), bfs_distances(ba_small, 0))

    def test_identity_summary_equals_exact(self, ba_small, stored):
        exact = bfs_distances(ba_small, 3)
        approx = hop_distances(stored(SummaryGraph(ba_small)), 3, unreachable="raw")
        assert np.array_equal(exact, approx)

    def test_summary_matches_reconstruction_bfs(self, summarized, stored):
        summary = stored(summarized[1])
        recon = summary.reconstruct()
        for q in (0, 10, 77):
            quotient = hop_distances(summary, q, unreachable="raw")
            direct = bfs_distances(recon, q)
            assert np.array_equal(quotient, direct)

    def test_self_loop_home_supernode(self, two_cliques, stored):
        summary = SummaryGraph(two_cliques)
        for b in (1, 2, 3):
            summary.merge_supernodes(0, b)
        summary.add_superedge(0, 0)
        summary.add_superedge(0, 4)
        dist = hop_distances(stored(summary), 0, unreachable="raw")
        assert dist[0] == 0
        assert dist[1] == dist[2] == dist[3] == 1  # via the self-loop
        assert dist[4] == 1

    def test_unreachable_longest_fill(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2)])
        dist = hop_distances(g, 0)
        assert dist[3] == 2  # filled with the longest observed (0->2)

    def test_unreachable_raw(self):
        g = Graph.from_edges(5, [(0, 1)])
        dist = hop_distances(g, 0, unreachable="raw")
        assert dist[4] == -1

    def test_invalid_mode(self, triangle):
        with pytest.raises(QueryError):
            hop_distances(triangle, 0, unreachable="zero")

    def test_weighted_summary_zero_weight_edges_absent(self, two_cliques, stored):
        assignment = np.asarray([0, 0, 0, 0, 1, 1, 1, 1])
        summary = stored(
            SummaryGraph.from_partition(
                two_cliques, assignment, weighted=True, superedge_rule="all_blocks"
            )
        )
        dist = hop_distances(summary, 0, unreachable="raw")
        # The bridge block (density 1/16, but present) makes every member of
        # the other supernode a level-1 neighbor in the reconstruction.
        assert dist[5] == 1
        assert np.array_equal(dist, bfs_distances(summary.reconstruct(), 0))


class TestPhp:
    def test_query_node_is_one(self, summarized, stored):
        graph, summary = summarized
        for source in (stored(graph), stored(summary)):
            scores = php_scores(source, 7)
            assert scores[7] == pytest.approx(1.0)
            assert np.all(scores <= 1.0) and np.all(scores >= 0.0)

    def test_matches_reference(self, two_cliques):
        fast = php_scores(two_cliques, 1)
        slow = php_scores_reference(two_cliques, 1)
        assert np.allclose(fast, slow, atol=1e-8)

    def test_matches_reference_on_summary(self, summarized, stored):
        summary = stored(summarized[1])
        fast = php_scores(summary, 2)
        slow = php_scores_reference(summary, 2)
        assert np.allclose(fast, slow, atol=1e-8)

    def test_decays_with_distance(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        scores = php_scores(g, 0)
        assert scores[1] > scores[2] > scores[3]

    def test_continuation_validation(self, triangle):
        with pytest.raises(QueryError):
            php_scores(triangle, 0, continuation=1.0)

    def test_isolated_nodes_zero(self):
        g = Graph.from_edges(4, [(0, 1)])
        scores = php_scores(g, 0)
        assert scores[2] == 0.0


class TestQueryNodeValidation:
    """Every kernel rejects a bad query node with ``QueryError`` on every source."""

    @staticmethod
    def _source(kind, path4):
        return {
            "graph": path4,
            "summary": SummaryGraph(path4),
            "residual": ResidualSource(SummaryGraph(path4), [(0, 3)]),
        }[kind]

    @pytest.mark.parametrize("node", [-1, "n", 1.5, True])
    @pytest.mark.parametrize("kind", ["graph", "summary", "residual"])
    @pytest.mark.parametrize("kernel", [rwr_scores, php_scores, hop_distances])
    def test_rejects_bad_node(self, kernel, kind, node, path4):
        source = self._source(kind, path4)
        if node == "n":
            node = source.num_nodes
        with pytest.raises(QueryError):
            kernel(source, node)

    @pytest.mark.parametrize("kind", ["graph", "summary", "residual"])
    @pytest.mark.parametrize("kernel", [rwr_scores, php_scores, hop_distances])
    def test_numpy_integer_node_answers(self, kernel, kind, path4):
        source = self._source(kind, path4)
        assert np.array_equal(kernel(source, np.int64(2)), kernel(source, 2))


class TestAccuracyImprovesWithBudget:
    def test_rwr_smape_decreases_with_looser_budget(self):
        """More budget -> better summaries -> better query answers."""
        from repro.eval import evaluate_query_accuracy, sample_query_nodes
        from repro.graph import planted_partition

        graph = planted_partition(200, 5, avg_degree_in=8.0, avg_degree_out=1.0, seed=3)
        queries = sample_query_nodes(graph, 10, seed=0)
        smapes = []
        for ratio in (0.2, 0.8):
            result = summarize(
                graph, targets=queries, compression_ratio=ratio, config=PegasusConfig(seed=1)
            )
            acc = evaluate_query_accuracy(graph, result.summary, queries, query_types=("rwr",))
            smapes.append(acc["rwr"].smape)
        assert smapes[1] < smapes[0]
