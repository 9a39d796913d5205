"""Degenerate-input coverage for the evaluation harness.

The harness of ``repro.eval.harness`` backs every accuracy figure, so
its edge cases — an empty query set, a single-node graph, a summary
whose merges are all lossless — must produce well-defined numbers
instead of NaNs, division errors, or crashes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PegasusConfig, PersonalizedWeights, SummaryGraph, summarize
from repro.errors import QueryError
from repro.eval import (
    QueryAccuracy,
    evaluate_query_accuracy,
    relative_personalized_error,
    sample_query_nodes,
    smape,
    spearman_correlation,
    time_call,
)
from repro.graph import Graph
from repro.queries import rwr_scores


@pytest.fixture
def single_node() -> Graph:
    return Graph.from_edges(1, [])


class TestEmptyQuerySet:
    def test_zero_queries_yield_zero_means_not_nan(self, sbm_medium):
        results = evaluate_query_accuracy(sbm_medium, SummaryGraph(sbm_medium), [])
        assert set(results) == {"rwr", "hop", "php"}
        for accuracy in results.values():
            assert isinstance(accuracy, QueryAccuracy)
            assert accuracy.num_queries == 0
            assert accuracy.smape == 0.0
            assert accuracy.spearman == 0.0
            assert not np.isnan(accuracy.smape)

    def test_sampling_zero_nodes(self, sbm_medium):
        nodes = sample_query_nodes(sbm_medium, 0, seed=1)
        assert nodes.size == 0

    def test_unknown_query_type_rejected_even_with_no_queries(self, sbm_medium):
        with pytest.raises(QueryError):
            evaluate_query_accuracy(
                sbm_medium, SummaryGraph(sbm_medium), [], query_types=("pagerank",)
            )


class TestQueryNodeValidation:
    @pytest.mark.parametrize("node", [3.7, True])
    def test_non_integral_and_boolean_nodes_rejected(self, sbm_medium, node):
        """The kernels' node check: no truncation to node 3, no bool as node 1."""
        with pytest.raises(QueryError):
            evaluate_query_accuracy(
                sbm_medium, SummaryGraph(sbm_medium), [node], query_types=("rwr",)
            )

    def test_answer_on_receives_int_nodes(self, sbm_medium):
        """Numpy node arrays (what ``sample_query_nodes`` returns) reach
        an ``answer_on`` callback as plain ``int`` node ids."""
        seen = []

        def answer_on(node, query_type):
            seen.append(node)
            return rwr_scores(sbm_medium, node)

        evaluate_query_accuracy(
            sbm_medium, None, np.asarray([3, 5]), query_types=("rwr",), answer_on=answer_on
        )
        assert seen == [3, 5] and [type(node) for node in seen] == [int, int]


class TestSingleNodeGraph:
    def test_harness_survives_a_single_node_graph(self, single_node):
        queries = sample_query_nodes(single_node, 5, seed=0)
        assert queries.tolist() == [0]  # clamped to the one node
        results = evaluate_query_accuracy(single_node, SummaryGraph(single_node), queries)
        for accuracy in results.values():
            assert accuracy.num_queries == 1
            assert accuracy.smape == 0.0  # exact == approximate, trivially
            # One-element score vectors have undefined rank correlation;
            # the convention is 0, not NaN.
            assert accuracy.spearman == 0.0

    def test_metrics_on_length_one_vectors(self):
        one = np.asarray([2.0])
        assert smape(one, one) == 0.0
        assert spearman_correlation(one, one) == 0.0


class TestAllLosslessSummary:
    def test_lossless_merges_keep_answers_exact(self, twins_graph):
        """Merging twins is lossless: the compressed summary must answer
        every query type exactly (SMAPE 0, Spearman 1)."""
        result = summarize(
            twins_graph,
            targets=[4],
            compression_ratio=0.9,
            config=PegasusConfig(seed=0),
        )
        queries = list(range(twins_graph.num_nodes))
        accuracy = evaluate_query_accuracy(twins_graph, result.summary, queries)
        for query_type, acc in accuracy.items():
            assert acc.smape == pytest.approx(0.0, abs=1e-9), query_type
            assert acc.spearman == pytest.approx(1.0, abs=1e-9), query_type

    def test_relative_error_of_lossless_vs_lossless_is_one(self, twins_graph):
        weights = PersonalizedWeights(twins_graph, [4], alpha=1.5)
        identity = SummaryGraph(twins_graph)
        assert relative_personalized_error(identity, identity, weights) == 1.0


class TestTimeCall:
    def test_elapsed_is_nonnegative_and_result_passed_through(self):
        value, elapsed = time_call(lambda: {"answer": 42})
        assert value == {"answer": 42}
        assert elapsed >= 0.0

    def test_exceptions_propagate(self):
        with pytest.raises(RuntimeError):
            time_call(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
