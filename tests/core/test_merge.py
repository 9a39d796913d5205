"""Unit tests for the merging-and-addition step (Alg. 2), one group at a time."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AdaptiveThreshold,
    BatchCostEvaluator,
    CostModel,
    PersonalizedWeights,
    SummaryGraph,
)
from repro.core.merge import GroupMergeStats, merge_groups
from repro.graph import connected_caveman


def make_state(graph):
    summary = SummaryGraph(graph)
    model = CostModel(summary, PersonalizedWeights.uniform(graph))
    return model, summary


def merge_within_group(model, group, threshold, rng, **kwargs):
    """The merge loop over a single candidate group."""
    return merge_groups(
        model, [group], threshold, rng, evaluator=BatchCostEvaluator(model), **kwargs
    )


class TestMergeWithinGroup:
    def test_clique_group_collapses(self, caveman):
        """A clique's supernodes merge readily under a permissive threshold."""
        model, summary = make_state(caveman)
        group = np.arange(5)  # first clique
        threshold = AdaptiveThreshold(beta=0.1, initial=0.0)
        stats = merge_within_group(model, group, threshold, np.random.default_rng(0))
        assert stats.merges >= 3
        summary.check_invariants()

    def test_strict_threshold_blocks_merges(self, caveman):
        model, summary = make_state(caveman)
        group = np.arange(5)
        threshold = AdaptiveThreshold(beta=0.1, initial=0.99)
        stats = merge_within_group(model, group, threshold, np.random.default_rng(0))
        assert stats.merges == 0
        assert threshold.rejected_count == stats.attempts

    def test_rejections_recorded(self, caveman):
        model, _ = make_state(caveman)
        threshold = AdaptiveThreshold(beta=0.1, initial=2.0)  # unreachable
        stats = merge_within_group(model, np.arange(5), threshold, np.random.default_rng(0))
        # Fails log2(5) + 1 times in a row, then stops.
        assert stats.attempts >= 2
        assert threshold.rejected_count == stats.attempts

    def test_single_member_group_noop(self, caveman):
        model, _ = make_state(caveman)
        stats = merge_within_group(
            model, np.asarray([0]), AdaptiveThreshold(), np.random.default_rng(0)
        )
        assert stats == GroupMergeStats()

    def test_absolute_objective_supported(self, caveman):
        model, summary = make_state(caveman)
        threshold = AdaptiveThreshold(beta=0.1, initial=0.0)
        stats = merge_within_group(
            model, np.arange(5), threshold, np.random.default_rng(0), objective="absolute"
        )
        assert stats.merges >= 1
        summary.check_invariants()

    def test_unknown_objective_rejected(self, caveman):
        model, _ = make_state(caveman)
        with pytest.raises(ValueError):
            merge_within_group(
                model, np.arange(5), AdaptiveThreshold(), np.random.default_rng(0), objective="x"
            )

    def test_deterministic_given_rng(self, caveman):
        results = []
        for _ in range(2):
            model, summary = make_state(caveman)
            threshold = AdaptiveThreshold(beta=0.1, initial=0.0)
            merge_within_group(model, np.arange(5), threshold, np.random.default_rng(42))
            results.append(sorted(summary.supernodes()))
        assert results[0] == results[1]

    def test_evaluation_budget_bounded(self):
        """Per attempt, at most |C_i| pair evaluations happen."""
        graph = connected_caveman(4, 6)
        model, _ = make_state(graph)
        threshold = AdaptiveThreshold(beta=0.1, initial=0.0)
        group = np.arange(12)
        stats = merge_within_group(model, group, threshold, np.random.default_rng(1))
        assert stats.evaluations <= stats.attempts * group.size
