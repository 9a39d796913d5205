"""Unit tests for the shared baseline machinery."""

from __future__ import annotations

import pytest

from repro.baselines._blocks import (
    PartitionState,
    density_error,
    resolve_supernode_budget,
    sample_distinct_pairs,
)
from repro.errors import GraphFormatError


class TestDensityError:
    def test_empty_or_full_block_is_lossless(self):
        assert density_error(0, 10) == 0.0
        assert density_error(10, 10) == 0.0

    def test_half_full_is_worst(self):
        p = 10.0
        errors = [density_error(e, p) for e in range(11)]
        assert max(errors) == errors[5]

    def test_zero_pairs(self):
        assert density_error(0, 0) == 0.0


class TestPartitionState:
    def test_initial_counts(self, path4):
        state = PartitionState(path4)
        assert state.num_supernodes == 4
        assert state.block_counts(1) == {0: 1.0, 2: 1.0}

    def test_merge_updates_assignment(self, path4):
        state = PartitionState(path4)
        union = state.merge(1, 2)
        assert union == 1
        assert state.assignment[2] == 1
        assert state.num_supernodes == 3
        assert state.block_counts(1)[1] == pytest.approx(1.0)  # internal edge

    def test_merge_delta_zero_for_twins(self, twins_graph):
        state = PartitionState(twins_graph)
        assert state.merge_error_delta(0, 1) == pytest.approx(0.0)

    def test_merge_delta_positive_for_dissimilar(self, twins_graph):
        state = PartitionState(twins_graph)
        assert state.merge_error_delta(0, 2) > 0.0

    def test_merge_delta_matches_brute_force(self, two_cliques):
        """Delta equals the difference of full density errors."""

        def total_error(state):
            total = 0.0
            seen = set()
            for a in state.supernodes():
                counts = state.block_counts(a)
                for b, edges in counts.items():
                    key = (min(a, b), max(a, b))
                    if key in seen:
                        continue
                    seen.add(key)
                    if a == b:
                        pairs = len(state.members[a]) * (len(state.members[a]) - 1) / 2
                    else:
                        pairs = len(state.members[a]) * len(state.members[b])
                    total += density_error(edges, pairs)
            return total

        state = PartitionState(two_cliques)
        state.merge(0, 1)
        before = total_error(state)
        delta = state.merge_error_delta(0, 2)
        state.merge(0, 2)
        assert total_error(state) - before == pytest.approx(delta)

    def test_invalid_merges_rejected(self, path4):
        state = PartitionState(path4)
        with pytest.raises(GraphFormatError):
            state.merge(0, 0)
        state.merge(0, 1)
        with pytest.raises(GraphFormatError):
            state.merge_error_delta(1, 2)

    def test_to_summary_roundtrip(self, two_cliques):
        state = PartitionState(two_cliques)
        for b in (1, 2, 3):
            state.merge(0, b)
        summary = state.to_summary()
        summary.check_invariants()
        assert summary.num_supernodes == 5
        assert summary.is_weighted


class TestHelpers:
    def test_sample_distinct_pairs(self, rng):
        pairs = sample_distinct_pairs([3, 5, 9, 11], 50, rng)
        assert len(pairs) == 50
        assert all(a != b for a, b in pairs)

    def test_sample_degenerate(self, rng):
        assert sample_distinct_pairs([1], 5, rng) == []
        assert sample_distinct_pairs([1, 2], 0, rng) == []

    def test_resolve_budget_fraction(self, ba_small):
        assert resolve_supernode_budget(ba_small, None, 0.5) == 60

    def test_resolve_budget_absolute(self, ba_small):
        assert resolve_supernode_budget(ba_small, 10, None) == 10

    def test_resolve_budget_validation(self, ba_small):
        with pytest.raises(GraphFormatError):
            resolve_supernode_budget(ba_small, None, None)
        with pytest.raises(GraphFormatError):
            resolve_supernode_budget(ba_small, 5, 0.5)
        with pytest.raises(GraphFormatError):
            resolve_supernode_budget(ba_small, None, 1.5)
        with pytest.raises(GraphFormatError):
            resolve_supernode_budget(ba_small, 0, None)

    def test_resolve_budget_caps_at_n(self, triangle):
        assert resolve_supernode_budget(triangle, 100, None) == 3
