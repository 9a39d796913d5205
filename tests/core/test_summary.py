"""Unit tests for the SummaryGraph structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SummaryGraph
from repro.errors import GraphFormatError


class TestIdentityInitialization:
    def test_singleton_supernodes(self, two_cliques):
        s = SummaryGraph(two_cliques)
        assert s.num_supernodes == two_cliques.num_nodes
        assert s.num_superedges == two_cliques.num_edges

    def test_identity_reconstructs_exactly(self, two_cliques):
        s = SummaryGraph(two_cliques)
        assert s.reconstruct() == two_cliques

    def test_identity_neighbors_match(self, ba_small):
        s = SummaryGraph(ba_small)
        for u in (0, 5, 50):
            assert np.array_equal(s.reconstructed_neighbors(u), ba_small.neighbors(u))

    def test_invariants_hold(self, ba_small):
        SummaryGraph(ba_small).check_invariants()


class TestMerging:
    def test_merge_updates_partition(self, two_cliques):
        s = SummaryGraph(two_cliques)
        union, former = s.merge_supernodes(0, 1)
        assert union == 0
        assert s.num_supernodes == 7
        assert s.supernode_of[1] == 0
        assert set(s.members(0).tolist()) == {0, 1}
        assert former  # the cliques give both endpoints neighbors

    def test_merge_drops_incident_superedges(self, triangle):
        s = SummaryGraph(triangle)
        s.merge_supernodes(0, 1)
        assert not s.has_superedge(0, 2)
        assert s.num_superedges == 0  # superedge {1,2} was incident to 1 too

    def test_merge_self_rejected(self, triangle):
        s = SummaryGraph(triangle)
        with pytest.raises(GraphFormatError):
            s.merge_supernodes(0, 0)

    def test_merge_dead_supernode_rejected(self, triangle):
        s = SummaryGraph(triangle)
        s.merge_supernodes(0, 1)
        with pytest.raises(GraphFormatError):
            s.merge_supernodes(1, 2)

    def test_invariants_after_merges(self, ba_small, rng):
        s = SummaryGraph(ba_small)
        alive = s.supernodes()
        for _ in range(30):
            a, b = rng.choice(len(alive), size=2, replace=False)
            union, _ = s.merge_supernodes(alive[a], alive[b])
            alive = s.supernodes()
        s.check_invariants()


class TestSuperedges:
    def test_add_remove_roundtrip(self, path4):
        s = SummaryGraph(path4)
        before = s.num_superedges
        s.remove_superedge(0, 1)
        assert s.num_superedges == before - 1
        s.add_superedge(0, 1)
        assert s.num_superedges == before

    def test_add_idempotent(self, path4):
        s = SummaryGraph(path4)
        before = s.num_superedges
        s.add_superedge(0, 1)
        assert s.num_superedges == before

    def test_self_loop_counts_once(self, two_cliques):
        s = SummaryGraph(two_cliques)
        s.merge_supernodes(0, 1)
        before = s.num_superedges
        s.add_superedge(0, 0)
        assert s.num_superedges == before + 1
        assert s.has_superedge(0, 0)

    def test_remove_missing_is_noop(self, path4):
        s = SummaryGraph(path4)
        before = s.num_superedges
        s.remove_superedge(0, 3)
        assert s.num_superedges == before

    def test_superedge_to_dead_supernode_rejected(self, triangle):
        s = SummaryGraph(triangle)
        s.merge_supernodes(0, 1)
        with pytest.raises(GraphFormatError):
            s.add_superedge(0, 1)


class TestReconstruction:
    def test_self_loop_connects_members(self, two_cliques):
        s = SummaryGraph(two_cliques)
        for b in (1, 2, 3):
            s.merge_supernodes(0, b)
        s.add_superedge(0, 0)
        neighbors = s.reconstructed_neighbors(0)
        assert set(neighbors.tolist()) >= {1, 2, 3}
        assert 0 not in neighbors

    def test_reconstructed_degree_matches_neighbors(self, two_cliques):
        s = SummaryGraph(two_cliques)
        s.merge_supernodes(0, 1)
        s.add_superedge(0, 0)
        s.add_superedge(0, 2)
        for u in range(two_cliques.num_nodes):
            assert s.reconstructed_degree(u) == s.reconstructed_neighbors(u).size

    def test_reconstructed_edge_count(self, two_cliques):
        s = SummaryGraph(two_cliques)
        assert s.reconstructed_edge_count() == two_cliques.num_edges
        s.merge_supernodes(0, 1)
        s.add_superedge(0, 0)
        assert s.reconstructed_edge_count() == s.reconstruct().num_edges

    def test_out_of_range_node(self, triangle):
        s = SummaryGraph(triangle)
        with pytest.raises(GraphFormatError):
            s.reconstructed_neighbors(10)


class TestSizeModel:
    def test_identity_size_eq3(self, ba_small):
        s = SummaryGraph(ba_small)
        n = ba_small.num_nodes
        expected = 2 * ba_small.num_edges * np.log2(n) + n * np.log2(n)
        assert s.size_in_bits() == pytest.approx(expected)

    def test_size_shrinks_with_merges_and_drops(self, two_cliques):
        s = SummaryGraph(two_cliques)
        before = s.size_in_bits()
        s.merge_supernodes(0, 1)
        s.add_superedge(0, 0)
        assert s.size_in_bits() < before

    def test_compression_ratio_identity_above_zero(self, ba_small):
        s = SummaryGraph(ba_small)
        # Identity summary costs strictly more than the input encoding
        # (membership bits on top of the edges).
        assert s.compression_ratio() > 1.0

    def test_weighted_size_uses_weight_bits(self, two_cliques):
        unweighted = SummaryGraph(two_cliques)
        weighted = SummaryGraph(two_cliques, weighted=True)
        # All weights are 1 -> no extra bits.
        assert weighted.size_in_bits() == pytest.approx(unweighted.size_in_bits())
        weighted.add_superedge(0, 1, weight=9.0)
        assert weighted.size_in_bits() > unweighted.size_in_bits()


class TestWeightedSummaries:
    def test_weight_roundtrip(self, path4):
        s = SummaryGraph(path4, weighted=True)
        s.add_superedge(0, 1, weight=3.0)
        assert s.superedge_weight(0, 1) == 3.0
        assert s.superedge_weight(1, 0) == 3.0

    def test_weight_on_unweighted_rejected(self, path4):
        s = SummaryGraph(path4)
        with pytest.raises(GraphFormatError):
            s.superedge_weight(0, 1)

    def test_density_unweighted_is_presence(self, path4):
        s = SummaryGraph(path4)
        assert s.superedge_density(0, 1) == 1.0
        assert s.superedge_density(0, 3) == 0.0

    def test_density_weighted_is_count_over_pairs(self, two_cliques):
        assignment = np.asarray([0, 0, 0, 0, 1, 1, 1, 1])
        s = SummaryGraph.from_partition(two_cliques, assignment, weighted=True, superedge_rule="all_blocks")
        # Each clique block: 6 edges over 6 pairs.
        assert s.superedge_density(0, 0) == pytest.approx(1.0)
        # Bridge block: 1 edge over 16 pairs.
        assert s.superedge_density(0, 4) == pytest.approx(1.0 / 16.0)


class TestFromPartition:
    def test_partition_shapes(self, two_cliques):
        assignment = np.asarray([0, 0, 0, 0, 1, 1, 1, 1])
        s = SummaryGraph.from_partition(two_cliques, assignment)
        assert s.num_supernodes == 2
        assert sorted(s.supernodes()) == [0, 4]
        s.check_invariants()

    def test_majority_rule_keeps_dense_blocks_only(self, two_cliques):
        assignment = np.asarray([0, 0, 0, 0, 1, 1, 1, 1])
        s = SummaryGraph.from_partition(two_cliques, assignment, superedge_rule="majority")
        assert s.has_superedge(0, 0)
        assert s.has_superedge(4, 4)
        assert not s.has_superedge(0, 4)  # bridge density 1/16 < 0.5

    def test_all_blocks_rule_keeps_bridge(self, two_cliques):
        assignment = np.asarray([0, 0, 0, 0, 1, 1, 1, 1])
        s = SummaryGraph.from_partition(two_cliques, assignment, superedge_rule="all_blocks")
        assert s.has_superedge(0, 4)

    def test_arbitrary_labels_compacted(self, triangle):
        s = SummaryGraph.from_partition(triangle, np.asarray([7, 7, 99]))
        assert s.num_supernodes == 2
        assert set(s.members(0).tolist()) == {0, 1}

    def test_wrong_shape_rejected(self, triangle):
        with pytest.raises(GraphFormatError):
            SummaryGraph.from_partition(triangle, np.asarray([0, 1]))

    def test_unknown_rule_rejected(self, triangle):
        with pytest.raises(GraphFormatError):
            SummaryGraph.from_partition(triangle, np.zeros(3), superedge_rule="bogus")
