"""Tests for the lossless edge-correction extension."""

from __future__ import annotations

import pytest

from repro.core import PegasusConfig, PersonalizedWeights, SummaryGraph, personalized_error, summarize
from repro.core.corrections import CorrectionSet, compute_corrections, decode, lossless_size_in_bits


class TestComputeCorrections:
    def test_identity_summary_needs_none(self, two_cliques):
        corrections = compute_corrections(SummaryGraph(two_cliques))
        assert corrections.count == 0
        assert corrections.size_in_bits() == 0.0

    def test_dropped_superedge_becomes_positive(self, two_cliques):
        summary = SummaryGraph(two_cliques)
        summary.remove_superedge(3, 4)
        corrections = compute_corrections(summary)
        assert corrections.positive == [(3, 4)]
        assert corrections.negative == []

    def test_spurious_superedge_becomes_negative(self, path4):
        summary = SummaryGraph(path4)
        summary.add_superedge(0, 3)
        corrections = compute_corrections(summary)
        assert corrections.positive == []
        assert corrections.negative == [(0, 3)]

    def test_self_loop_block_negatives(self, two_cliques):
        summary = SummaryGraph(two_cliques)
        summary.merge_supernodes(0, 4)  # nodes 0 and 4 are NOT adjacent
        summary.add_superedge(0, 0)
        corrections = compute_corrections(summary)
        assert (0, 4) in corrections.negative

    def test_correction_count_matches_uniform_error(self, sbm_medium):
        """|E+|+|E−| equals half the uniform personalized error (Eq. 1
        counts each flipped pair twice)."""
        result = summarize(sbm_medium, compression_ratio=0.4, config=PegasusConfig(seed=1))
        corrections = compute_corrections(result.summary)
        uniform = PersonalizedWeights.uniform(sbm_medium)
        assert corrections.count == pytest.approx(
            personalized_error(result.summary, uniform) / 2.0
        )


class TestDecode:
    def test_lossless_roundtrip_after_summarization(self, sbm_medium):
        result = summarize(sbm_medium, compression_ratio=0.3, config=PegasusConfig(seed=2))
        corrections = compute_corrections(result.summary)
        assert decode(result.summary, corrections) == sbm_medium

    def test_lossless_roundtrip_random_partition(self, two_cliques, rng):
        assignment = rng.integers(0, 3, two_cliques.num_nodes)
        summary = SummaryGraph.from_partition(two_cliques, assignment)
        corrections = compute_corrections(summary)
        assert decode(summary, corrections) == two_cliques

    def test_empty_graph_decode(self):
        from repro.graph import Graph

        graph = Graph.empty(4)
        summary = SummaryGraph(graph)
        assert decode(summary, compute_corrections(summary)) == graph


class TestSizeAccounting:
    def test_lossless_size_components(self, sbm_medium):
        result = summarize(sbm_medium, compression_ratio=0.4, config=PegasusConfig(seed=1))
        corrections = compute_corrections(result.summary)
        total = lossless_size_in_bits(result.summary, corrections)
        assert total == pytest.approx(
            result.summary.size_in_bits() + corrections.size_in_bits()
        )

    def test_lossless_size_without_precomputed(self, sbm_medium):
        result = summarize(sbm_medium, compression_ratio=0.4, config=PegasusConfig(seed=1))
        assert lossless_size_in_bits(result.summary) == pytest.approx(
            lossless_size_in_bits(result.summary, compute_corrections(result.summary))
        )

    def test_correction_bits_formula(self):
        corrections = CorrectionSet(num_nodes=16, positive=[(0, 1)], negative=[(2, 3), (4, 5)])
        assert corrections.size_in_bits() == pytest.approx(2.0 * 3 * 4.0)  # log2(16) = 4
