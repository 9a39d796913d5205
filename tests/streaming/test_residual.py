"""ResidualSource: exact correction semantics, query-path equivalence.

The pins that make hot-swap serving trustworthy:

* with no residual edges, every query path produces byte-identical
  output to the bare summary (operator arrays, hop BFS, neighbors),
  whether that summary is held in RAM or memory-mapped;
* residual answers equal the literal Alg. 4-driven reference
  implementations run on the residual reconstruction;
* with a lossless base summary, residual answers at any prefix are the
  exact answers on the materialized graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PegasusConfig, SummaryGraph, summarize
from repro.errors import GraphFormatError
from repro.graph import planted_partition
from repro.queries import hop_distances, php_scores, rwr_scores
from repro.queries.hop import hop_distances_reference
from repro.queries.neighbors import approximate_neighbors
from repro.queries.php import php_scores_reference
from repro.queries.rwr import rwr_scores_reference
from repro.store import load_summary_binary, save_summary_binary
from repro.streaming import GraphDelta, ResidualSource, correction_bits_per_edge


@pytest.fixture(scope="module")
def stream_graph():
    return planted_partition(90, 3, avg_degree_in=7.0, avg_degree_out=1.0, seed=4)


@pytest.fixture(scope="module", params=["ram", "mapped"])
def lossy_summary(request, stream_graph, tmp_path_factory):
    """The base summary, in RAM or memory-mapped from the binary store —
    recovery overlays residual corrections on the mapped form."""
    config = PegasusConfig(seed=2, t_max=6)
    summary = summarize(
        stream_graph, targets=[0, 1], compression_ratio=0.5, config=config
    ).summary
    if request.param == "ram":
        return summary
    path = tmp_path_factory.mktemp("residual") / "base.store"
    save_summary_binary(summary, path)
    return load_summary_binary(path)


def _fresh_edges(summary, rng, count=12):
    """Candidate residual edges, mixed novel/covered, any orientation."""
    n = summary.num_nodes
    return rng.integers(0, n, size=(count, 2))


class TestConstruction:
    def test_covered_pairs_are_filtered_out(self, lossy_summary):
        # A pair inside a superedge block reconstructs already: no correction.
        lo, hi, _ = lossy_summary.superedge_arrays()
        assert lo.size, "summary unexpectedly has no superedges"
        a, b = int(lo[0]), int(hi[0])
        u = int(lossy_summary.member_list(a)[0])
        members_b = [m for m in lossy_summary.member_list(b) if m != u]
        v = int(members_b[0]) if members_b else int(lossy_summary.member_list(b)[0])
        if u == v:
            pytest.skip("degenerate block")
        residual = ResidualSource(lossy_summary, np.asarray([[u, v]]))
        assert residual.num_extra == 0

    def test_dedup_canonicalization_and_self_loops(self, lossy_summary):
        rng = np.random.default_rng(0)
        # Find a pair that is genuinely absent from the reconstruction.
        n = lossy_summary.num_nodes
        while True:
            u, v = rng.integers(0, n, size=2)
            if u == v:
                continue
            su, sv = int(lossy_summary.supernode_of[u]), int(lossy_summary.supernode_of[v])
            if not lossy_summary.has_superedge(su, sv):
                break
        edges = np.asarray([[u, v], [v, u], [u, v], [u, u]])
        residual = ResidualSource(lossy_summary, edges)
        assert residual.num_extra == 1
        assert residual.extra_edge_array().tolist() == [[min(u, v), max(u, v)]]

    def test_out_of_range_rejected(self, lossy_summary):
        with pytest.raises(GraphFormatError):
            ResidualSource(lossy_summary, np.asarray([[0, lossy_summary.num_nodes]]))

    def test_size_accounting(self, lossy_summary):
        rng = np.random.default_rng(1)
        residual = ResidualSource(lossy_summary, _fresh_edges(lossy_summary, rng))
        expected = lossy_summary.size_in_bits() + residual.num_extra * correction_bits_per_edge(
            lossy_summary.num_nodes
        )
        assert residual.size_in_bits() == pytest.approx(expected)
        assert residual.correction_bits() == pytest.approx(
            residual.num_extra * correction_bits_per_edge(lossy_summary.num_nodes)
        )


class TestEmptyResidualIsTheSummary:
    """No corrections ⇒ all query paths collapse to the summary's, bytes included."""

    def test_rwr_php_byte_identical(self, lossy_summary):
        residual = ResidualSource(lossy_summary)
        for node in (0, 7, 42):
            assert (
                rwr_scores(residual, node).tobytes()
                == rwr_scores(lossy_summary, node).tobytes()
            )
            assert (
                php_scores(residual, node).tobytes()
                == php_scores(lossy_summary, node).tobytes()
            )

    def test_hop_identical(self, lossy_summary):
        residual = ResidualSource(lossy_summary)
        for node in (0, 7, 42):
            assert np.array_equal(
                hop_distances(residual, node), hop_distances(lossy_summary, node)
            )

    def test_neighbors_identical(self, lossy_summary):
        residual = ResidualSource(lossy_summary)
        for node in range(0, lossy_summary.num_nodes, 11):
            assert np.array_equal(
                approximate_neighbors(residual, node),
                approximate_neighbors(lossy_summary, node),
            )


class TestResidualQueryEquivalence:
    """Vectorized residual paths == literal reference implementations."""

    def test_reconstructed_neighbors_union(self, lossy_summary):
        rng = np.random.default_rng(5)
        residual = ResidualSource(lossy_summary, _fresh_edges(lossy_summary, rng, 20))
        assert residual.num_extra > 0, "test needs at least one genuine correction"
        for node in range(0, residual.num_nodes, 7):
            expected = np.union1d(
                lossy_summary.reconstructed_neighbors(node),
                residual.extra_neighbors(node),
            )
            assert np.array_equal(approximate_neighbors(residual, node), expected)

    def test_hop_matches_reference_bfs(self, lossy_summary):
        rng = np.random.default_rng(6)
        residual = ResidualSource(lossy_summary, _fresh_edges(lossy_summary, rng, 20))
        for node in (0, 13, 55, 89):
            fast = hop_distances(residual, node)
            reference = hop_distances_reference(residual, node)
            assert np.array_equal(fast, reference)

    def test_rwr_matches_reference(self, lossy_summary):
        rng = np.random.default_rng(7)
        residual = ResidualSource(lossy_summary, _fresh_edges(lossy_summary, rng, 16))
        for node in (3, 30):
            assert np.allclose(
                rwr_scores(residual, node),
                rwr_scores_reference(residual, node),
                atol=1e-8,
            )

    def test_php_matches_reference(self, lossy_summary):
        rng = np.random.default_rng(8)
        residual = ResidualSource(lossy_summary, _fresh_edges(lossy_summary, rng, 16))
        for node in (3, 30):
            assert np.allclose(
                php_scores(residual, node),
                php_scores_reference(residual, node),
                atol=1e-8,
            )


class TestLosslessBaseIsExact:
    """Identity summary + residual edges reconstructs the materialized graph."""

    def test_hop_exact_at_any_prefix(self, stream_graph):
        rng = np.random.default_rng(10)
        delta = GraphDelta(stream_graph)
        summary = SummaryGraph(stream_graph)  # identity: lossless
        for _ in range(3):
            delta.add_edges(rng.integers(0, stream_graph.num_nodes, size=(15, 2)))
            residual = ResidualSource(summary, delta.pending_edges())
            materialized = delta.materialize()
            for node in (0, 44):
                assert np.array_equal(
                    hop_distances(residual, node), hop_distances(materialized, node)
                )

    def test_rwr_exact_at_any_prefix(self, stream_graph):
        rng = np.random.default_rng(11)
        delta = GraphDelta(stream_graph)
        summary = SummaryGraph(stream_graph)
        delta.add_edges(rng.integers(0, stream_graph.num_nodes, size=(25, 2)))
        residual = ResidualSource(summary, delta.pending_edges())
        materialized = delta.materialize()
        for node in (5, 60):
            assert np.allclose(
                rwr_scores(residual, node), rwr_scores(materialized, node), atol=1e-8
            )


def test_assume_filtered_roundtrip(lossy_summary):
    """The serving rebuild path re-creates the source from exported arrays."""
    rng = np.random.default_rng(12)
    original = ResidualSource(lossy_summary, _fresh_edges(lossy_summary, rng, 20))
    rebuilt = ResidualSource(
        lossy_summary, original.extra_edge_array(), assume_filtered=True
    )
    assert np.array_equal(rebuilt.extra_u, original.extra_u)
    assert np.array_equal(rebuilt.extra_v, original.extra_v)
    for node in (2, 17):
        assert (
            rwr_scores(rebuilt, node).tobytes() == rwr_scores(original, node).tobytes()
        )
