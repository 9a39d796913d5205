"""Round-trip equivalence between the text format, the binary store, and RAM.

Pins the acceptance contract of the persistent store: a summary saved to
the binary container and reopened via ``np.memmap`` answers rwr / hop /
php queries **byte-identically** to the in-RAM summary it was saved from,
weighted or not, and text ↔ binary ↔ text conversion loses nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PegasusConfig, SummaryGraph, summarize
from repro.core.summary_io import (
    load_summary,
    load_summary_binary,
    save_summary,
    save_summary_binary,
)
from repro.errors import GraphFormatError
from repro.graph import Graph, barabasi_albert
from repro.queries import hop_distances, php_scores, rwr_scores
from repro.store import MappedSummary, load_graph, save_graph


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(250, 3, seed=7)


@pytest.fixture(scope="module", params=["pegasus", "weighted"])
def summary(request, graph):
    """A budgeted PeGaSus summary, or a weighted one whose superedges carry
    block densities (the store's optional weights column)."""
    if request.param == "weighted":
        assignment = np.arange(graph.num_nodes) % 10
        return SummaryGraph.from_partition(
            graph, assignment, weighted=True, superedge_rule="all_blocks"
        )
    result = summarize(
        graph,
        budget_bits=0.5 * graph.size_in_bits(),
        config=PegasusConfig(seed=4),
    )
    return result.summary


class TestGraphStore:
    def test_roundtrip_bytes(self, graph, tmp_path):
        path = tmp_path / "g.store"
        save_graph(graph, path)
        mapped = load_graph(path)
        assert mapped.num_nodes == graph.num_nodes
        assert mapped.indptr.tobytes() == graph.indptr.tobytes()
        assert mapped.indices.tobytes() == graph.indices.tobytes()
        assert not mapped.indices.flags.writeable
        assert mapped == graph

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "e.store"
        save_graph(Graph.empty(5), path)
        mapped = load_graph(path)
        assert mapped.num_nodes == 5 and mapped.num_edges == 0

    def test_queries_identical(self, graph, tmp_path):
        path = tmp_path / "g.store"
        save_graph(graph, path)
        mapped = load_graph(path)
        assert rwr_scores(graph, 0).tobytes() == rwr_scores(mapped, 0).tobytes()
        assert hop_distances(graph, 0).tobytes() == hop_distances(mapped, 0).tobytes()


class TestSummaryStore:
    def test_mapped_equals_ram(self, summary, tmp_path):
        path = tmp_path / "s.store"
        save_summary_binary(summary, path)
        mapped = load_summary_binary(path)
        assert isinstance(mapped, MappedSummary)
        assert mapped.num_nodes == summary.num_nodes
        assert mapped.num_supernodes == summary.num_supernodes
        assert mapped.is_weighted == summary.is_weighted
        assert np.array_equal(np.asarray(mapped.supernode_of), np.asarray(summary.supernode_of))
        assert sorted(mapped.supernodes()) == sorted(summary.supernodes())
        assert sorted(mapped.superedges()) == sorted(summary.superedges())
        for supernode in summary.supernodes():
            assert mapped.member_list(supernode) == sorted(summary.member_list(supernode))
            assert mapped.member_count(supernode) == summary.member_count(supernode)
            assert mapped.superedge_neighbors(supernode) == summary.superedge_neighbors(
                supernode
            )
        assert mapped.size_in_bits() == pytest.approx(summary.size_in_bits())

    def test_queries_byte_identical(self, summary, tmp_path):
        path = tmp_path / "s.store"
        save_summary_binary(summary, path)
        mapped = load_summary_binary(path)
        for node in (0, 17, 101):
            assert rwr_scores(summary, node).tobytes() == rwr_scores(mapped, node).tobytes()
            assert php_scores(summary, node).tobytes() == php_scores(mapped, node).tobytes()
            assert (
                hop_distances(summary, node).tobytes()
                == hop_distances(mapped, node).tobytes()
            )

    def test_embedded_graph(self, summary, tmp_path):
        path = tmp_path / "s.store"
        save_summary_binary(summary, path, include_graph=True)
        mapped = load_summary_binary(path)
        assert mapped.graph is not None
        assert mapped.graph == summary.graph
        assert mapped.compression_ratio() == pytest.approx(summary.compression_ratio())

    def test_without_embedded_graph(self, summary, tmp_path):
        path = tmp_path / "s.store"
        save_summary_binary(summary, path, include_graph=False)
        mapped = load_summary_binary(path)
        assert mapped.graph is None
        with pytest.raises(GraphFormatError, match="saved without one"):
            mapped.compression_ratio()
        # Supplying the graph at load time restores the full API.
        mapped = load_summary_binary(path, summary.graph)
        assert mapped.compression_ratio() == pytest.approx(summary.compression_ratio())

    def test_mapped_is_read_only(self, summary, tmp_path):
        path = tmp_path / "s.store"
        save_summary_binary(summary, path)
        mapped = load_summary_binary(path)
        a, b = next(iter(mapped.superedges()))
        with pytest.raises(GraphFormatError, match="read-only"):
            mapped.remove_superedge(a, b)
        with pytest.raises(GraphFormatError, match="read-only"):
            mapped.add_superedge(a, b)
        with pytest.raises(GraphFormatError, match="read-only"):
            mapped.merge_supernodes(a, b)
        with pytest.raises(GraphFormatError):
            MappedSummary(summary.graph)  # only _from_container may build one

    def test_materialize_back(self, summary, tmp_path):
        """The mapped columns are enough to rebuild a mutable summary."""
        path = tmp_path / "s.store"
        save_summary_binary(summary, path)
        mapped = load_summary_binary(path)
        lo, hi, weights = mapped.superedge_arrays()
        weight_list = [None] * lo.size if weights is None else weights.tolist()
        loaded = SummaryGraph.from_parts(
            mapped.graph,
            mapped.supernode_of,
            zip(lo.tolist(), hi.tolist(), weight_list),
            weighted=weights is not None,
            validate=True,
        )
        assert not isinstance(loaded, MappedSummary)
        assert loaded.is_weighted == summary.is_weighted
        assert np.array_equal(
            np.asarray(loaded.supernode_of), np.asarray(summary.supernode_of)
        )
        assert sorted(loaded.superedges()) == sorted(summary.superedges())
        if summary.is_weighted:
            for a, b in summary.superedges():
                assert loaded.superedge_weight(a, b) == summary.superedge_weight(a, b)

    def test_weighted_summary(self, graph, tmp_path):
        # A coarse weighted partition: 10 supernodes, density-weighted blocks.
        assignment = np.arange(graph.num_nodes) % 10
        merged = SummaryGraph.from_partition(
            graph, assignment, weighted=True, superedge_rule="all_blocks"
        )
        path = tmp_path / "w.store"
        save_summary_binary(merged, path)
        mapped = load_summary_binary(path)
        assert mapped.is_weighted
        for a, b in list(merged.superedges())[:20]:
            assert mapped.superedge_weight(a, b) == merged.superedge_weight(a, b)
            assert mapped.superedge_density(a, b) == merged.superedge_density(a, b)
        assert rwr_scores(merged, 3).tobytes() == rwr_scores(mapped, 3).tobytes()


class TestTextBinaryText:
    def test_full_cycle_is_lossless(self, summary, graph, tmp_path):
        text1 = tmp_path / "s1.txt"
        binary = tmp_path / "s.store"
        text2 = tmp_path / "s2.txt"
        save_summary(summary, text1)
        from_text = load_summary(text1, graph)
        save_summary_binary(from_text, binary)
        mapped = load_summary_binary(binary)
        save_summary(mapped, text2)  # text writer works on mapped summaries
        assert text1.read_text() == text2.read_text()
        final = load_summary(text2, graph)
        assert np.array_equal(
            np.asarray(final.supernode_of), np.asarray(summary.supernode_of)
        )
        assert sorted(final.superedges()) == sorted(summary.superedges())

    def test_identity_summary(self, graph, tmp_path):
        summary = SummaryGraph(graph)
        path = tmp_path / "id.store"
        save_summary_binary(summary, path)
        mapped = load_summary_binary(path)
        assert mapped.num_supernodes == graph.num_nodes
        assert sorted(mapped.superedges()) == sorted(summary.superedges())
