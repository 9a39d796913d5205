"""Tests for summary-graph serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PegasusConfig, SummaryGraph, summarize
from repro.core.summary_io import load_summary, save_summary
from repro.errors import GraphFormatError


def test_roundtrip_identity(two_cliques, tmp_path):
    summary = SummaryGraph(two_cliques)
    path = tmp_path / "summary.txt"
    save_summary(summary, path)
    loaded = load_summary(path, two_cliques)
    assert sorted(loaded.supernodes()) == sorted(summary.supernodes())
    assert sorted(loaded.superedges()) == sorted(summary.superedges())


def test_roundtrip_after_summarization(sbm_medium, tmp_path):
    result = summarize(sbm_medium, targets=[0], compression_ratio=0.5, config=PegasusConfig(seed=1))
    path = tmp_path / "summary.txt"
    save_summary(result.summary, path)
    loaded = load_summary(path, sbm_medium)
    assert np.array_equal(loaded.supernode_of, result.summary.supernode_of)
    assert sorted(loaded.superedges()) == sorted(result.summary.superedges())
    assert loaded.size_in_bits() == pytest.approx(result.summary.size_in_bits())


def test_roundtrip_weighted(two_cliques, tmp_path):
    assignment = np.asarray([0, 0, 0, 0, 1, 1, 1, 1])
    summary = SummaryGraph.from_partition(
        two_cliques, assignment, weighted=True, superedge_rule="all_blocks"
    )
    path = tmp_path / "summary.txt"
    save_summary(summary, path)
    loaded = load_summary(path, two_cliques)
    assert loaded.is_weighted
    assert loaded.superedge_weight(0, 4) == summary.superedge_weight(0, 4)


def test_queries_identical_after_roundtrip(sbm_medium, tmp_path):
    from repro.queries import rwr_scores

    result = summarize(sbm_medium, targets=[3], compression_ratio=0.4, config=PegasusConfig(seed=2))
    path = tmp_path / "summary.txt"
    save_summary(result.summary, path)
    loaded = load_summary(path, sbm_medium)
    assert np.allclose(rwr_scores(result.summary, 3), rwr_scores(loaded, 3))


def test_wrong_header_rejected(tmp_path, triangle):
    path = tmp_path / "bad.txt"
    path.write_text("not a summary\n")
    with pytest.raises(GraphFormatError):
        load_summary(path, triangle)


def test_node_count_mismatch_rejected(tmp_path, triangle, path4):
    path = tmp_path / "summary.txt"
    save_summary(SummaryGraph(triangle), path)
    with pytest.raises(GraphFormatError):
        load_summary(path, path4)


def test_partial_partition_rejected(tmp_path, triangle):
    path = tmp_path / "bad.txt"
    path.write_text("# repro summary graph v1\nG 3 0\nS 0 0 1\n")
    with pytest.raises(GraphFormatError):
        load_summary(path, triangle)


def test_unknown_record_rejected(tmp_path, triangle):
    path = tmp_path / "bad.txt"
    path.write_text("# repro summary graph v1\nG 3 0\nS 0 0 1 2\nX 1 2\n")
    with pytest.raises(GraphFormatError):
        load_summary(path, triangle)


class TestMalformedFilesRejected:
    """Regressions: untrusted summary files must fail loudly as
    GraphFormatError — never a raw ValueError/IndexError, and never a
    silently corrupted partition."""

    def _load(self, tmp_path, triangle, body):
        path = tmp_path / "bad.txt"
        path.write_text("# repro summary graph v1\n" + body)
        return load_summary(path, triangle)

    def test_negative_member_id_rejected_not_wrapped(self, tmp_path, triangle):
        """The worst pre-fix case: ``assignment[int('-1')]`` wrapped via
        numpy negative indexing and silently assigned the *last* node,
        producing a structurally valid but wrong partition."""
        with pytest.raises(GraphFormatError, match="member id -1 out of range"):
            self._load(tmp_path, triangle, "G 3 0\nS 0 0 1\nS 2 -1\nP 0 0\n")

    def test_out_of_range_member_rejected(self, tmp_path, triangle):
        # Pre-fix: raw IndexError from the assignment array.
        with pytest.raises(GraphFormatError, match="member id 5 out of range"):
            self._load(tmp_path, triangle, "G 3 0\nS 0 0 1 5\n")

    def test_truncated_g_header_rejected(self, tmp_path, triangle):
        # Pre-fix: raw ValueError from tuple unpacking.
        with pytest.raises(GraphFormatError, match="G header"):
            self._load(tmp_path, triangle, "G 3\nS 0 0 1 2\n")

    def test_overlong_g_header_rejected(self, tmp_path, triangle):
        with pytest.raises(GraphFormatError, match="G header"):
            self._load(tmp_path, triangle, "G 3 0 7\nS 0 0 1 2\n")

    def test_non_numeric_node_count_rejected(self, tmp_path, triangle):
        with pytest.raises(GraphFormatError, match="not an integer"):
            self._load(tmp_path, triangle, "G three 0\nS 0 0 1 2\n")

    def test_bad_weighted_flag_rejected(self, tmp_path, triangle):
        with pytest.raises(GraphFormatError, match="weighted flag"):
            self._load(tmp_path, triangle, "G 3 2\nS 0 0 1 2\n")

    def test_negative_supernode_id_rejected(self, tmp_path, triangle):
        with pytest.raises(GraphFormatError, match="supernode id -1 out of range"):
            self._load(tmp_path, triangle, "G 3 0\nS -1 0 1 2\n")

    def test_non_numeric_member_rejected(self, tmp_path, triangle):
        with pytest.raises(GraphFormatError, match="not an integer"):
            self._load(tmp_path, triangle, "G 3 0\nS 0 zero 1 2\n")

    def test_bare_s_record_rejected(self, tmp_path, triangle):
        with pytest.raises(GraphFormatError, match="S record"):
            self._load(tmp_path, triangle, "G 3 0\nS\n")

    def test_duplicate_membership_rejected(self, tmp_path, triangle):
        with pytest.raises(GraphFormatError, match="more than one supernode"):
            self._load(tmp_path, triangle, "G 3 0\nS 0 0 1\nS 2 1 2\n")

    def test_p_record_arity_rejected(self, tmp_path, triangle):
        with pytest.raises(GraphFormatError, match="P record"):
            self._load(tmp_path, triangle, "G 3 0\nS 0 0 1 2\nP 0\n")

    def test_p_record_out_of_range_endpoint_rejected(self, tmp_path, triangle):
        with pytest.raises(GraphFormatError, match="superedge endpoint"):
            self._load(tmp_path, triangle, "G 3 0\nS 0 0 1 2\nP 0 9\n")

    def test_p_record_non_numeric_weight_rejected(self, tmp_path, triangle):
        with pytest.raises(GraphFormatError, match="not a number"):
            self._load(tmp_path, triangle, "G 3 0\nS 0 0 1 2\nP 0 0 heavy\n")

    def test_error_messages_carry_line_numbers(self, tmp_path, triangle):
        with pytest.raises(GraphFormatError, match=r":4:"):
            self._load(tmp_path, triangle, "G 3 0\nS 0 0 1\nS 2 -1\n")


class TestAtomicSave:
    """``save_summary`` must never leave a torn file at the destination."""

    def test_failure_mid_write_preserves_previous_file(
        self, two_cliques, tmp_path, monkeypatch
    ):
        summary = SummaryGraph(two_cliques)
        path = tmp_path / "summary.txt"
        save_summary(summary, path)
        before = path.read_text()

        # Inject a failure halfway through serialization: the second
        # superedge lookup explodes, after the header and S lines are
        # already in the temp file.
        calls = {"n": 0}
        original = type(summary).superedges

        def exploding(self):
            calls["n"] += 1
            if calls["n"] > 1:
                raise RuntimeError("injected mid-write failure")
            return original(self)

        monkeypatch.setattr(type(summary), "superedges", exploding)
        summary.superedges()  # consume the one allowed call
        with pytest.raises(RuntimeError, match="injected"):
            save_summary(summary, path)
        assert path.read_text() == before  # previous file untouched
        # ...and the temp file was cleaned up.
        leftovers = [p for p in tmp_path.iterdir() if p.name != "summary.txt"]
        assert leftovers == []

    def test_failure_with_no_previous_file(self, two_cliques, tmp_path, monkeypatch):
        summary = SummaryGraph(two_cliques)
        path = tmp_path / "summary.txt"
        monkeypatch.setattr(
            type(summary),
            "superedges",
            lambda self: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(RuntimeError):
            save_summary(summary, path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_no_temp_files_after_success(self, two_cliques, tmp_path):
        summary = SummaryGraph(two_cliques)
        path = tmp_path / "summary.txt"
        save_summary(summary, path)
        assert [p.name for p in tmp_path.iterdir()] == ["summary.txt"]
