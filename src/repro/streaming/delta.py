"""An append-only edge overlay over the immutable CSR :class:`~repro.graph.Graph`.

The paper summarizes a *static* graph; :class:`GraphDelta` is the
streaming layer's write path.  The base graph stays immutable (every
summary, machine, and shipped serving session built on it remains valid);
inserted edges accumulate in an insertion-ordered pending buffer, exactly
deduplicated against both the base graph and earlier insertions, and
:meth:`GraphDelta.materialize` rebuilds a merged :class:`Graph` with one
vectorized CSR pass — no per-edge Python loop.

The pending buffer is the unit of bookkeeping for everything downstream:
:class:`~repro.streaming.residual.ResidualSource` overlays a suffix of it
on a stale summary, and :class:`~repro.streaming.summarizer.StreamingSummarizer`
records, per machine, the buffer length at its last re-summarization (its
*cursor*), so "the edges this machine's summary has never seen" is always
the slice ``pending_edges()[cursor:]``.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.graph import Graph, _PACKED_KEY_MAX_NODES, dedup_canonical_edges


class GraphDelta:
    """Append-only edge buffer over an immutable base graph.

    Parameters
    ----------
    base:
        The immutable input graph the stream starts from.  New edges may
        only connect existing nodes (the stream is append-only in edges,
        not in nodes — routing tables and partitions stay valid forever).

    Invariants
    ----------
    * ``pending_edges()`` holds canonical ``(u, v)`` pairs with ``u < v``,
      in first-insertion order, with no duplicates and no edge already
      present in *base* — so ``materialize()`` is a disjoint union.
    * ``num_pending`` is monotone; it only grows, and slicing the pending
      buffer at any past value reproduces the exact stream prefix seen at
      that point (the determinism anchor for re-summarization cursors).
    """

    def __init__(self, base: Graph):
        self._base = base
        self._num_nodes = base.num_nodes
        self._pending_u = np.empty(0, dtype=np.int64)
        self._pending_v = np.empty(0, dtype=np.int64)
        self._base_keys: "np.ndarray | None" = None
        self._pending_set: "set[Tuple[int, int]]" = set()
        self._materialized: "Graph | None" = base
        self._materialized_at = 0

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def base(self) -> Graph:
        """The immutable graph the stream started from."""
        return self._base

    @property
    def num_nodes(self) -> int:
        """Number of nodes (fixed for the lifetime of the delta)."""
        return self._num_nodes

    @property
    def num_pending(self) -> int:
        """Number of buffered novel edges (monotone non-decreasing)."""
        return self._pending_u.shape[0]

    def pending_edges(self) -> np.ndarray:
        """Buffered novel edges as an ``(k, 2)`` array in insertion order."""
        edges = np.column_stack([self._pending_u, self._pending_v])
        edges.setflags(write=False)
        return edges

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def _in_base(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized membership of canonical pairs in the base graph."""
        if self._num_nodes <= _PACKED_KEY_MAX_NODES:
            if self._base_keys is None:
                base_edges = self._base.edge_array()
                # edge_array() is lexsorted, so the packed keys are sorted.
                self._base_keys = base_edges[:, 0] * np.int64(self._num_nodes) + base_edges[:, 1]
            keys = u * np.int64(self._num_nodes) + v
            pos = np.searchsorted(self._base_keys, keys)
            hit = pos < self._base_keys.shape[0]
            hit[hit] = self._base_keys[pos[hit]] == keys[hit]
            return hit
        # Overflow-safe fallback (unreachable for any graph that fits in
        # memory today): exact per-edge binary search on the CSR rows.
        return np.asarray(
            [self._base.has_edge(int(a), int(b)) for a, b in zip(u, v)], dtype=bool
        )

    def add_edges(self, edges: "Iterable[Tuple[int, int]] | np.ndarray") -> int:
        """Append a batch of edges; returns how many were genuinely novel.

        Self-loops are dropped; endpoints are canonicalized to ``u < v``;
        duplicates within the batch, against earlier insertions, and
        against the base graph are all discarded.  Endpoints outside
        ``[0, num_nodes)`` raise :class:`~repro.errors.GraphFormatError`
        (the node set is fixed).
        """
        arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        if arr.size == 0:
            return 0
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphFormatError(f"edges must be of shape (m, 2), got {arr.shape}")
        if arr.min() < 0 or arr.max() >= self._num_nodes:
            raise GraphFormatError(
                f"edge endpoints out of range for the fixed node set [0, {self._num_nodes})"
            )
        u = np.minimum(arr[:, 0], arr[:, 1])
        v = np.maximum(arr[:, 0], arr[:, 1])
        keep = u != v
        u, v = u[keep], v[keep]
        if u.size == 0:
            return 0
        # In-batch dedup keeps the *first* occurrence; restore insertion
        # order afterwards (dedup_canonical_edges returns lexsorted pairs).
        lex_u, lex_v = dedup_canonical_edges(u, v, self._num_nodes)
        if lex_u.shape[0] != u.shape[0]:
            seen: "set[Tuple[int, int]]" = set()
            first = np.asarray(
                [not ((a, b) in seen or seen.add((a, b))) for a, b in zip(u.tolist(), v.tolist())],
                dtype=bool,
            )
            u, v = u[first], v[first]
        novel = ~self._in_base(u, v)
        u, v = u[novel], v[novel]
        if u.size:
            pending = self._pending_set
            fresh = np.asarray(
                [(a, b) not in pending for a, b in zip(u.tolist(), v.tolist())], dtype=bool
            )
            u, v = u[fresh], v[fresh]
        if u.size == 0:
            return 0
        self._pending_set.update(zip(u.tolist(), v.tolist()))
        self._pending_u = np.concatenate([self._pending_u, u])
        self._pending_v = np.concatenate([self._pending_v, v])
        return int(u.shape[0])

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def materialize(self) -> Graph:
        """The merged graph ``base ∪ pending`` as a fresh immutable CSR.

        One vectorized pass: the base's canonical edge list and the
        pending buffer are disjoint and individually duplicate-free by
        construction, so their concatenation feeds the CSR builder
        directly — no re-deduplication.  The result is cached until the
        next novel insertion; with an empty buffer the base graph itself
        is returned.
        """
        if self._materialized is not None and self._materialized_at == self.num_pending:
            return self._materialized
        base_edges = self._base.edge_array()
        u = np.concatenate([base_edges[:, 0], self._pending_u])
        v = np.concatenate([base_edges[:, 1], self._pending_v])
        self._materialized = Graph._from_canonical_edges(self._num_nodes, u, v)
        self._materialized_at = self.num_pending
        return self._materialized

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphDelta(base={self._base!r}, pending={self.num_pending})"
        )
