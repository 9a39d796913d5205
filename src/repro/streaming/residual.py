"""Residual-corrected query sources: a stale summary plus streamed edges.

Between re-summarizations, a machine must not serve a summary that simply
*ignores* the edges streamed since it was built.  :class:`ResidualSource`
absorbs them the way the paper's cost model already prices erroneous
pairs (footnote 4, :mod:`repro.core.corrections`): as an explicit edge
correction list on top of the summary.  The reconstructed topology of a
residual source is

    ``Ĝ_residual = Ĝ_summary ∪ {streamed edges not already in Ĝ_summary}``

so every streamed edge is visible to queries *immediately* — only the
summary's merge structure is stale, never the topology.  The correction
list is priced at ``2·log2|V|`` bits per edge, which is exactly the
cost-drift signal :class:`~repro.streaming.summarizer.StreamingSummarizer`
uses to decide when a full re-summarization pays for itself.

Query integration: :mod:`repro.queries` answers RWR and PHP through a
:class:`~repro.queries.operator.ReconstructedOperator` extended with the
residual adjacency (``Â = Â_summary + A_residual``), and HOP through a
residual-aware quotient BFS.  With an empty correction list every code
path collapses to the plain summary paths, byte for byte — the anchor
for the hot-swap determinism contract.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro._util import log2_capped
from repro.core.summary import SummaryGraph
from repro.errors import GraphFormatError
from repro.graph.graph import _PACKED_KEY_MAX_NODES, dedup_canonical_edges

def correction_bits_per_edge(num_nodes: int) -> float:
    """``2·log2|V|`` — the cost of one entry in the correction list."""
    if num_nodes < 1:
        return 0.0
    return 2.0 * log2_capped(max(num_nodes, 1))


def uncovered_edges(
    summary: SummaryGraph, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Mask of canonical pairs **absent** from the summary's reconstruction.

    Vectorized for the common case (unweighted summary, packable node
    count): both the candidate supernode pairs and the superedge set
    reduce to packed int64 keys, and presence is one ``searchsorted``
    against the lexsorted superedge export — no per-edge Python call.
    Weighted summaries (baseline output only) take the scalar
    ``superedge_density`` path, which also covers degenerate blocks.
    """
    if u.size == 0:
        return np.zeros(0, dtype=bool)
    supernode_of = summary.supernode_of
    sa, sb = supernode_of[u], supernode_of[v]
    lo, hi = np.minimum(sa, sb), np.maximum(sa, sb)
    if not summary.is_weighted and summary.num_nodes <= _PACKED_KEY_MAX_NODES:
        se_lo, se_hi, _ = summary.superedge_arrays()
        n = np.int64(summary.num_nodes)
        keys = se_lo * n + se_hi  # lexsorted export ⇒ sorted keys
        candidates = lo * n + hi
        pos = np.searchsorted(keys, candidates)
        hit = pos < keys.shape[0]
        hit[hit] = keys[pos[hit]] == candidates[hit]
        return ~hit
    return np.asarray(
        [
            summary.superedge_density(int(a), int(b)) <= 0.0
            for a, b in zip(lo.tolist(), hi.tolist())
        ],
        dtype=bool,
    )


class ResidualSource:
    """A summary graph overlaid with an exact residual edge list.

    Parameters
    ----------
    summary:
        The (stale) summary graph; not mutated, and never read beyond its
        partition/superedge structure — the worker-side serving rebuild
        hands it an edgeless stand-in input graph.
    edges:
        Candidate residual edges as an ``(k, 2)`` array (any orientation).
        Self-loops are dropped, pairs are canonicalized and deduplicated,
        and edges whose node pair is **already present in the summary's
        reconstruction** are discarded — they carry no correction.
    assume_filtered:
        Skip the canonicalization/filtering pass because *edges* is known
        to be an already-filtered export (the serving workers' rebuild
        path, where re-filtering would only repeat work).
    """

    def __init__(
        self,
        summary: SummaryGraph,
        edges: "np.ndarray | None" = None,
        *,
        assume_filtered: bool = False,
    ):
        self.summary = summary
        num_nodes = summary.num_nodes
        arr = (
            np.empty((0, 2), dtype=np.int64)
            if edges is None
            else np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        )
        if arr.size and (arr.min() < 0 or arr.max() >= num_nodes):
            raise GraphFormatError("residual edge endpoints out of range")
        if assume_filtered or arr.size == 0:
            # Canonical and novel already; lexsort so the stored order —
            # and with it every float accumulation downstream — is
            # independent of how the caller assembled the list.
            u, v = arr[:, 0].copy(), arr[:, 1].copy()
            order = np.lexsort((v, u))
            u, v = u[order], v[order]
        else:
            u = np.minimum(arr[:, 0], arr[:, 1])
            v = np.maximum(arr[:, 0], arr[:, 1])
            keep = u != v
            u, v = u[keep], v[keep]
            u, v = dedup_canonical_edges(u, v, num_nodes)
            if u.size:
                novel = uncovered_edges(summary, u, v)
                u, v = u[novel], v[novel]
        self.extra_u = u
        self.extra_v = v
        self.extra_u.setflags(write=False)
        self.extra_v.setflags(write=False)
        self._adjacency: "Tuple[np.ndarray, np.ndarray] | None" = None

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of input-graph nodes ``|V|``."""
        return self.summary.num_nodes

    @property
    def num_extra(self) -> int:
        """Number of residual correction edges."""
        return self.extra_u.shape[0]

    def extra_edge_array(self) -> np.ndarray:
        """The residual edges as an ``(k, 2)`` canonical array."""
        edges = np.column_stack([self.extra_u, self.extra_v])
        edges.setflags(write=False)
        return edges

    def extra_directed(self) -> Tuple[np.ndarray, np.ndarray]:
        """Residual adjacency as directed ``(heads, tails)`` arrays.

        Each undirected residual edge appears in both directions, so the
        pair plugs straight into bincount-style operator arithmetic.
        """
        heads = np.concatenate([self.extra_u, self.extra_v])
        tails = np.concatenate([self.extra_v, self.extra_u])
        return heads, tails

    def _extra_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        heads, tails = self.extra_directed()
        order = np.lexsort((tails, heads))
        heads, tails = heads[order], tails[order]
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.add.at(indptr, heads + 1, 1)
        np.cumsum(indptr, out=indptr)
        return indptr, tails

    def extra_neighbors(self, node: int) -> np.ndarray:
        """Sorted residual neighbors of *node* (empty array when none)."""
        if not 0 <= node < self.num_nodes:
            raise GraphFormatError(f"node {node} out of range")
        if self._adjacency is None:
            self._adjacency = self._extra_csr()
        indptr, tails = self._adjacency
        return tails[indptr[node] : indptr[node + 1]]

    def reconstructed_neighbors(self, node: int) -> np.ndarray:
        """Neighbors of *node* in ``Ĝ_residual`` (Alg. 4 plus corrections)."""
        base = self.summary.reconstructed_neighbors(node)
        extra = self.extra_neighbors(node)
        if extra.size == 0:
            return base
        return np.union1d(base, extra)

    # ------------------------------------------------------------------
    # size model
    # ------------------------------------------------------------------
    def correction_bits(self) -> float:
        """Bits spent naming the residual edges (footnote 4 pricing)."""
        return self.num_extra * correction_bits_per_edge(self.num_nodes)

    def size_in_bits(self) -> float:
        """Summary bits plus correction bits — what the machine holds."""
        return self.summary.size_in_bits() + self.correction_bits()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResidualSource(num_nodes={self.num_nodes}, "
            f"supernodes={self.summary.num_supernodes}, extra={self.num_extra})"
        )
