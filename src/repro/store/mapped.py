"""Memory-mapped, read-only :class:`Graph` and :class:`SummaryGraph` views.

The container (:mod:`repro.store.container`) gives us named arrays mapped
zero-copy from disk; this module gives those arrays the *semantics* of the
in-RAM structures so every existing consumer — queries, serving, cluster
routing — works on a store file without loading it onto the heap:

* :class:`MappedGraph` is a :class:`~repro.graph.graph.Graph` whose CSR
  arrays are views into the file mapping.  It passes every
  ``isinstance(source, Graph)`` dispatch and answers queries
  byte-identically to the graph it was saved from.
* :class:`MappedSummary` is a read-only :class:`SummaryGraph` view over
  the columnar sections (``supernode_of``, lexsorted superedge columns,
  plus precomputed member/adjacency permutations).  Its
  ``superedge_arrays()`` returns the mapped columns — the exact bytes the
  in-RAM export produced — so RWR/PHP/HOP answers are byte-identical to
  the original summary.  Mutation raises.

The derived lookup permutations (members grouped by supernode, superedges
re-sorted by their high endpoint) are computed **at save time** and stored
as sections, so opening a summary costs O(validation) and no per-node heap
allocation; per-supernode accessors are binary searches over the mapped
arrays.
"""

from __future__ import annotations

import os
from typing import Iterator, List, Set, Tuple

import numpy as np

from repro._util import log2_capped
from repro.core.summary import SummaryGraph
from repro.errors import GraphFormatError
from repro.graph.graph import Graph
from repro.obs.profile import probe
from repro.store.container import StoreContainer, open_store, write_store

#: Container ``kind`` tags for the two top-level record types.
GRAPH_KIND = "graph"
SUMMARY_KIND = "summary"


class MappedGraph(Graph):
    """A :class:`Graph` whose CSR arrays are zero-copy views of a store file."""

    __slots__ = ("store_path", "_container")

    def __init__(self, container: StoreContainer, num_nodes: int, indptr, indices):
        super().__init__(num_nodes, indptr, indices)
        self.store_path = container.path
        self._container = container


def save_graph(graph: Graph, path: "str | os.PathLike[str]") -> None:
    """Write *graph* to *path* as a crash-atomic ``graph`` container."""
    write_store(
        path,
        {"indptr": graph.indptr, "indices": graph.indices},
        kind=GRAPH_KIND,
        meta={"num_nodes": graph.num_nodes, "num_edges": graph.num_edges},
    )


def _graph_from_sections(
    container: StoreContainer, indptr_name: str, indices_name: str, num_nodes: int
) -> MappedGraph:
    try:
        return MappedGraph(container, num_nodes, container[indptr_name], container[indices_name])
    except GraphFormatError as exc:
        raise GraphFormatError(f"{container.path}: invalid CSR sections: {exc}") from None


def load_graph(path: "str | os.PathLike[str]", *, verify: bool = True) -> MappedGraph:
    """Open a graph store as a read-only memory-mapped :class:`Graph`.

    The CSR arrays are views into the file mapping; the OS pages them in
    on demand and may evict them under memory pressure, so a cluster of
    mapped graphs larger than RAM stays serveable.
    """
    with probe("store.load_graph"):
        container = open_store(path, kind=GRAPH_KIND, verify=verify)
        num_nodes = int(container.meta.get("num_nodes", -1))
        if num_nodes < 0:
            raise GraphFormatError(
                f"{container.path}: graph store is missing num_nodes metadata"
            )
        return _graph_from_sections(container, "indptr", "indices", num_nodes)


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
class MappedSummary(SummaryGraph):
    """Read-only summary graph over mapped columnar sections.

    Constructed only by :func:`load_summary_binary`; the public surface
    is the :class:`SummaryGraph` API with every accessor answered from
    the mapped arrays (binary searches over the stored permutations) and
    every mutator raising :class:`~repro.errors.GraphFormatError`.

    ``graph`` is the input graph when one was supplied or embedded in the
    store, else ``None`` — queries never need it (they read ``num_nodes``
    from the summary itself), only :meth:`compression_ratio` does.
    """

    def __init__(self, *args, **kwargs):
        raise GraphFormatError(
            "MappedSummary is read-only and built by repro.store.load_summary_binary"
        )

    @classmethod
    def _from_container(cls, container: StoreContainer, graph: "Graph | None") -> "MappedSummary":
        self = object.__new__(cls)
        meta = container.meta
        num_nodes = int(meta.get("num_nodes", -1))
        if num_nodes < 0:
            raise GraphFormatError(f"{container.path}: summary store is missing num_nodes metadata")
        if graph is None and bool(meta.get("has_graph")):
            graph = _graph_from_sections(container, "graph_indptr", "graph_indices", num_nodes)
        if graph is not None and graph.num_nodes != num_nodes:
            raise GraphFormatError(
                f"{container.path}: summary is for {num_nodes} nodes, "
                f"graph has {graph.num_nodes}"
            )
        self._container = container
        self.store_path = container.path
        self.graph = graph
        self._n = num_nodes
        self._weighted = bool(meta.get("weighted"))
        self.supernode_of = container["supernode_of"]
        self._se_lo = container["se_lo"]
        self._se_hi = container["se_hi"]
        self._se_w = container["se_weights"] if self._weighted else None
        self._member_order = container["member_order"]
        self._member_keys = container["member_keys"]
        self._se_by_hi = container["se_by_hi"]
        self._se_hi_keys = container["se_hi_keys"]
        self._num_superedges = int(meta.get("num_superedges", self._se_lo.shape[0]))
        self._live: "np.ndarray | None" = None  # lazily derived live-id list
        self._size_bits: "float | None" = None
        self._validate()
        return self

    # ------------------------------------------------------------------
    # structural validation (untrusted input; beyond the CRC layer)
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        path = self.store_path
        n, p = self._n, self._se_lo.shape[0]
        if self.supernode_of.shape != (n,):
            raise GraphFormatError(
                f"{path}: supernode_of has shape {self.supernode_of.shape}, expected ({n},)"
            )
        if n and (self.supernode_of.min() < 0 or self.supernode_of.max() >= n):
            raise GraphFormatError(f"{path}: supernode ids out of range [0, {n})")
        if self._member_order.shape != (n,) or self._member_keys.shape != (n,):
            raise GraphFormatError(f"{path}: member index sections must have length {n}")
        if n:
            if np.any(np.sort(self._member_order) != np.arange(n, dtype=np.int64)):
                raise GraphFormatError(f"{path}: member_order is not a permutation of 0..{n - 1}")
            keys = self.supernode_of[self._member_order]
            if np.any(keys != self._member_keys) or np.any(np.diff(self._member_keys) < 0):
                raise GraphFormatError(f"{path}: member_keys disagree with supernode_of")
        if self._se_hi.shape != (p,) or self._se_by_hi.shape != (p,) or self._se_hi_keys.shape != (p,):
            raise GraphFormatError(f"{path}: superedge sections must share length {p}")
        if self._num_superedges != p:
            raise GraphFormatError(
                f"{path}: metadata says {self._num_superedges} superedges, sections hold {p}"
            )
        if p:
            if self._se_lo.min() < 0 or self._se_hi.max() >= n or np.any(self._se_lo > self._se_hi):
                raise GraphFormatError(f"{path}: superedge endpoints out of range or not canonical")
            live_mask = np.zeros(n, dtype=bool)
            live_mask[self.supernode_of] = True
            if not (live_mask[self._se_lo].all() and live_mask[self._se_hi].all()):
                raise GraphFormatError(f"{path}: superedge endpoints name dead supernodes")
            if np.any(np.sort(self._se_by_hi) != np.arange(p, dtype=np.int64)):
                raise GraphFormatError(f"{path}: se_by_hi is not a permutation of 0..{p - 1}")
            if np.any(self._se_hi[self._se_by_hi] != self._se_hi_keys) or np.any(
                np.diff(self._se_hi_keys) < 0
            ):
                raise GraphFormatError(f"{path}: se_hi_keys disagree with the superedge columns")
            order = np.lexsort((self._se_hi, self._se_lo))
            if np.any(order != np.arange(p, dtype=np.int64)):
                raise GraphFormatError(f"{path}: superedge columns are not lexsorted")
            key = self._se_lo * np.int64(max(n, 1)) + self._se_hi
            if np.any(key[1:] == key[:-1]):
                raise GraphFormatError(f"{path}: duplicate superedges in the store")
        if self._weighted and (self._se_w is None or self._se_w.shape != (p,)):
            raise GraphFormatError(f"{path}: weighted summary store is missing se_weights")

    # ------------------------------------------------------------------
    # structure accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_supernodes(self) -> int:
        return self._live_ids().shape[0]

    @property
    def is_weighted(self) -> bool:
        return self._weighted

    def _live_ids(self) -> np.ndarray:
        if self._live is None:
            self._live = np.unique(self.supernode_of)
        return self._live

    def supernodes(self) -> List[int]:
        return self._live_ids().tolist()

    def members(self, supernode: int) -> np.ndarray:
        self._require_live(supernode)
        lo = np.searchsorted(self._member_keys, supernode, side="left")
        hi = np.searchsorted(self._member_keys, supernode, side="right")
        return np.asarray(self._member_order[lo:hi], dtype=np.int64)

    def member_list(self, supernode: int) -> List[int]:
        return self.members(supernode).tolist()

    def member_count(self, supernode: int) -> int:
        self._require_live(supernode)
        lo = np.searchsorted(self._member_keys, supernode, side="left")
        hi = np.searchsorted(self._member_keys, supernode, side="right")
        return int(hi - lo)

    def _require_live(self, supernode: int) -> None:
        live = self._live_ids()
        pos = np.searchsorted(live, supernode)
        if not (0 <= supernode < self._n) or pos >= live.shape[0] or live[pos] != supernode:
            raise GraphFormatError(f"supernode {supernode} does not exist")

    def superedge_neighbors(self, supernode: int) -> Set[int]:
        self._require_live(supernode)
        lo = np.searchsorted(self._se_lo, supernode, side="left")
        hi = np.searchsorted(self._se_lo, supernode, side="right")
        out = set(self._se_hi[lo:hi].tolist())
        lo = np.searchsorted(self._se_hi_keys, supernode, side="left")
        hi = np.searchsorted(self._se_hi_keys, supernode, side="right")
        out.update(self._se_lo[self._se_by_hi[lo:hi]].tolist())
        return out

    def _superedge_row(self, a: int, b: int) -> int:
        """Row index of superedge ``{a, b}`` in the lexsorted columns, or -1."""
        if a > b:
            a, b = b, a
        lo = np.searchsorted(self._se_lo, a, side="left")
        hi = np.searchsorted(self._se_lo, a, side="right")
        pos = lo + np.searchsorted(self._se_hi[lo:hi], b)
        if pos < hi and self._se_hi[pos] == b:
            return int(pos)
        return -1

    def has_superedge(self, a: int, b: int) -> bool:
        if not (0 <= a < self._n and 0 <= b < self._n):
            return False
        return self._superedge_row(a, b) >= 0

    def superedges(self) -> Iterator[Tuple[int, int]]:
        for a, b in zip(self._se_lo.tolist(), self._se_hi.tolist()):
            yield a, b

    def superedge_weight(self, a: int, b: int) -> float:
        if not self._weighted:
            raise GraphFormatError("summary graph is unweighted")
        row = self._superedge_row(a, b)
        return float(self._se_w[row]) if row >= 0 else 0.0

    def superedge_arrays(self) -> Tuple[np.ndarray, np.ndarray, "np.ndarray | None"]:
        return self._se_lo, self._se_hi, self._se_w

    def superedge_density(self, a: int, b: int) -> float:
        if not self._weighted:
            return 1.0 if self.has_superedge(a, b) else 0.0
        pairs = self.block_pair_count(a, b)
        if pairs == 0:
            return 0.0
        return min(self.superedge_weight(a, b) / pairs, 1.0)

    # ------------------------------------------------------------------
    # read-only: every mutator refuses
    # ------------------------------------------------------------------
    def _read_only(self, operation: str):
        raise GraphFormatError(
            f"cannot {operation}: mapped summary {self.store_path!r} is read-only "
            "(load the text format with load_summary to mutate)"
        )

    def add_superedge(self, a: int, b: int, *, weight: "float | None" = None) -> None:
        self._read_only("add a superedge")

    def remove_superedge(self, a: int, b: int) -> None:
        self._read_only("remove a superedge")

    def merge_supernodes(self, a: int, b: int) -> Tuple[int, Set[int]]:
        self._read_only("merge supernodes")

    # ------------------------------------------------------------------
    # size model
    # ------------------------------------------------------------------
    def size_in_bits(self) -> float:
        if self._size_bits is None:
            s = self.num_supernodes
            if s == 0:
                self._size_bits = 0.0
            else:
                log_s = log2_capped(s)
                membership_bits = self._n * log_s
                if not self._weighted:
                    self._size_bits = 2.0 * self._num_superedges * log_s + membership_bits
                else:
                    w_max = float(self._se_w.max()) if self._se_w.size else 1.0
                    weight_bits = (
                        log2_capped(max(int(np.ceil(w_max)), 1)) if w_max > 1 else 0.0
                    )
                    self._size_bits = (
                        self._num_superedges * (2.0 * log_s + weight_bits) + membership_bits
                    )
        return self._size_bits

    def compression_ratio(self) -> float:
        if self.graph is None:
            raise GraphFormatError(
                "compression_ratio needs the input graph; this store was saved "
                "without one and none was supplied to load_summary_binary"
            )
        return super().compression_ratio()

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        self._validate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MappedSummary(|V|={self._n}, |S|={self.num_supernodes}, "
            f"|P|={self._num_superedges}, weighted={self._weighted}, "
            f"path={self.store_path!r})"
        )


def save_summary_binary(
    summary: SummaryGraph,
    path: "str | os.PathLike[str]",
    *,
    include_graph: bool = True,
) -> None:
    """Write *summary* to *path* as a crash-atomic binary summary container.

    Stores the columnar form — the partition array and the lexsorted
    superedge columns — plus the precomputed lookup
    permutations that make the mapped view O(log) per accessor.  With
    *include_graph* (default) the input graph's CSR rides along so the
    file is self-contained; builds that spill many summaries of the same
    graph pass ``include_graph=False`` and save the graph once.

    The columnar form is the summary's own ``superedge_arrays()`` export,
    so files saved from in-RAM or mapped summaries of the same structure
    are byte-identical.
    """
    lo, hi, weights = summary.superedge_arrays()
    supernode_of = np.ascontiguousarray(summary.supernode_of, dtype=np.int64)
    member_order = np.argsort(supernode_of, kind="stable").astype(np.int64)
    se_by_hi = np.lexsort((lo, hi)).astype(np.int64) if lo.size else np.empty(0, dtype=np.int64)
    arrays = {
        "supernode_of": supernode_of,
        "member_order": member_order,
        "member_keys": supernode_of[member_order],
        "se_lo": np.ascontiguousarray(lo, dtype=np.int64),
        "se_hi": np.ascontiguousarray(hi, dtype=np.int64),
        "se_by_hi": se_by_hi,
        "se_hi_keys": np.ascontiguousarray(hi, dtype=np.int64)[se_by_hi],
    }
    if summary.is_weighted:
        if weights is None:  # pragma: no cover - defensive; exports always pair them
            weights = np.ones(lo.shape[0], dtype=np.float64)
        arrays["se_weights"] = np.ascontiguousarray(weights, dtype=np.float64)
    graph = getattr(summary, "graph", None)
    has_graph = include_graph and isinstance(graph, Graph)
    if has_graph:
        arrays["graph_indptr"] = graph.indptr
        arrays["graph_indices"] = graph.indices
    write_store(
        path,
        arrays,
        kind=SUMMARY_KIND,
        meta={
            "num_nodes": summary.num_nodes,
            "weighted": summary.is_weighted,
            "num_supernodes": summary.num_supernodes,
            "num_superedges": summary.num_superedges,
            "has_graph": has_graph,
        },
    )


def load_summary_binary(
    path: "str | os.PathLike[str]",
    graph: "Graph | None" = None,
    *,
    verify: bool = True,
) -> MappedSummary:
    """Read a summary container from *path* as a zero-copy
    :class:`MappedSummary` over the file mapping — no heap copies of the
    arrays, read-only, byte-identical query answers.
    """
    with probe("store.load_summary"):
        container = open_store(path, kind=SUMMARY_KIND, verify=verify)
        return MappedSummary._from_container(container, graph)
