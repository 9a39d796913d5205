"""The summary-graph structure ``G̅ = (S, P)`` (Sect. II-A of the paper).

A :class:`SummaryGraph` overlays a fixed input :class:`~repro.graph.Graph`
with

* a **partition** of the nodes into supernodes (``supernode_of`` maps each
  node to the id of its supernode; merged supernodes absorb their partner's
  members and keep one of the two ids, so live ids are always a subset of
  ``0..|V|-1``), and
* a **superedge set** ``P``, with self-loops represented by a supernode
  being adjacent to itself.

The decoded (reconstructed) graph ``Ĝ`` has an edge ``{u, v}`` iff
``{S_u, S_v}`` is a superedge (Sect. II-A); :meth:`reconstructed_neighbors`
is exactly ``getNeighbors`` from Alg. 4 and is the primitive every query in
:mod:`repro.queries` builds on.

Storage
-------

Supernode slots are indexed by id (``0..|V|-1``):

* ``_members[s]`` is the member list of supernode ``s`` (``None`` once
  ``s`` is absorbed).  A merge appends the absorbed list with
  ``list.extend``, so members stay in a fixed order — first members
  first, absorbed members last — and so does every float sum the cost
  model folds over them.
* ``_alive`` is the liveness bitmap; live supernodes enumerate in
  ascending id order, which is what makes whole ``summarize()`` runs
  replayable merge-for-merge.
* ``_nbr[s]`` is the superedge neighbor set of ``s`` (a list-indexed set,
  so the hot membership tests skip dict hashing), plus a packed columnar
  export (:meth:`SummaryGraph.superedge_arrays`), cached until the next
  mutation, that vectorized consumers —
  :class:`repro.queries.operator.ReconstructedOperator` in particular —
  read directly instead of walking sets.

Baselines that emit *weighted* summary graphs (S2L, k-Grass, SAAGs) attach
per-superedge weights; :meth:`size_in_bits` then uses the weighted encoding
from Sect. V-A (``|P| (2 log2|S| + log2 w_max) + |V| log2|S|``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro._util import log2_capped
from repro.errors import GraphFormatError
from repro.graph.graph import Graph


def _canonical(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a <= b else (b, a)


class SummaryGraph:
    """A mutable summary graph over a fixed input graph.

    Freshly constructed, it is the *identity* summary: every node is its own
    supernode and every input edge its own superedge (the initialization of
    Alg. 1, line 1), which reconstructs the input graph exactly.

    Parameters
    ----------
    graph:
        The input graph ``G``.
    weighted:
        Whether superedges carry weights (baseline summarizers only).
    """

    def __init__(self, graph: Graph, *, weighted: bool = False):
        self.graph = graph
        self.supernode_of = np.arange(graph.num_nodes, dtype=np.int64)
        self._weights: "Dict[Tuple[int, int], float] | None" = {} if weighted else None
        self._num_superedges = 0
        self._init_storage(self.supernode_of)
        for u, v in graph.edge_array():
            self.add_superedge(int(u), int(v))

    # ------------------------------------------------------------------
    # alternate constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_parts(
        cls,
        graph: Graph,
        supernode_of: "np.ndarray | Sequence[int]",
        superedges: "Iterable[Tuple[int, int, float | None]]" = (),
        *,
        weighted: bool = False,
        validate: bool = False,
    ) -> "SummaryGraph":
        """Assemble a summary graph from an explicit partition + superedges.

        Parameters
        ----------
        graph:
            The input graph.
        supernode_of:
            ``supernode_of[u]`` is the supernode id of node ``u``.  Ids must
            lie in ``0..|V|-1`` (they need not be the smallest member).
        superedges:
            ``(a, b, weight)`` triples; ``weight`` is ignored unless
            *weighted* (``None`` means weight 1).
        weighted:
            As for the main constructor.
        validate:
            Run :meth:`check_invariants` on the result (used by
            :func:`repro.core.summary_io.load_summary` on untrusted input).
        """
        assignment = np.asarray(supernode_of, dtype=np.int64)
        if assignment.shape != (graph.num_nodes,):
            raise GraphFormatError("supernode_of must have one entry per node")
        if assignment.size and (assignment.min() < 0 or assignment.max() >= graph.num_nodes):
            raise GraphFormatError("supernode ids must lie in [0, num_nodes)")
        obj = object.__new__(cls)
        obj.graph = graph
        obj.supernode_of = assignment.copy()
        obj._weights = {} if weighted else None
        obj._num_superedges = 0
        obj._init_storage(assignment)
        for a, b, weight in superedges:
            obj.add_superedge(int(a), int(b), weight=weight)
        if validate:
            obj.check_invariants()
        return obj

    def _init_storage(self, assignment: np.ndarray) -> None:
        """Build the slot-indexed member lists and neighbor sets of a
        partition; each member list is in ascending node order."""
        n = self.graph.num_nodes
        self._n = n  # plain-int mirror; the hot accessors skip the property chain
        members: List["List[int] | None"] = [None] * n
        for u, s in enumerate(assignment.tolist()):
            slot = members[s]
            if slot is None:
                members[s] = [u]
            else:
                slot.append(u)
        self._members = members
        self._alive = np.fromiter((m is not None for m in members), dtype=bool, count=n)
        self._live_count = int(self._alive.sum())
        self._nbr: List["Set[int] | None"] = [None if m is None else set() for m in members]
        self._arrays_cache: "tuple | None" = None

    @classmethod
    def from_partition(
        cls,
        graph: Graph,
        assignment: np.ndarray,
        *,
        weighted: bool = False,
        superedge_rule: str = "majority",
    ) -> "SummaryGraph":
        """Build a summary graph from a node partition.

        Parameters
        ----------
        graph:
            The input graph.
        assignment:
            ``assignment[u]`` is an arbitrary cluster label for node ``u``.
            Each cluster becomes one supernode whose id is its smallest
            member node (so supernode ids stay within ``0..|V|-1``).
        weighted:
            Whether to attach edge-count weights to superedges (the output
            format of the S2L / k-Grass / SAAGs baselines).
        superedge_rule:
            How to decide superedges per block with at least one edge:

            * ``"majority"`` — superedge iff edge density ≥ 0.5, the
              L1-optimal unweighted decoding;
            * ``"all_blocks"`` — superedge for every block with ≥ 1 edge
              (the dense decoding of weighted baseline summaries).
        """
        if superedge_rule not in ("majority", "all_blocks"):
            raise GraphFormatError(f"unknown superedge_rule {superedge_rule!r}")
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (graph.num_nodes,):
            raise GraphFormatError("assignment must have one label per node")
        labels, compact = np.unique(assignment, return_inverse=True)
        # Representative (smallest) node id per cluster becomes the supernode id.
        reps = np.full(labels.size, graph.num_nodes, dtype=np.int64)
        np.minimum.at(reps, compact, np.arange(graph.num_nodes, dtype=np.int64))
        supernode_of = reps[compact]
        sizes = np.bincount(compact)

        superedges: List[Tuple[int, int, "float | None"]] = []
        edges = graph.edge_array()
        if edges.size:
            a = supernode_of[edges[:, 0]]
            b = supernode_of[edges[:, 1]]
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            key = lo * np.int64(graph.num_nodes) + hi
            uniq, counts = np.unique(key, return_counts=True)
            n = graph.num_nodes
            size_of = dict(zip(reps.tolist(), sizes.tolist()))
            for k, count in zip(uniq.tolist(), counts.tolist()):
                sa, sb = int(k // n), int(k % n)
                if sa == sb:
                    size = size_of[sa]
                    pairs = size * (size - 1) // 2
                else:
                    pairs = size_of[sa] * size_of[sb]
                if superedge_rule == "all_blocks" or (pairs and count * 2 >= pairs):
                    superedges.append((sa, sb, float(count) if weighted else None))
        return cls.from_parts(graph, supernode_of, superedges, weighted=weighted)

    # ------------------------------------------------------------------
    # structure accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of input-graph nodes ``|V|``."""
        return self._n

    @property
    def num_supernodes(self) -> int:
        """Number of live supernodes ``|S|``."""
        return self._live_count

    @property
    def num_superedges(self) -> int:
        """Number of superedges ``|P|`` (self-loops count once)."""
        return self._num_superedges

    @property
    def is_weighted(self) -> bool:
        """Whether superedges carry weights (baseline summarizers only)."""
        return self._weights is not None

    def supernodes(self) -> List[int]:
        """Live supernode ids, ascending."""
        return np.flatnonzero(self._alive).tolist()

    def members(self, supernode: int) -> np.ndarray:
        """Member nodes of *supernode* as an array."""
        return np.asarray(self.member_list(supernode), dtype=np.int64)

    def member_list(self, supernode: int) -> List[int]:
        """Member nodes of *supernode* as the internal list (do not mutate).

        Hot-path variant of :meth:`members` that skips the array copy; the
        cost model and the HOP walk iterate it directly.
        """
        members = self._members[supernode] if 0 <= supernode < self._n else None
        if members is None:
            raise GraphFormatError(f"supernode {supernode} does not exist")
        return members

    def member_count(self, supernode: int) -> int:
        """``|A|`` for supernode *A*."""
        return len(self.member_list(supernode))

    def superedge_neighbors(self, supernode: int) -> Set[int]:
        """Supernodes adjacent to *supernode* in ``P`` (may include itself)."""
        neighbors = self._nbr[supernode] if 0 <= supernode < self._n else None
        if neighbors is None:
            raise GraphFormatError(f"supernode {supernode} does not exist")
        return neighbors

    def has_superedge(self, a: int, b: int) -> bool:
        """Whether the superedge ``{a, b}`` (possibly a self-loop) exists."""
        if not 0 <= a < self._n:
            return False
        neighbors = self._nbr[a]
        return neighbors is not None and b in neighbors

    def superedges(self) -> Iterator[Tuple[int, int]]:
        """Iterate superedges once each as ``(a, b)`` with ``a <= b``, sorted."""
        for a in np.flatnonzero(self._alive).tolist():
            for b in sorted(self._nbr[a]):
                if a <= b:
                    yield a, b

    def superedge_weight(self, a: int, b: int) -> float:
        """Weight of superedge ``{a, b}`` (weighted summaries only)."""
        if self._weights is None:
            raise GraphFormatError("summary graph is unweighted")
        return self._weights.get(_canonical(a, b), 0.0)

    def superedge_arrays(self) -> Tuple[np.ndarray, np.ndarray, "np.ndarray | None"]:
        """Packed columnar superedges ``(lo, hi, weights)``, lexsorted.

        ``weights`` is ``None`` for unweighted summaries.  Vectorized
        consumers (the query operator, serialization) read these instead of
        walking per-supernode adjacency.  Cached until the next mutation;
        :meth:`superedges` already iterates in lexicographic order, so no
        sort is needed.
        """
        if self._arrays_cache is None:
            lo: List[int] = []
            hi: List[int] = []
            for a, b in self.superedges():
                lo.append(a)
                hi.append(b)
            lo_arr = np.asarray(lo, dtype=np.int64)
            hi_arr = np.asarray(hi, dtype=np.int64)
            if self._weights is not None:
                w_arr = np.asarray(
                    [self._weights.get((a, b), 1.0) for a, b in zip(lo, hi)],
                    dtype=np.float64,
                )
            else:
                w_arr = None
            self._arrays_cache = (lo_arr, hi_arr, w_arr)
        return self._arrays_cache

    def block_pair_count(self, a: int, b: int) -> int:
        """Number of node pairs in block ``{a, b}`` (``C(|A|, 2)`` if ``a=b``)."""
        if a == b:
            size = self.member_count(a)
            return size * (size - 1) // 2
        return self.member_count(a) * self.member_count(b)

    def superedge_density(self, a: int, b: int) -> float:
        """Edge density encoded by superedge ``{a, b}``.

        For unweighted summaries a superedge means "all pairs present", so
        the density is 1.  For weighted summaries it is the stored edge
        count divided by the block's pair count — the expected-adjacency
        interpretation the weighted baselines (and the weighted-query
        answering of Sect. V-A) rely on.
        """
        if self._weights is None:
            return 1.0 if self.has_superedge(a, b) else 0.0
        pairs = self.block_pair_count(a, b)
        if pairs == 0:
            return 0.0
        return min(self._weights.get(_canonical(a, b), 0.0) / pairs, 1.0)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _require_pair(self, a: int, b: int, what: str) -> None:
        if (
            not 0 <= a < self._n
            or not 0 <= b < self._n
            or self._nbr[a] is None
            or self._nbr[b] is None
        ):
            raise GraphFormatError(f"{what} {a}, {b} must be live supernodes")

    def add_superedge(self, a: int, b: int, *, weight: "float | None" = None) -> None:
        """Insert superedge ``{a, b}``; idempotent for existing edges."""
        self._require_pair(a, b, "superedge endpoints")
        neighbors = self._nbr[a]
        if b not in neighbors:
            neighbors.add(b)
            self._nbr[b].add(a)
            self._num_superedges += 1
            self._arrays_cache = None
        if self._weights is not None:
            self._weights[_canonical(a, b)] = 1.0 if weight is None else float(weight)
            self._arrays_cache = None

    def remove_superedge(self, a: int, b: int) -> None:
        """Remove superedge ``{a, b}``; no-op if absent."""
        if not 0 <= a < self._n:
            return
        neighbors = self._nbr[a]
        if neighbors is not None and b in neighbors:
            neighbors.discard(b)
            self._nbr[b].discard(a)
            self._num_superedges -= 1
            self._arrays_cache = None
            if self._weights is not None:
                self._weights.pop(_canonical(a, b), None)

    def merge_supernodes(self, a: int, b: int) -> Tuple[int, Set[int]]:
        """Merge supernodes *a* and *b* into one (Alg. 2, lines 6–8).

        The union keeps id *a* and appends *b*'s members after its own; all
        superedges incident to either endpoint are dropped (the caller
        re-adds the beneficial ones, line 9).

        Returns ``(union_id, former_neighbors)`` where *former_neighbors* is
        the set of supernodes that had a superedge to *a* or *b* (with
        ``a``/``b`` replaced by the union id), so the caller can limit its
        re-addition scan.
        """
        if a == b:
            raise GraphFormatError("cannot merge a supernode with itself")
        self._require_pair(a, b, "merge endpoints")
        nbr = self._nbr
        na, nb = nbr[a], nbr[b]
        former = (na | nb) - {a, b}
        dropped = len(na) + len(nb) - (1 if b in na else 0)
        weights = self._weights
        for x in na:
            if x != a and x != b:
                nbr[x].discard(a)
            if weights is not None:
                weights.pop(_canonical(a, x), None)
        for x in nb:
            if x != a and x != b:
                nbr[x].discard(b)
            if weights is not None:
                weights.pop(_canonical(b, x), None)
        na.clear()
        nbr[b] = None
        self._num_superedges -= dropped

        members_b = self._members[b]
        self._members[a].extend(members_b)
        self._members[b] = None
        self.supernode_of[members_b] = a
        self._alive[b] = False
        self._live_count -= 1
        self._arrays_cache = None
        return a, former

    # ------------------------------------------------------------------
    # size model (Eq. 3 and the weighted variant of Sect. V-A)
    # ------------------------------------------------------------------
    def size_in_bits(self) -> float:
        """Summary size in bits.

        Unweighted (Eq. 3): ``2 |P| log2|S| + |V| log2|S|``.
        Weighted (Sect. V-A): ``|P| (2 log2|S| + log2 w_max) + |V| log2|S|``.
        """
        s = self.num_supernodes
        if s == 0:
            return 0.0
        log_s = log2_capped(s)
        membership_bits = self.num_nodes * log_s
        if self._weights is None:
            return 2.0 * self._num_superedges * log_s + membership_bits
        w_max = max(self._weights.values(), default=1.0)
        weight_bits = log2_capped(max(int(np.ceil(w_max)), 1)) if w_max > 1 else 0.0
        return self._num_superedges * (2.0 * log_s + weight_bits) + membership_bits

    def compression_ratio(self) -> float:
        """``Size(G̅) / Size(G)`` — the x-axis of Figs. 7 and 12."""
        denom = self.graph.size_in_bits()
        return self.size_in_bits() / denom if denom > 0 else 0.0

    # ------------------------------------------------------------------
    # reconstruction (Alg. 4 and helpers)
    # ------------------------------------------------------------------
    def reconstructed_neighbors(self, node: int) -> np.ndarray:
        """Neighbors of *node* in the reconstructed graph ``Ĝ`` (Alg. 4).

        The union of the members of every supernode adjacent to ``S_node``
        (including ``S_node`` itself when it has a self-loop), minus *node*.
        """
        if not 0 <= node < self.num_nodes:
            raise GraphFormatError(f"node {node} out of range")
        home = int(self.supernode_of[node])
        pieces = [self.member_list(a) for a in self.superedge_neighbors(home)]
        if not pieces:
            return np.empty(0, dtype=np.int64)
        flat = np.concatenate([np.asarray(p, dtype=np.int64) for p in pieces])
        flat = flat[flat != node]
        return np.unique(flat)

    def reconstructed_has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge of ``Ĝ`` — O(1) via the superedge set."""
        if u == v:
            return False
        return self.has_superedge(int(self.supernode_of[u]), int(self.supernode_of[v]))

    def reconstructed_degree(self, node: int) -> int:
        """Degree of *node* in ``Ĝ`` without materializing the neighbor set."""
        home = int(self.supernode_of[node])
        total = 0
        for a in self.superedge_neighbors(home):
            total += self.member_count(a)
            if a == home:
                total -= 1  # exclude the node itself under a self-loop
        return total

    def reconstructed_edge_count(self) -> int:
        """``|Ê|``: sum of block sizes over superedges (exact, O(|P|))."""
        total = 0
        for a, b in self.superedges():
            if a == b:
                size = self.member_count(a)
                total += size * (size - 1) // 2
            else:
                total += self.member_count(a) * self.member_count(b)
        return total

    def reconstruct(self) -> Graph:
        """Materialize ``Ĝ`` as a :class:`Graph` (small graphs / tests only)."""
        edges: List[Tuple[int, int]] = []
        for a, b in self.superedges():
            mem_a = self.member_list(a)
            if a == b:
                edges.extend((mem_a[i], mem_a[j]) for i in range(len(mem_a)) for j in range(i + 1, len(mem_a)))
            else:
                mem_b = self.member_list(b)
                edges.extend((u, v) for u in mem_a for v in mem_b)
        return Graph.from_edges(self.num_nodes, np.asarray(edges, dtype=np.int64).reshape(-1, 2), validate=False)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`GraphFormatError` if internal bookkeeping is broken.

        Used by tests and hypothesis properties; O(|V| + |P|).
        """
        seen = np.zeros(self.num_nodes, dtype=bool)
        live = np.flatnonzero(self._alive).tolist()
        if len(live) != self._live_count:
            raise GraphFormatError(f"live count {self._live_count} != bitmap count {len(live)}")
        for dead in np.flatnonzero(~self._alive).tolist():
            if self._members[dead] is not None:
                raise GraphFormatError(f"members for dead supernode {dead}")
            if self._nbr[dead] is not None:
                raise GraphFormatError(f"adjacency for dead supernode {dead}")
        for supernode in live:
            members = self._members[supernode]
            if not members:
                raise GraphFormatError(f"supernode {supernode} is empty")
            for u in members:
                if seen[u]:
                    raise GraphFormatError(f"node {u} appears in two supernodes")
                seen[u] = True
                if self.supernode_of[u] != supernode:
                    raise GraphFormatError(f"supernode_of[{u}] inconsistent")
        if not seen.all():
            raise GraphFormatError("partition does not cover all nodes")
        count = 0
        for a in live:
            neighbors = self._nbr[a]
            if neighbors is None:
                raise GraphFormatError(f"missing adjacency for live supernode {a}")
            for b in neighbors:
                other = self._nbr[b] if 0 <= b < self.num_nodes else None
                if other is None or a not in other:
                    raise GraphFormatError(f"superedge {{{a}, {b}}} not symmetric")
                if a <= b:
                    count += 1
        if count != self._num_superedges:
            raise GraphFormatError(f"superedge count {self._num_superedges} != recount {count}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SummaryGraph(|V|={self.num_nodes}, |S|={self.num_supernodes}, "
            f"|P|={self._num_superedges}, weighted={self.is_weighted})"
        )
