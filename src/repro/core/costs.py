"""The personalized MDL cost model (Eqs. 5–11 of the paper).

The total cost of a summary graph is

    ``Cost(G̅) = Size(G̅) + log2|V| · RE^(T)(G̅)``            (Eq. 5)

and it decomposes over unordered supernode pairs (Eq. 8).  Following
footnote 4, we keep block bookkeeping in *unordered* pair space: one
erroneous unit-weight pair costs ``2·log2|V|`` bits (its row and column),
one superedge costs ``2·log2|S|`` bits.  With the factorized weights
``W_uv = w_u w_v / Z`` (see :mod:`repro.core.weights`) the error of a block
``{A, B}`` needs only

* ``s_A = Σ_{u∈A} w_u`` and ``q_A = Σ_{u∈A} w_u²`` — maintained per
  supernode by :class:`CostModel`, O(1) to update on a merge; and
* ``ew_AB = Σ_{{u,v}∈E, u∈A, v∈B} w_u w_v / Z`` — the per-block edge
  weights.

These are the "new computational tricks ... maintaining additional
information" the paper defers to its online appendix (Sect. III-G).

Block error, unordered-pair space:

* superedge present: ``Π_AB − ew_AB``  (false positives on non-edges)
* superedge absent:  ``ew_AB``          (false negatives on edges)

where ``Π_AB = s_A s_B / Z`` (or ``(s_A² − q_A) / 2Z`` for ``A = B``) is the
total weight of all unordered node pairs in the block.

The block-edge-weight cache
---------------------------

Every live supernode keeps a dict ``{X: ew_AX}`` of block edge weights,
built once at O(|E|) by walking the input adjacency of its members
(``O(Σ_{u∈A}|N_u|)`` per supernode, Lemma 1) and updated in O(deg) when a
merge commits.  :meth:`CostModel.evaluate_merge` then runs a single fused
pass over the two partner dicts (no per-candidate rebuild and no scratch
dict), which makes candidate evaluation O(superdegree) instead of
O(Σ member degrees).  ``tests/core/test_costs.py`` pins the maintained
cache against freshly built models and every merge delta against
:meth:`CostModel.total_cost`.

Implementation note: the normalizer is folded into the node weights once
(``w' = w / sqrt(Z)``, so ``W_uv = w'_u w'_v`` exactly) and the hot loops
run over plain Python dicts/lists — numpy scalar indexing is an order of
magnitude slower than list indexing, and these loops are the inner kernel
of the whole algorithm.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro._util import log2_capped
from repro.core.pricing import MergePlan, evaluate_pair, superedge_cost_columns
from repro.core.summary import SummaryGraph
from repro.core.weights import PersonalizedWeights
from repro.errors import GraphFormatError

__all__ = ["CostModel", "MergePlan", "personalized_error"]


class CostModel:
    """Incremental cost bookkeeping for a :class:`SummaryGraph`.

    The model owns the per-supernode weight sums and block-edge-weight
    caches and answers the two questions PeGaSus asks while merging (Alg. 2):

    * :meth:`evaluate_merge` — the (relative) cost reduction of a candidate
      pair, plus the optimal superedge set for the union (lines 4–5, 9);
    * :meth:`apply_merge` — commit a previously evaluated plan (lines 6–9).

    All *merges* must flow through :meth:`apply_merge`; merging the summary
    directly desynchronizes the cached sums.  Superedge additions/removals
    on the summary are safe: they change no cached quantity.

    Parameters
    ----------
    summary, weights:
        The live summary graph and the personalized node weights (must be
        built on the same input graph).
    """

    def __init__(self, summary: SummaryGraph, weights: PersonalizedWeights):
        if summary.graph is not weights.graph:
            raise ValueError("summary and weights must be built on the same graph")
        self.summary = summary
        self.weights = weights
        n = summary.num_nodes
        graph = summary.graph

        scaled = weights.node_weight / math.sqrt(weights.normalizer)
        sum_w = np.zeros(n, dtype=np.float64)
        sum_w2 = np.zeros(n, dtype=np.float64)
        np.add.at(sum_w, summary.supernode_of, scaled)
        np.add.at(sum_w2, summary.supernode_of, scaled * scaled)

        # Python-list mirrors for the scalar-indexed hot loops.
        self._w: List[float] = scaled.tolist()
        self._sw: List[float] = sum_w.tolist()
        self._sq: List[float] = (sum_w2).tolist()
        self._sn: List[int] = summary.supernode_of.tolist()
        indptr, indices = graph.indptr, graph.indices
        index_list = indices.tolist()
        self._adj: List[List[int]] = [
            index_list[indptr[u] : indptr[u + 1]] for u in range(n)
        ]
        self._error_bit_price = 2.0 * log2_capped(max(n, 1))
        self._se_bits = 2.0 * log2_capped(max(summary.num_supernodes, 1))

        self._blocks: Dict[int, Dict[int, float]] = {
            s: self._walk_block_edge_weights(s) for s in summary.supernodes()
        }

    # ------------------------------------------------------------------
    # block primitives
    # ------------------------------------------------------------------
    def _walk_block_edge_weights(self, supernode: int) -> Dict[int, float]:
        """``ew_{A,X}`` recomputed from the input adjacency (Lemma 1)."""
        w, sn, adj = self._w, self._sn, self._adj
        acc: Dict[int, float] = {}
        get = acc.get
        for u in self.summary.member_list(supernode):
            wu = w[u]
            for v in adj[u]:
                x = sn[v]
                acc[x] = get(x, 0.0) + wu * w[v]
        if supernode in acc:
            acc[supernode] *= 0.5  # each within-block edge was visited twice
        return acc

    def block_edge_weights(self, supernode: int) -> Dict[int, float]:
        """``ew_{A,X}`` for every supernode ``X`` with an input edge to *A*.

        The self entry ``ew_{A,A}`` counts each within-block edge once.
        A copy of the maintained cache (O(superdegree)).
        """
        try:
            return dict(self._blocks[supernode])
        except KeyError:
            raise GraphFormatError(f"supernode {supernode} does not exist") from None

    def potential_weight(self, a: int, b: int) -> float:
        """``Π_AB``: total weight of unordered node pairs in block ``{A, B}``."""
        if a == b:
            s = self._sw[a]
            return (s * s - self._sq[a]) * 0.5
        return self._sw[a] * self._sw[b]

    def supernode_weight_sums(self, a: int) -> Tuple[float, float]:
        """``(s_A, q_A)`` — normalizer-scaled weight sums for supernode *A*."""
        return self._sw[a], self._sq[a]

    def _superedge_bits(self) -> float:
        return 2.0 * log2_capped(max(self.summary.num_supernodes, 1))

    def supernode_cost(self, supernode: int) -> float:
        """``Cost_A = Σ_B Cost_AB`` (Eq. 9); blocks with no edges and no
        superedge contribute zero and are skipped."""
        acc = self.block_edge_weights(supernode)
        adjacency = self.summary.superedge_neighbors(supernode)
        se_bits = self._superedge_bits()
        sw, sq = self._sw, self._sq
        price = self._error_bit_price
        s_node = sw[supernode]
        cost = 0.0
        for x, ew in acc.items():
            pi = (s_node * s_node - sq[supernode]) * 0.5 if x == supernode else s_node * sw[x]
            if x in adjacency:
                cost += se_bits + price * (pi - ew)
            else:
                cost += price * ew
        for x in adjacency:
            if x not in acc:  # superedge over an edgeless block (baseline-made)
                pi = (s_node * s_node - sq[supernode]) * 0.5 if x == supernode else s_node * sw[x]
                cost += se_bits + price * pi
        return cost

    def pair_cost(self, a: int, b: int) -> float:
        """``Cost_AB`` (Eq. 6) for the current summary graph."""
        ew = self.block_edge_weights(a).get(b, 0.0)
        pi = self.potential_weight(a, b)
        if self.summary.has_superedge(a, b):
            return self._superedge_bits() + self._error_bit_price * (pi - ew)
        return self._error_bit_price * ew

    # ------------------------------------------------------------------
    # merge evaluation and application (Alg. 2)
    # ------------------------------------------------------------------
    def evaluate_merge(self, a: int, b: int) -> MergePlan:
        """Evaluate merging supernodes *a* and *b* (Eq. 10 and Eq. 11).

        Also computes the optimal superedge set of the union (line 9 of
        Alg. 2): a superedge ``{A∪B, X}`` is kept iff it lowers
        ``Cost_{(A∪B)X}``; ties prefer the sparser summary.

        Delegates to the shared pricing core
        (:func:`repro.core.pricing.evaluate_pair`), whose scalar pass
        defines the bit pattern the batch window kernel reproduces.
        """
        return evaluate_pair(self, a, b)

    def apply_merge(self, plan: MergePlan) -> int:
        """Commit a :class:`MergePlan`; returns the union supernode id.

        The plan must have been produced by :meth:`evaluate_merge` against
        the *current* summary state (merging invalidates other plans that
        share an endpoint or a chosen superedge partner).
        """
        a, b = plan.a, plan.b
        sw, sq, sn = self._sw, self._sq, self._sn
        s_m = sw[a] + sw[b]
        q_m = sq[a] + sq[b]

        blocks = self._blocks
        acc_a = blocks.pop(a)
        acc_b = blocks.pop(b)
        merged: Dict[int, float] = {}
        for x, ew in acc_a.items():
            if x != a and x != b:
                merged[x] = ew
        get_m = merged.get
        for x, ew in acc_b.items():
            if x != a and x != b:
                merged[x] = get_m(x, 0.0) + ew
        ew_self = acc_a.get(a, 0.0) + acc_b.get(b, 0.0) + acc_a.get(b, 0.0)

        absorbed = self.summary.member_list(b)
        union, _former = self.summary.merge_supernodes(a, b)
        dead = b if union == a else a
        for u in absorbed:
            sn[u] = union
        sw[union], sq[union] = s_m, q_m
        sw[dead], sq[dead] = 0.0, 0.0
        for x in plan.superedges:
            self.summary.add_superedge(union, x)
        if plan.self_loop:
            self.summary.add_superedge(union, union)

        # Re-key every partner's cache entry to the union id.  Setting the
        # partner-side value from `merged` keeps the symmetry invariant
        # ``blocks[X][A] == blocks[A][X]`` exact.
        for x, ew in merged.items():
            d = blocks[x]
            d.pop(a, None)
            d.pop(b, None)
            d[union] = ew
        if ew_self:
            merged[union] = ew_self
        blocks[union] = merged
        self._se_bits = 2.0 * log2_capped(max(self.summary.num_supernodes, 1))
        return union

    # ------------------------------------------------------------------
    # whole-summary quantities (for tests, sparsification, and reporting)
    # ------------------------------------------------------------------
    def superedge_drop_order(self) -> List[Tuple[float, int, int]]:
        """All superedges as ``(Cost_AB, A, B)`` sorted ascending (Sect. III-F).

        Ties on the cost are broken by the ``(A, B)`` endpoint pair, so the
        drop order is deterministic.

        Vectorized: block costs are priced columnwise from the summary's
        packed superedge export (:meth:`SummaryGraph.superedge_arrays`)
        and ordered with one ``np.lexsort`` — same values, same total
        order as the original per-edge Python sort (pinned by
        ``tests/core/test_costs.py``).
        """
        summary = self.summary
        lo, hi, _weights = summary.superedge_arrays()
        if lo.size == 0:
            return []
        se_bits = self._superedge_bits()
        price = self._error_bit_price
        n = summary.num_nodes
        # ew_AB per superedge block, matching _blockwise_edge_weights'
        # bincount arithmetic bit for bit.
        ew = np.zeros(lo.size, dtype=np.float64)
        edges = summary.graph.edge_array()
        if edges.size:
            sn = summary.supernode_of
            w = self.weights.node_weight
            z = self.weights.normalizer
            end_a = sn[edges[:, 0]]
            end_b = sn[edges[:, 1]]
            key = np.minimum(end_a, end_b) * np.int64(n) + np.maximum(end_a, end_b)
            contrib = w[edges[:, 0]] * w[edges[:, 1]] / z
            uniq, inverse = np.unique(key, return_inverse=True)
            sums = np.bincount(inverse, weights=contrib)
            se_key = lo * np.int64(n) + hi
            pos = np.minimum(np.searchsorted(uniq, se_key), uniq.size - 1)
            ew = np.where(uniq[pos] == se_key, sums[pos], 0.0)
        sw = np.asarray(self._sw, dtype=np.float64)
        sq = np.asarray(self._sq, dtype=np.float64)
        s_lo = sw[lo]
        s_hi = sw[hi]
        # potential_weight(), columnwise: self blocks use (s² − q)/2.
        pi = np.where(lo == hi, (s_lo * s_lo - sq[lo]) * 0.5, s_lo * s_hi)
        # Every block here carries a superedge by construction, so the
        # shared pricing core's superedge branch is the whole cost.
        cost = superedge_cost_columns(pi, ew, se_bits, price)
        order = np.lexsort((hi, lo, cost))
        return list(
            zip(cost[order].tolist(), lo[order].tolist(), hi[order].tolist())
        )

    def total_cost(self) -> float:
        """``Cost(G̅)`` (Eq. 5) computed exactly — O(|E| + |P|)."""
        n = self.summary.num_nodes
        return self.summary.size_in_bits() + log2_capped(max(n, 1)) * personalized_error(
            self.summary, self.weights
        )


def _blockwise_edge_weights(
    summary: SummaryGraph, weights: PersonalizedWeights
) -> Dict[Tuple[int, int], float]:
    """Normalized ``ew`` for every supernode block with at least one edge."""
    graph = summary.graph
    edges = graph.edge_array()
    if edges.size == 0:
        return {}
    sn = summary.supernode_of
    w = weights.node_weight
    z = weights.normalizer
    a = sn[edges[:, 0]]
    b = sn[edges[:, 1]]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    key = lo * np.int64(summary.num_nodes) + hi
    contrib = w[edges[:, 0]] * w[edges[:, 1]] / z
    uniq, inverse = np.unique(key, return_inverse=True)
    sums = np.bincount(inverse, weights=contrib)
    n = summary.num_nodes
    return {(int(k // n), int(k % n)): float(s) for k, s in zip(uniq.tolist(), sums.tolist())}


def personalized_error(summary: SummaryGraph, weights: PersonalizedWeights) -> float:
    """Exact personalized error ``RE^(T)(G̅)`` (Eq. 1, ordered-pair sum).

    Works for any summary graph over the weights' input graph, including the
    weighted summaries produced by baselines (weights on superedges are
    ignored: reconstruction is presence/absence, as in Sect. II-A).
    Superedges are folded in sorted order so the result does not depend on
    set iteration order.
    """
    if summary.graph is not weights.graph and summary.graph != weights.graph:
        raise ValueError("summary and weights must describe the same graph")
    block_ew = _blockwise_edge_weights(summary, weights)
    sum_w = np.zeros(summary.num_nodes, dtype=np.float64)
    sum_w2 = np.zeros(summary.num_nodes, dtype=np.float64)
    np.add.at(sum_w, summary.supernode_of, weights.node_weight)
    np.add.at(sum_w2, summary.supernode_of, weights.node_weight_sq)
    z = weights.normalizer

    def potential(a: int, b: int) -> float:
        if a == b:
            return float((sum_w[a] * sum_w[a] - sum_w2[a]) / (2.0 * z))
        return float(sum_w[a] * sum_w[b] / z)

    error = 0.0
    seen_blocks = set()
    for a, b in sorted(summary.superedges()):
        key = (a, b) if a <= b else (b, a)
        seen_blocks.add(key)
        error += potential(a, b) - block_ew.get(key, 0.0)
    for key, ew in block_ew.items():
        if key not in seen_blocks:
            error += ew
    return 2.0 * error
