"""The fused columnar pricing kernel for Alg. 2's inner loop.

Alg. 2 prices each sampled candidate pair with Eq. 10/11.  One
:meth:`~repro.core.costs.CostModel.evaluate_merge` call does that for one
pair — the shared pricing core's fused Python pass over the two
endpoints' block-edge-weight rows (:func:`repro.core.pricing.evaluate_pair`),
which pays Python-level dict iteration and scalar float arithmetic per
element, thousands of pairs per PeGaSus iteration.

:class:`BatchCostEvaluator` prices **a whole batch of candidate pairs in
a handful of numpy passes**.  Failed attempts mutate nothing (the
summary, the block rows, and the superedge bit price ``2·log2|S|`` are
exactly as before), and >90% of attempts fail, so the merge loop
(:func:`repro.core.merge.merge_groups`) speculatively draws an AIMD
window of attempts ahead, deduplicates its pairs, prices the window's
not-yet-cached ordered pairs in one
:meth:`BatchCostEvaluator.evaluate_scores` call, and resolves the
attempts against an epoch-scoped pair→score cache.  One call is:

1. *join* (``merge.fused_join`` probe) — each touched supernode's row
   lives in the log-structured :class:`_RowStore` (exported once into
   columnar ``(partner, weight, has_superedge)`` buffers, reused across
   epochs, invalidated and lazily re-exported only when a merge touches
   the supernode); the pair rows are fancy-indexed into one flat element
   array (every pair's A row, then every pair's B row) and **one
   concatenated** ``searchsorted`` — element partner queries and the
   pairs' ``{a,b}`` cross-block queries in a single buffer — resolves
   every lookup against the store's sorted row segments;
2. *reduce* (``merge.fused_reduce`` probe) — the Eq. 9/10 arithmetic is
   folded directly into one segmented reduce: every before-merge term
   (row elements and the ``{a,a}``/``{b,b}``/``{a,b}`` tails) and every
   merged-side term (optimal-superedge blocks and the self loop) is
   priced branch-free by the shared pricing core
   (:func:`~repro.core.pricing.block_cost_masked` /
   :func:`~repro.core.pricing.merged_cost_masked`) into one stacked
   weight array, and a single ``np.bincount`` accumulates both the
   ``before`` and ``merged`` sums of every pair (bins ``p`` and
   ``num_pairs + p``) sequentially in element order.

Index bookkeeping between those passes (segment offsets, gather indices,
stacked layouts) runs on preallocated scratch and iota buffers with
ndarray methods and operator arithmetic, so a warm call issues **under
ten numpy-API calls** regardless of its size — measured, not asserted,
by the counting shim in ``benchmarks/bench_merge_micro.py``.

A committed merge ends the pricing epoch (``|S|`` shrinks, repricing
every superedge bit), drops the merge loop's score cache, and rewinds
the un-consumed speculative RNG draws.  Only a committing merge needs
the winning pair's full :class:`~repro.core.costs.MergePlan`, rebuilt
with one ``evaluate_merge`` call (bit-identical by the shared pricing
core's contract).  Tiny miss batches skip numpy entirely and are priced
through the core's Python entry point — same doubles, no dispatch floor
(:data:`repro.core.merge.SMALL_MISS_PAIRS`).

Bit-identity contract
---------------------

Every ``(delta, relative_delta)`` the kernel returns carries the exact
bits ``CostModel.evaluate_merge`` reports for that ordered pair
(``tests/core/test_fused_pricing.py``), which is what lets the merge
loop replay the paper's one-``evaluate_merge``-per-pair loop merge for
merge (``tests/core/test_engine_equivalence.py``).  Two properties make
that possible:

* every elementwise term is the same IEEE-754 double expression, in the
  same association order, as the Python pass — both consume the pricing
  core, and the branch-free mask selection is bitwise-equal to the
  Python branches (see :mod:`repro.core.pricing`);
* per-pair sums accumulate **in the same element order** as the Python
  ``+=`` sequence: rows are gathered in dict-insertion order and
  ``np.bincount`` adds its weights strictly left to right (terms the
  Python pass never adds are emitted as ``±0.0``, which is bitwise
  neutral — the accumulator can never itself be ``-0.0``).

When ``evaluate_merge`` prices an attempt instead
-------------------------------------------------

A pair touching a supernode with a superedge over an *edgeless* block
(only baseline-made summaries have those; a ``summarize()`` run never
does) makes :meth:`BatchCostEvaluator.evaluate_scores` return ``None``,
and the merge loop prices that attempt with ``evaluate_merge``, whose
fixup scans cover those blocks.  Either path yields the same bits, so
the fallback is a coverage detail, not a semantic one.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Optional, Tuple

import numpy as np

from repro.core.costs import CostModel, MergePlan
from repro.core.pricing import block_cost_masked, merged_cost_masked
from repro.errors import GraphFormatError
from repro.obs.profile import probe

def _member(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact-membership mask of *queries* against a sorted key table."""
    if sorted_keys.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, queries), sorted_keys.size - 1)
    return sorted_keys[pos] == queries


class _RowStore:
    """Append-only columnar store of block-edge-weight row exports.

    Each live supernode's row is exported once into six parallel global
    buffers — ``part``/``val``/``flag`` in dict-insertion order (the
    ``evaluate_merge`` accumulation order) and ``skey``/``sval``/``sflag``
    partner-sorted, keyed by ``supernode · |V| + partner`` so that the
    segments of any ascending supernode set concatenate to a globally
    sorted lookup table.  ``flag`` marks partners that carry a superedge.
    Rows whose supernode a merge touches are *invalidated* (length −1)
    and lazily re-exported at the end of the buffers — log-structured, so
    live offsets stay valid across epochs and window evaluation gathers
    rows with pure numpy segment indexing, no per-window Python assembly
    and no rebuilds.

    ``clean[s]`` is False when some superedge of *s* spans an edgeless
    (or zero-weight) block — the baseline-summary corner the vectorized
    pricing does not model, forcing a scalar fallback.
    """

    __slots__ = (
        "_n", "_cap", "_end", "off", "length", "clean", "any_unclean",
        "part", "val", "flag", "skey", "sval", "sflag",
    )

    def __init__(self, num_nodes: int, initial_capacity: int = 1024):
        self._n = num_nodes
        size = max(num_nodes, 1)
        self.off = np.zeros(size, dtype=np.int64)
        self.length = np.full(size, -1, dtype=np.int64)  # -1 = stale / unexported
        self.clean = np.ones(size, dtype=bool)
        #: Sticky: has *any* export ever been unclean?  Summarize-made
        #: summaries never trip it, letting the window kernel skip the
        #: per-window clean gather entirely.
        self.any_unclean = False
        cap = max(initial_capacity, 16)
        self._cap = cap
        self._end = 0
        self.part = np.empty(cap, dtype=np.int64)
        self.val = np.empty(cap, dtype=np.float64)
        self.flag = np.empty(cap, dtype=bool)
        self.skey = np.empty(cap, dtype=np.int64)
        self.sval = np.empty(cap, dtype=np.float64)
        self.sflag = np.empty(cap, dtype=bool)

    def _reserve(self, extra: int) -> None:
        need = self._end + extra
        if need <= self._cap:
            return
        cap = max(self._cap * 2, need)
        for name in ("part", "val", "flag", "skey", "sval", "sflag"):
            old = getattr(self, name)
            grown = np.empty(cap, dtype=old.dtype)
            grown[: self._end] = old[: self._end]
            setattr(self, name, grown)
        self._cap = cap

    def export(
        self, supernode: int, acc: Dict[int, float], neighbors: AbstractSet[int]
    ) -> None:
        """(Re-)export one supernode's row at the end of the buffers.

        *neighbors* is the supernode's superedge-neighbor set.  Short rows
        (the overwhelmingly common case on sparse graphs — a handful of
        block partners) are assembled in plain Python, which beats the
        numpy construction path by ~4× at these sizes; long rows take the
        vectorized path.  Both produce byte-identical buffer contents.
        """
        count = len(acc)
        self._reserve(count)
        start = self._end
        end = start + count
        key_base = supernode * self._n
        if count <= 16:
            part = list(acc.keys())
            val = list(acc.values())
            flag = [x in neighbors for x in part]
            order = sorted(range(count), key=part.__getitem__)
            self.part[start:end] = part
            self.val[start:end] = val
            self.flag[start:end] = flag
            self.skey[start:end] = [part[i] + key_base for i in order]
            self.sval[start:end] = [val[i] for i in order]
            self.sflag[start:end] = [flag[i] for i in order]
            clean = True
            for x in neighbors:
                if x != supernode:
                    w = acc.get(x)
                    if w is None or w == 0.0:
                        clean = False
                        break
        else:
            part_arr = np.fromiter(acc.keys(), dtype=np.int64, count=count)
            val_arr = np.fromiter(acc.values(), dtype=np.float64, count=count)
            order_arr = np.argsort(part_arr)
            part_sorted = part_arr[order_arr]
            val_sorted = val_arr[order_arr]
            adj_sorted = np.sort(
                np.fromiter(neighbors, dtype=np.int64, count=len(neighbors))
            )
            flag_sorted = _member(adj_sorted, part_sorted)
            flag_arr = np.empty(count, dtype=bool)
            flag_arr[order_arr] = flag_sorted
            self.part[start:end] = part_arr
            self.val[start:end] = val_arr
            self.flag[start:end] = flag_arr
            self.skey[start:end] = part_sorted + np.int64(key_base)
            self.sval[start:end] = val_sorted
            self.sflag[start:end] = flag_sorted
            nonself = adj_sorted[adj_sorted != supernode] if adj_sorted.size else adj_sorted
            if nonself.size == 0:
                clean = True
            else:
                pos = np.minimum(np.searchsorted(part_sorted, nonself), count - 1)
                clean = bool(
                    np.all((part_sorted[pos] == nonself) & (val_sorted[pos] != 0.0))
                )
        self.off[supernode] = start
        self.length[supernode] = count
        self.clean[supernode] = clean
        if not clean:
            self.any_unclean = True
        self._end = end


class BatchCostEvaluator:
    """Fused pair pricing over a :class:`CostModel`'s block cache.

    The evaluator owns numpy mirrors of the cost model's per-supernode
    weight sums plus cached columnar exports of the block-edge-weight
    rows.  All merges must flow through :meth:`apply_merge` (which wraps
    :meth:`CostModel.apply_merge`) so the mirrors and caches stay
    synchronized.

    Parameters
    ----------
    cost_model:
        The live cost model.
    """

    def __init__(self, cost_model: CostModel):
        self._cm = cost_model
        self._n = cost_model.summary.num_nodes
        self._n64 = np.int64(self._n)  # hoisted off the per-window path
        self._sw = np.asarray(cost_model._sw, dtype=np.float64)
        self._sq = np.asarray(cost_model._sq, dtype=np.float64)
        size = max(self._n, 1)
        # Eagerly maintained per-supernode scalars: the self block's
        # weight / self-loop flag (the tail terms of every evaluation).
        self._self_w = np.zeros(size, dtype=np.float64)
        self._self_adj = np.zeros(size, dtype=bool)
        summary = cost_model.summary
        for s, acc in cost_model._blocks.items():
            self._self_w[s] = acc.get(s, 0.0)
            self._self_adj[s] = s in summary.superedge_neighbors(s)
        #: Global append-only columnar row store (see :class:`_RowStore`);
        #: rows are exported lazily and invalidated by apply_merge.
        self._store = _RowStore(self._n, initial_capacity=4 * summary.graph.num_edges + 16)
        # Reusable scratch (grown geometrically, sliced per window) and
        # one shared iota ramp: the index bookkeeping between the fused
        # passes — interleaved layouts, gather offsets, stacked pricing
        # inputs — runs on these with setitem/method/operator arithmetic,
        # which is what keeps the per-window numpy-API call count in the
        # single digits.
        self._bufs: Dict[str, np.ndarray] = {}
        self._iota_buf = np.arange(1024, dtype=np.int64)

    # ------------------------------------------------------------------
    # scratch management
    # ------------------------------------------------------------------
    def _scratch(self, name: str, size: int, dtype: type) -> np.ndarray:
        """A reusable buffer of at least *size*, sliced to exactly *size*.

        Contents are undefined on entry; callers overwrite every slot
        they feed onward.  Returned views alias the shared buffers and
        are only valid until the next evaluation call.
        """
        buf = self._bufs.get(name)
        if buf is None or buf.size < size:
            cap = max(size, 16 if buf is None else 2 * buf.size)
            self._bufs[name] = buf = np.empty(cap, dtype=dtype)
        return buf[:size]

    def _iota(self, size: int) -> np.ndarray:
        """The shared ``0..size-1`` ramp (callers slice; do not mutate)."""
        if self._iota_buf.size < size:
            self._iota_buf = np.arange(max(size, 2 * self._iota_buf.size), dtype=np.int64)
        return self._iota_buf

    # ------------------------------------------------------------------
    # columnar exports
    # ------------------------------------------------------------------
    def _ensure_rows(self, ids: np.ndarray) -> np.ndarray:
        """Export any stale rows among *ids*; returns their lengths."""
        store = self._store
        lengths = store.length[ids]
        if (lengths < 0).any():
            blocks = self._cm._blocks
            summary = self._cm.summary
            for s in ids[lengths < 0].tolist():
                acc = blocks.get(s)
                if acc is None:
                    raise GraphFormatError(f"supernode {s} does not exist")
                store.export(s, acc, summary.superedge_neighbors(s))
            lengths = store.length[ids]
        return lengths

    # ------------------------------------------------------------------
    # the fused pricing kernel
    # ------------------------------------------------------------------
    def evaluate_scores(
        self, a_ids: np.ndarray, b_ids: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Per-pair ``(delta, relative_delta)`` for pairs ``(a_ids[k], b_ids[k])``.

        Both columns are bit-identical to what
        :meth:`CostModel.evaluate_merge` would report for each pair.
        Returns ``None`` when some endpoint has a superedge over an
        edgeless block (see the module docstring) — the caller then
        prices with ``evaluate_merge``.
        """
        a_ids = np.asarray(a_ids, dtype=np.int64)
        b_ids = np.asarray(b_ids, dtype=np.int64)
        # The ascending supernode universe backing the join table.
        table_ids = np.unique(np.concatenate((a_ids, b_ids)))
        n = self._n64
        cm = self._cm
        price = cm._error_bit_price
        se_bits = cm._se_bits
        sw, sq = self._sw, self._sq
        store = self._store
        num_pairs = int(a_ids.size)

        with probe("merge.fused_join"):
            # -- the sorted lookup table over the touched rows: the
            # store's per-row sorted segments, gathered in ascending
            # supernode order, concatenate to a globally sorted table.
            tab_len = self._ensure_rows(table_ids)
            if store.any_unclean and not store.clean[table_ids].all():
                return None
            tab_off = store.off[table_ids]
            num_rows = int(table_ids.size)
            total = int(tab_len.sum())
            iota = self._iota(max(total, num_rows, 1))
            if total:
                t_ends = tab_len.cumsum()
                t_seg = iota[:num_rows].repeat(tab_len)
                t_flat = iota[:total] - (t_ends - tab_len)[t_seg] + tab_off[t_seg]
                tab_key = store.skey[t_flat]
                tab_val = store.sval[t_flat]
                tab_flag = store.sflag[t_flat]

            # -- gather the pair rows in one block layout: the A rows of
            # every pair (the scalar pass's first fused loop), then the B
            # rows (the second).  Bincount accumulates in global element
            # order, and bins are per pair, so only each pair's own
            # element order matters — row_A before row_B per pair holds
            # in this layout exactly as it does interleaved.
            two_p = 2 * num_pairs
            ids2 = self._scratch("ids2", 2 * two_p, np.int64)
            oth2 = ids2[two_p:]
            ids2 = ids2[:two_p]
            ids2[:num_pairs] = a_ids
            ids2[num_pairs:] = b_ids
            oth2[:num_pairs] = b_ids
            oth2[num_pairs:] = a_ids
            seg_off = store.off[ids2]
            seg_len = store.length[ids2]
            num_elems = int(seg_len.sum())
            iota = self._iota(max(num_elems, two_p, 1))
            e_seg = iota[:two_p].repeat(seg_len)
            ends = seg_len.cumsum()
            e_flat = iota[:num_elems] - (ends - seg_len)[e_seg] + seg_off[e_seg]
            ea = int(ends[num_pairs - 1]) if num_pairs else 0
            x = store.part[e_flat]
            ew = store.val[e_flat]
            own_flag = store.flag[e_flat]
            pair_iota = iota[:num_pairs]
            e_pair = e_seg - num_pairs * (e_seg >= num_pairs)
            e_own_id = ids2[e_seg]
            e_oth_id = oth2[e_seg]
            sx = sw[x]
            own_pi = sw[e_own_id] * sx

            # -- the one concatenated join: every element's partner
            # resolved against the *other* endpoint's row (ew_BX and its
            # superedge flag for A elements; the X-in-acc_A duplicate
            # skip for B elements) plus every pair's {a,b} cross block,
            # in a single searchsorted over one query buffer.
            num_q = num_elems + num_pairs
            queries = self._scratch("queries", num_q, np.int64)
            queries[:num_elems] = e_oth_id * n + x
            queries[num_elems:] = a_ids * n + b_ids
            if total:
                pos = np.searchsorted(tab_key, queries)
                pos[pos == total] = total - 1
                found = tab_key[pos] == queries
                f_val = tab_val[pos]
                f_flag = tab_flag[pos]
            else:
                found = self._scratch("nf_found", num_q, bool)
                found[:] = False
                f_val = self._scratch("nf_val", num_q, np.float64)
                f_val[:] = 0.0
                f_flag = found

            # Self blocks {a,a}, {b,b} and the cross block {a,b} are
            # priced in the tail, exactly as the scalar loops `continue`
            # past them; found B elements are the duplicates the scalar
            # second loop skips.
            e_found = found[:num_elems]
            active = ~((x == e_own_id) | (x == e_oth_id))
            active[ea:] &= ~e_found[ea:]
            act_a = active[:ea]
            # Masked-out products land on ±0.0, bitwise-neutral padding
            # (see repro.core.pricing); clean rows guarantee flagged
            # partners carry nonzero weight, so the edgeless-superedge
            # branch cannot fire here.
            ewbx = f_val[:ea] * (act_a & e_found[:ea])
            oth_flag = e_found[:ea] & f_flag[:ea]
            ew_ab = f_val[num_elems:] * found[num_elems:]
            ab_edge = found[num_elems:] & f_flag[num_elems:]

        with probe("merge.fused_reduce"):
            # -- fold the Eq. 9/10 pricing of every term into one
            # segmented bincount: bins [0, P) accumulate each pair's
            # `before` (row elements in element order, then the aa/bb/ab
            # tails — the scalar += sequence), bins [P, 2P) accumulate
            # `merged` (optimal-superedge blocks, then the self loop).
            p_sa = sw[a_ids]
            p_sb = sw[b_ids]
            p_qa = sq[a_ids]
            p_qb = sq[b_ids]
            p_sm = p_sa + p_sb
            ew_aa = self._self_w[a_ids]
            ew_bb = self._self_w[b_ids]
            a_self = self._self_adj[a_ids]
            b_self = self._self_adj[b_ids]
            pi_a = (p_sa * p_sa - p_qa) * 0.5
            pi_b = (p_sb * p_sb - p_qb) * 0.5

            # Stacked `before` layout, preserving each bin's scalar +=
            # order: A elements interleaved with their partner terms
            # (own, ew_BX, own, ...), then B elements, then the
            # aa/bb/ab tails as three contiguous blocks.
            two_a = 2 * ea
            eb = num_elems - ea
            t3 = two_a + eb
            len_before = t3 + 3 * num_pairs
            len_total = len_before + num_elems + num_pairs
            flags = self._scratch("st_flag", len_before, bool)
            pis = self._scratch("st_pi", len_before, np.float64)
            ews = self._scratch("st_ew", len_before, np.float64)
            mask = self._scratch("st_mask", len_before, bool)
            bins = self._scratch("st_bins", len_total, np.int64)
            terms = self._scratch("st_terms", len_total, np.float64)

            flags[0:two_a:2] = own_flag[:ea]
            flags[1:two_a:2] = oth_flag
            flags[two_a:t3] = own_flag[ea:]
            pis[0:two_a:2] = own_pi[:ea]
            pis[1:two_a:2] = sw[e_oth_id[:ea]] * sx[:ea]
            pis[two_a:t3] = own_pi[ea:]
            ews[0:two_a:2] = ew[:ea]
            ews[1:two_a:2] = ewbx
            ews[two_a:t3] = ew[ea:]
            mask[0:two_a:2] = act_a
            mask[1:two_a:2] = act_a
            mask[two_a:t3] = active[ea:]
            flags[t3:t3 + num_pairs] = a_self
            flags[t3 + num_pairs:t3 + two_p] = b_self
            flags[t3 + two_p:len_before] = ab_edge
            pis[t3:t3 + num_pairs] = pi_a
            pis[t3 + num_pairs:t3 + two_p] = pi_b
            pis[t3 + two_p:len_before] = p_sa * p_sb
            ews[t3:t3 + num_pairs] = ew_aa
            ews[t3 + num_pairs:t3 + two_p] = ew_bb
            ews[t3 + two_p:len_before] = ew_ab
            mask[t3:len_before] = True
            bins[0:two_a:2] = e_pair[:ea]
            bins[1:two_a:2] = e_pair[:ea]
            bins[two_a:t3] = e_pair[ea:]
            bins[t3:t3 + num_pairs] = pair_iota
            bins[t3 + num_pairs:t3 + two_p] = pair_iota
            bins[t3 + two_p:len_before] = pair_iota
            terms[:len_before] = block_cost_masked(flags, pis, ews, se_bits, price) * mask

            ew_union = self._scratch("ew_union", num_elems, np.float64)
            ew_union[:ea] = ew[:ea] + ewbx
            ew_union[ea:] = ew[ea:]
            ew_self = (ew_aa + ew_bb) + ew_ab
            pi_self = (p_sm * p_sm - (p_qa + p_qb)) * 0.5
            e_sm = p_sm[e_pair]
            terms[len_before:len_before + num_elems] = (
                merged_cost_masked(e_sm * sx, ew_union, se_bits, price) * active
            )
            terms[len_before + num_elems:] = merged_cost_masked(
                pi_self, ew_self, se_bits, price
            )
            bins[len_before:len_before + num_elems] = e_pair + num_pairs
            bins[len_before + num_elems:] = pair_iota + num_pairs

            sums = np.bincount(bins, weights=terms, minlength=2 * num_pairs)
            before = sums[:num_pairs]
            merged = sums[num_pairs:]
            delta = before - merged
            positive = before > 0.0
            # Branch-free Eq. 11, bitwise-equal to the scalar
            # `delta / before if before > 0.0 else 0.0` (the masked-out
            # quotient lands on ±0.0 and the trailing `+ 0.0`
            # canonicalizes it to the scalar's +0.0).
            relative = (delta / (before + ~positive)) * positive + 0.0
            return delta, relative

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def apply_merge(self, plan: MergePlan) -> int:
        """Commit a plan through the cost model, keeping mirrors in sync.

        Invalidates the columnar exports of every supernode whose row or
        adjacency the merge can touch: the endpoints, their block
        partners (re-keyed to the union id), and their former superedge
        neighbors.
        """
        with probe("merge.apply"):
            return self._apply_merge(plan)

    def _apply_merge(self, plan: MergePlan) -> int:
        cm = self._cm
        blocks = cm._blocks
        summary = cm.summary
        touched = set(blocks[plan.a])
        touched.update(blocks[plan.b])
        touched.update(summary.superedge_neighbors(plan.a))
        touched.update(summary.superedge_neighbors(plan.b))
        touched.add(plan.a)
        touched.add(plan.b)
        union = cm.apply_merge(plan)
        dead = plan.b if union == plan.a else plan.a
        self._sw[union] = cm._sw[union]
        self._sq[union] = cm._sq[union]
        self._sw[dead] = 0.0
        self._sq[dead] = 0.0
        length = self._store.length
        self_w, self_adj = self._self_w, self._self_adj
        for s in touched:
            length[s] = -1  # lazy re-export at next use
            acc = blocks.get(s)
            if acc is None:
                self_w[s] = 0.0
                self_adj[s] = False
            else:
                self_w[s] = acc.get(s, 0.0)
                self_adj[s] = s in summary.superedge_neighbors(s)
        return union
