"""Property suite for the fused columnar pricing kernel.

The fused batch kernel (:mod:`repro.core.batch`) is pinned to the scalar
pricing core (:mod:`repro.core.pricing`) **element for element**: every
``(delta, relative_delta)`` column it produces must carry the exact bits
``CostModel.evaluate_merge`` reports for that ordered pair — not merely
the same end-of-run summary.  The full-run equivalence suite
(``test_engine_equivalence.py``) pins the composite behavior; this suite
attacks the kernel directly on adversarial row shapes:

* **empty partner rows** — isolated nodes whose block row has no entries;
* **edgeless self-blocks** — multi-node supernodes with no internal edge
  (``Π > 0``, ``ew = 0``);
* **zero-weight edges** — personalization underflow (``alpha^-d == 0.0``)
  produces block edges whose summed weight is exactly ``+0.0``;
* **single-node groups** — degenerate candidate groups the merge loop
  must skip exactly as the scalar oracle does;

plus hypothesis-driven random graphs × weight models × merge prefixes
(merges flow through ``BatchCostEvaluator.apply_merge``, so the
log-structured row invalidation and lazy re-export are on the tested
path), and a branch-vs-mask property for the pricing primitives
themselves.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _merge_oracle import merge_groups as scalar_merge_groups
from repro.core import BatchCostEvaluator, CostModel, PersonalizedWeights, SummaryGraph
from repro.core.merge import merge_groups
from repro.core.pricing import block_cost_masked, merged_cost_masked
from repro.core.threshold import FixedSchedule
from repro.graph import Graph

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def bits(value) -> bytes:
    """The IEEE-754 payload of a float, for exact comparison."""
    return np.float64(value).tobytes()


def build_graph(num_nodes: int, edges) -> Graph:
    return Graph.from_edges(num_nodes, edges)


def make_weights(graph: Graph, mode: int) -> PersonalizedWeights:
    if mode == 0 or graph.num_nodes < 2:
        return PersonalizedWeights.uniform(graph)
    targets = [0] if mode == 1 else [0, graph.num_nodes - 1]
    if mode == 3:
        # Underflow on purpose: nodes unreachable from the target get
        # weight 2.0**-5000 == +0.0, so blocks touching them carry
        # exact-zero edge weights — the kernel must price them without
        # the division/selection tricks ever producing different bits.
        return PersonalizedWeights(graph, [0], alpha=2.0, unreachable=5000)
    return PersonalizedWeights(graph, targets, alpha=1.5)


def apply_merge_prefix(model: CostModel, evaluator: BatchCostEvaluator, script, live):
    """Merge random live pairs *through the evaluator* (exercises the
    log-structured invalidation) and return the surviving supernodes."""
    live = list(live)
    for pick in script:
        if len(live) < 2:
            break
        a = live[pick % len(live)]
        rest = [s for s in live if s != a]
        b = rest[pick // max(len(live), 1) % len(rest)]
        union = evaluator.apply_merge(model.evaluate_merge(a, b))
        dead = b if union == a else a
        live.remove(dead)
    return live


def assert_unclean(evaluator: BatchCostEvaluator, ids) -> None:
    """A ``None`` from the kernel must mean exactly one thing: some row
    carries a superedge over an edgeless/zero-weight block."""
    arr = np.unique(np.asarray(list(ids), dtype=np.int64))
    evaluator._ensure_rows(arr)
    assert not evaluator._store.clean[arr].all()


def assert_pairs_bitwise_equal(model: CostModel, evaluator: BatchCostEvaluator, live):
    pairs = [(a, b) for a in live for b in live if a != b]
    if not pairs:
        return
    a_ids = np.asarray([p[0] for p in pairs], dtype=np.int64)
    b_ids = np.asarray([p[1] for p in pairs], dtype=np.int64)
    scored = evaluator.evaluate_scores(a_ids, b_ids)
    if scored is None:
        assert_unclean(evaluator, live)
        return
    delta, relative = scored
    for k, (a, b) in enumerate(pairs):
        plan = model.evaluate_merge(a, b)
        assert bits(plan.delta) == bits(delta[k]), (a, b, plan.delta, delta[k])
        assert bits(plan.relative_delta) == bits(relative[k]), (a, b)


def fresh_engine(graph: Graph, mode: int):
    summary = SummaryGraph(graph)
    weights = make_weights(graph, mode)
    model = CostModel(summary, weights)
    return model, BatchCostEvaluator(model)


class TestAdversarialShapes:
    def test_empty_partner_rows(self):
        # Nodes 3 and 4 are isolated: empty block rows on both sides.
        graph = build_graph(5, [(0, 1), (1, 2)])
        model, evaluator = fresh_engine(graph, 0)
        assert_pairs_bitwise_equal(model, evaluator, range(5))

    def test_edgeless_self_blocks(self):
        # Merging two isolated nodes yields Π > 0, ew = 0 self blocks.
        graph = build_graph(6, [(0, 1)])
        model, evaluator = fresh_engine(graph, 0)
        live = apply_merge_prefix(model, evaluator, [2, 3], range(6))
        assert_pairs_bitwise_equal(model, evaluator, live)

    def test_zero_weight_edges(self):
        # Component {3,4,5} is unreachable from target 0: its node
        # weights underflow to +0.0 and every block it touches prices
        # zero-weight edges.
        graph = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
        model, evaluator = fresh_engine(graph, 3)
        assert float(model._sw[4]) == 0.0
        # The identity summary keeps superedges over those zero-weight
        # blocks — the exact shape the kernel must refuse (fall back).
        scored = evaluator.evaluate_scores(
            np.asarray([3], dtype=np.int64), np.asarray([4], dtype=np.int64)
        )
        assert scored is None
        assert_unclean(evaluator, [3, 4])
        # Merging the component drops those superedges (a superedge over
        # a zero-weight block never pays for itself), after which the
        # fused path prices the zero-weight supernode like any other.
        union = evaluator.apply_merge(model.evaluate_merge(3, 4))
        union = evaluator.apply_merge(model.evaluate_merge(union, 5))
        assert float(model._sw[union]) == 0.0
        assert_pairs_bitwise_equal(model, evaluator, [0, 1, 2, union])

    def test_single_node_groups_skip_identically(self):
        graph = build_graph(8, [(0, 1), (2, 3), (4, 5), (5, 6)])
        groups = [[0], [7], [2]]  # all below the minimum merge size
        scalar_model, _ = fresh_engine(graph, 0)
        batch_model, evaluator = fresh_engine(graph, 0)
        scalar = scalar_merge_groups(
            scalar_model, groups, FixedSchedule(2), np.random.default_rng(0)
        )
        batch = merge_groups(
            batch_model,
            groups,
            FixedSchedule(2),
            np.random.default_rng(0),
            evaluator=evaluator,
        )
        assert (scalar.merges, scalar.attempts, scalar.evaluations) == (0, 0, 0)
        assert (batch.merges, batch.attempts, batch.evaluations) == (0, 0, 0)


class TestFusedMatchesScalarProperty:
    @SETTINGS
    @given(
        num_nodes=st.integers(min_value=2, max_value=14),
        raw_edges=st.lists(
            st.tuples(st.integers(0, 13), st.integers(0, 13)),
            max_size=30,
        ),
        mode=st.integers(min_value=0, max_value=3),
        script=st.lists(st.integers(min_value=0, max_value=1000), max_size=6),
    )
    def test_all_pairs_bitwise_equal(self, num_nodes, raw_edges, mode, script):
        edges = [
            (u % num_nodes, v % num_nodes)
            for u, v in raw_edges
            if u % num_nodes != v % num_nodes
        ]
        graph = build_graph(num_nodes, edges)
        model, evaluator = fresh_engine(graph, mode)
        assert_pairs_bitwise_equal(model, evaluator, range(num_nodes))
        live = apply_merge_prefix(model, evaluator, script, range(num_nodes))
        assert_pairs_bitwise_equal(model, evaluator, live)


# Non-negative cost magnitudes as they occur in Eq. 9/10: Π ≥ ew ≥ 0.
_MAGNITUDE = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)


class TestPrimitiveMaskEqualsBranch:
    """The mask-multiply selects equal branched ``np.where`` bit for bit."""

    @SETTINGS
    @given(
        rows=st.lists(
            st.tuples(st.booleans(), _MAGNITUDE, _MAGNITUDE),
            min_size=1,
            max_size=64,
        ),
        se_bits=st.floats(min_value=0.0, max_value=128.0, allow_nan=False),
        price=st.floats(min_value=1.0, max_value=128.0, allow_nan=False),
    )
    def test_block_cost(self, rows, se_bits, price):
        flag = np.asarray([r[0] for r in rows], dtype=bool)
        ew = np.asarray([r[1] for r in rows], dtype=np.float64)
        pi = ew + np.asarray([r[2] for r in rows], dtype=np.float64)
        fused = block_cost_masked(flag, pi, ew, se_bits, price)
        branched = np.where(flag, se_bits + price * (pi - ew), price * ew)
        assert fused.tobytes() == branched.tobytes()

    @SETTINGS
    @given(
        rows=st.lists(
            st.tuples(_MAGNITUDE, _MAGNITUDE),
            min_size=1,
            max_size=64,
        ),
        se_bits=st.floats(min_value=0.0, max_value=128.0, allow_nan=False),
        price=st.floats(min_value=1.0, max_value=128.0, allow_nan=False),
    )
    def test_merged_cost(self, rows, se_bits, price):
        ew = np.asarray([r[0] for r in rows], dtype=np.float64)
        pi = ew + np.asarray([r[1] for r in rows], dtype=np.float64)
        fused = merged_cost_masked(pi, ew, se_bits, price)
        with_edge = se_bits + price * (pi - ew)
        without_edge = price * ew
        branched = np.where(with_edge < without_edge, with_edge, without_edge)
        assert fused.tobytes() == branched.tobytes()


class TestInvalidation:
    """Stale rows re-export with the merged state, never the cached one."""

    def test_reprice_after_each_merge(self):
        rng = np.random.default_rng(11)
        u = rng.integers(0, 20, size=50)
        v = rng.integers(0, 20, size=50)
        edges = [(int(a), int(b)) for a, b in zip(u, v) if a != b]
        graph = build_graph(20, edges)
        model, evaluator = fresh_engine(graph, 2)
        live = list(range(20))
        assert_pairs_bitwise_equal(model, evaluator, live)
        for pick in (3, 141, 59, 26, 535):
            live = apply_merge_prefix(model, evaluator, [pick], live)
            assert_pairs_bitwise_equal(model, evaluator, live)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
