"""Unit tests for the MDL cost model (Eqs. 5–11)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CostModel, PersonalizedWeights, SummaryGraph, personalized_error
from repro.graph import Graph


def make_model(graph, targets=None, alpha=1.5):
    weights = (
        PersonalizedWeights.uniform(graph)
        if targets is None
        else PersonalizedWeights(graph, targets, alpha=alpha)
    )
    summary = SummaryGraph(graph)
    return CostModel(summary, weights), summary, weights


class TestBlockPrimitives:
    def test_block_edge_weights_identity_uniform(self, path4):
        model, _, _ = make_model(path4)
        acc = model.block_edge_weights(1)
        # Node 1 touches nodes 0 and 2, one edge each, weight 1 each.
        assert acc.keys() == {0, 2}
        assert acc[0] == pytest.approx(1.0)

    def test_self_block_counts_edges_once(self, triangle):
        model, summary, _ = make_model(triangle)
        plan = model.evaluate_merge(0, 1)
        model.apply_merge(plan)
        acc = model.block_edge_weights(0)
        assert acc[0] == pytest.approx(1.0)  # the single internal edge {0,1}

    def test_potential_weight_cross(self, path4):
        model, _, w = make_model(path4, targets=[0], alpha=2.0)
        s0, _ = model.supernode_weight_sums(0)
        s1, _ = model.supernode_weight_sums(1)
        assert model.potential_weight(0, 1) == pytest.approx(s0 * s1)
        assert model.potential_weight(0, 1) == pytest.approx(w.pair_weight(0, 1))

    def test_potential_weight_self_of_singleton_is_zero(self, path4):
        model, _, _ = make_model(path4)
        assert model.potential_weight(2, 2) == pytest.approx(0.0)

    def test_mismatched_graph_rejected(self, path4, triangle):
        weights = PersonalizedWeights.uniform(triangle)
        with pytest.raises(ValueError):
            CostModel(SummaryGraph(path4), weights)


class TestCostDecomposition:
    def test_decomposition_sums_to_total(self, two_cliques):
        """Eq. 8: |V| log2|S| + sum of block costs == Size + log2|V| * RE."""
        model, summary, weights = make_model(two_cliques, targets=[0], alpha=1.5)
        supernodes = summary.supernodes()
        block_sum = 0.0
        for i, a in enumerate(supernodes):
            for b in supernodes[i:]:
                block_sum += model.pair_cost(a, b)
        total = summary.num_nodes * np.log2(summary.num_supernodes) + block_sum
        assert total == pytest.approx(model.total_cost())

    def test_decomposition_after_merges(self, two_cliques, rng):
        model, summary, weights = make_model(two_cliques, targets=[5], alpha=1.25)
        for pair in [(0, 1), (4, 5)]:
            model.apply_merge(model.evaluate_merge(*pair))
        supernodes = summary.supernodes()
        block_sum = 0.0
        for i, a in enumerate(supernodes):
            for b in supernodes[i:]:
                block_sum += model.pair_cost(a, b)
        total = summary.num_nodes * np.log2(summary.num_supernodes) + block_sum
        assert total == pytest.approx(model.total_cost())

    def test_supernode_cost_is_row_sum(self, two_cliques):
        model, summary, _ = make_model(two_cliques)
        a = 3
        expected = sum(model.pair_cost(a, b) for b in summary.supernodes())
        assert model.supernode_cost(a) == pytest.approx(expected)


class TestMergeEvaluation:
    def test_lossless_twin_merge_maximal_relative_delta(self, twins_graph):
        """Merging twins (identical neighborhoods) loses nothing: the new
        superedges encode the same edges with fewer bits."""
        model, _, _ = make_model(twins_graph)
        plan = model.evaluate_merge(0, 1)
        assert plan.delta > 0
        assert plan.relative_delta > 0.4
        assert set(plan.superedges) == {2, 3}
        assert not plan.self_loop

    def test_dissimilar_merge_scores_lower(self, twins_graph):
        model, _, _ = make_model(twins_graph)
        twin_plan = model.evaluate_merge(0, 1)
        other_plan = model.evaluate_merge(0, 2)  # disjoint neighborhoods
        assert twin_plan.relative_delta > other_plan.relative_delta

    def test_clique_collapse_prefers_self_loop(self, two_cliques):
        model, _, _ = make_model(two_cliques)
        model.apply_merge(model.evaluate_merge(0, 1))
        model.apply_merge(model.evaluate_merge(0, 2))
        plan = model.evaluate_merge(0, 3)
        assert plan.self_loop

    def test_delta_matches_exhaustive_recomputation(self, two_cliques):
        """Eq. 10 vs recomputing the block-level cost before/after the merge.

        The decomposition prices superedges at log2|S| of the summary *at
        evaluation time*, so the exact check freezes |S| at its pre-merge
        value and compares superedge bits plus error bits.
        """
        model, summary, weights = make_model(two_cliques, targets=[2], alpha=1.5)
        log_s = np.log2(summary.num_supernodes)
        superedges_before = summary.num_superedges
        error_before = personalized_error(summary, weights)
        plan = model.evaluate_merge(0, 1)
        model.apply_merge(plan)
        superedges_after = summary.num_superedges
        error_after = personalized_error(summary, weights)
        n = summary.num_nodes
        cost_before = 2 * superedges_before * log_s + np.log2(n) * error_before
        cost_after = 2 * superedges_after * log_s + np.log2(n) * error_after
        assert plan.delta == pytest.approx(cost_before - cost_after, rel=1e-9)

    def test_merge_plan_superedges_are_optimal(self, sbm_medium, rng):
        """Flipping any single superedge decision must not lower the cost."""
        model, summary, weights = make_model(sbm_medium, targets=[0], alpha=1.25)
        plan = model.evaluate_merge(10, 11)
        model.apply_merge(plan)
        base_cost = model.supernode_cost(10)
        neighbors = list(model.block_edge_weights(10))
        for x in neighbors[:5]:
            if summary.has_superedge(10, x):
                summary.remove_superedge(10, x)
                assert model.supernode_cost(10) >= base_cost - 1e-9
                summary.add_superedge(10, x)
            else:
                summary.add_superedge(10, x)
                assert model.supernode_cost(10) >= base_cost - 1e-9
                summary.remove_superedge(10, x)

    def test_relative_delta_zero_for_isolated_pair(self):
        g = Graph.from_edges(4, [(0, 1)])
        model, _, _ = make_model(g)
        plan = model.evaluate_merge(2, 3)
        assert plan.delta == pytest.approx(0.0)
        assert plan.relative_delta == pytest.approx(0.0)


class TestApplyMerge:
    def test_sums_accumulate(self, path4):
        model, _, weights = make_model(path4, targets=[0], alpha=2.0)
        s0_before, q0_before = model.supernode_weight_sums(0)
        s1_before, q1_before = model.supernode_weight_sums(1)
        model.apply_merge(model.evaluate_merge(0, 1))
        s_after, q_after = model.supernode_weight_sums(0)
        assert s_after == pytest.approx(s0_before + s1_before)
        assert q_after == pytest.approx(q0_before + q1_before)

    def test_summary_stays_consistent(self, sbm_medium, rng):
        model, summary, _ = make_model(sbm_medium)
        alive = summary.supernodes()
        for _ in range(40):
            idx = rng.choice(len(alive), size=2, replace=False)
            plan = model.evaluate_merge(alive[idx[0]], alive[idx[1]])
            model.apply_merge(plan)
            alive = summary.supernodes()
        summary.check_invariants()

    def test_block_weights_match_fresh_model_after_merges(self, sbm_medium, rng):
        """Incremental bookkeeping equals a model rebuilt from scratch."""
        model, summary, weights = make_model(sbm_medium, targets=[3], alpha=1.25)
        alive = summary.supernodes()
        for _ in range(25):
            idx = rng.choice(len(alive), size=2, replace=False)
            model.apply_merge(model.evaluate_merge(alive[idx[0]], alive[idx[1]]))
            alive = summary.supernodes()
        fresh = CostModel(summary, weights)
        for a in alive[:10]:
            assert model.block_edge_weights(a) == pytest.approx(fresh.block_edge_weights(a))
            assert model.supernode_weight_sums(a)[0] == pytest.approx(
                fresh.supernode_weight_sums(a)[0]
            )


class TestPersonalizedError:
    def test_identity_summary_zero_error(self, ba_small):
        summary = SummaryGraph(ba_small)
        weights = PersonalizedWeights(ba_small, [0], alpha=1.5)
        assert personalized_error(summary, weights) == pytest.approx(0.0)

    def test_error_matches_bruteforce(self, two_cliques):
        """Eq. 1 computed entrywise over the adjacency matrices."""
        weights = PersonalizedWeights(two_cliques, [0], alpha=1.5)
        summary = SummaryGraph(two_cliques)
        summary.merge_supernodes(0, 1)
        summary.add_superedge(0, 0)
        summary.add_superedge(0, 2)
        reconstructed = summary.reconstruct()
        n = two_cliques.num_nodes
        brute = 0.0
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                a_uv = 1.0 if two_cliques.has_edge(u, v) else 0.0
                ahat_uv = 1.0 if reconstructed.has_edge(u, v) else 0.0
                brute += weights.pair_weight(u, v) * abs(a_uv - ahat_uv)
        assert personalized_error(summary, weights) == pytest.approx(brute)

    def test_uniform_error_counts_flipped_entries(self, two_cliques):
        """With W ≡ 1 the error is the number of flipped adjacency entries."""
        weights = PersonalizedWeights.uniform(two_cliques)
        summary = SummaryGraph(two_cliques)
        summary.remove_superedge(3, 4)  # drop the bridge: 2 flipped entries
        assert personalized_error(summary, weights) == pytest.approx(2.0)

    def test_superedge_over_edgeless_block(self, path4):
        weights = PersonalizedWeights.uniform(path4)
        summary = SummaryGraph(path4)
        summary.add_superedge(0, 3)  # spurious edge: 2 flipped entries
        assert personalized_error(summary, weights) == pytest.approx(2.0)

    def test_drop_order_sorted(self, sbm_medium):
        model, summary, _ = make_model(sbm_medium)
        order = model.superedge_drop_order()
        costs = [cost for cost, _, _ in order]
        assert costs == sorted(costs)
        assert len(order) == summary.num_superedges


def _reference_drop_order(model):
    """The original per-edge Python implementation of Sect. III-F's order,
    kept verbatim as the pin for the vectorized ``superedge_drop_order``."""
    from repro.core.costs import _blockwise_edge_weights

    entries = []
    se_bits = model._superedge_bits()
    edge_weights = _blockwise_edge_weights(model.summary, model.weights)
    for a, b in model.summary.superedges():
        key = (a, b) if a <= b else (b, a)
        ew = edge_weights.get(key, 0.0)
        cost = se_bits + model._error_bit_price * (model.potential_weight(a, b) - ew)
        entries.append((cost, a, b))
    entries.sort()
    return entries


class TestDropOrderVectorized:
    """The lexsort drop order is pinned bit-for-bit to the Python sort."""

    def test_matches_reference_identity_summary(self, sbm_medium):
        weights = PersonalizedWeights(sbm_medium, [0, 3], alpha=1.5)
        summary = SummaryGraph(sbm_medium)
        model = CostModel(summary, weights)
        assert model.superedge_drop_order() == _reference_drop_order(model)

    def test_matches_reference_after_merges(self):
        from repro.core import PegasusConfig, summarize
        from repro.graph import barabasi_albert

        graph = barabasi_albert(150, 3, seed=2)
        result = summarize(
            graph,
            targets=[0],
            compression_ratio=0.6,
            config=PegasusConfig(seed=1, t_max=4),
        )
        model = CostModel(result.summary, result.weights)
        order = model.superedge_drop_order()
        assert order == _reference_drop_order(model)
        assert [c for c, _, _ in order] == sorted(c for c, _, _ in order)

    def test_matches_reference_with_edgeless_superedge(self, path4):
        """Baseline-made summaries can hold superedges over edgeless
        blocks; both implementations price them identically (ew = 0)."""
        weights = PersonalizedWeights.uniform(path4)
        summary = SummaryGraph(path4)
        summary.add_superedge(0, 3)
        model = CostModel(summary, weights)
        assert model.superedge_drop_order() == _reference_drop_order(model)

    def test_empty_summary(self):
        graph = Graph.empty(4)
        model = CostModel(SummaryGraph(graph), PersonalizedWeights.uniform(graph))
        assert model.superedge_drop_order() == []

    def test_types_are_python_scalars(self, path4):
        model, _, _ = make_model(path4)
        for cost, a, b in model.superedge_drop_order():
            assert isinstance(cost, float)
            assert isinstance(a, int) and isinstance(b, int)
