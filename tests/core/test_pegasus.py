"""Integration-grade tests for the PeGaSus driver (Alg. 1)."""

from __future__ import annotations

import pytest

from repro.core import (
    Pegasus,
    PegasusConfig,
    PersonalizedWeights,
    personalized_error,
    summarize,
)
from repro.errors import BudgetError
from repro.graph import barabasi_albert, planted_partition


class TestBudget:
    def test_budget_met_at_common_ratios(self, sbm_medium):
        for ratio in (0.3, 0.5, 0.8):
            result = summarize(
                sbm_medium, targets=[0], compression_ratio=ratio, config=PegasusConfig(seed=1)
            )
            assert result.budget_met
            assert result.summary.size_in_bits() <= ratio * sbm_medium.size_in_bits() + 1e-6

    def test_budget_bits_direct(self, sbm_medium):
        budget = 0.4 * sbm_medium.size_in_bits()
        result = summarize(sbm_medium, budget_bits=budget, config=PegasusConfig(seed=1))
        assert result.summary.size_in_bits() <= budget

    def test_both_budgets_rejected(self, sbm_medium):
        with pytest.raises(BudgetError):
            summarize(sbm_medium, budget_bits=10.0, compression_ratio=0.5)

    def test_no_budget_rejected(self, sbm_medium):
        with pytest.raises(BudgetError):
            summarize(sbm_medium)

    def test_non_positive_budget_rejected(self, sbm_medium):
        with pytest.raises(BudgetError):
            summarize(sbm_medium, budget_bits=0.0)
        with pytest.raises(BudgetError):
            summarize(sbm_medium, compression_ratio=-0.1)

    def test_generous_budget_stops_early(self, sbm_medium):
        result = summarize(sbm_medium, compression_ratio=5.0, config=PegasusConfig(seed=1))
        assert result.iterations == 0
        assert result.summary.num_supernodes == sbm_medium.num_nodes

    def test_sparsification_kicks_in_when_merging_stalls(self, sbm_medium):
        """With a single iteration the merge phase cannot reach a tight
        budget, so superedge dropping must close the gap."""
        result = summarize(
            sbm_medium,
            compression_ratio=0.3,
            config=PegasusConfig(seed=1, t_max=1),
        )
        assert result.dropped_superedges > 0
        assert result.budget_met


class TestOutputValidity:
    def test_invariants(self, sbm_medium):
        result = summarize(sbm_medium, targets=[0], compression_ratio=0.5, config=PegasusConfig(seed=3))
        result.summary.check_invariants()

    def test_deterministic_with_seed(self, sbm_medium):
        a = summarize(sbm_medium, targets=[1], compression_ratio=0.5, config=PegasusConfig(seed=11))
        b = summarize(sbm_medium, targets=[1], compression_ratio=0.5, config=PegasusConfig(seed=11))
        assert sorted(a.summary.supernodes()) == sorted(b.summary.supernodes())
        assert sorted(a.summary.superedges()) == sorted(b.summary.superedges())

    def test_result_diagnostics_populated(self, sbm_medium):
        result = summarize(sbm_medium, targets=[0], compression_ratio=0.4, config=PegasusConfig(seed=1))
        assert result.iterations >= 1
        assert result.total_merges > 0
        assert result.elapsed_seconds > 0
        assert len(result.theta_trajectory) == result.iterations
        assert result.compression_ratio <= 0.4 + 1e-9

    def test_theta_trajectory_non_increasing(self, sbm_medium):
        result = summarize(sbm_medium, targets=[0], compression_ratio=0.2, config=PegasusConfig(seed=1))
        traj = result.theta_trajectory
        assert all(b <= a + 1e-12 for a, b in zip(traj, traj[1:]))

    def test_weights_reuse(self, sbm_medium):
        weights = PersonalizedWeights(sbm_medium, [0], alpha=1.5)
        result = summarize(sbm_medium, compression_ratio=0.5, weights=weights, config=PegasusConfig(seed=2))
        assert result.weights is weights

    def test_weights_graph_mismatch_rejected(self, sbm_medium, ba_small):
        weights = PersonalizedWeights(ba_small, [0])
        with pytest.raises(ValueError):
            summarize(sbm_medium, compression_ratio=0.5, weights=weights)


class TestPersonalizationEffect:
    def test_personalized_beats_nonpersonalized_near_target(self):
        """The Fig. 5 effect: under target weights, the personalized summary
        has lower error than the non-personalized one of equal budget."""
        graph = planted_partition(600, 10, avg_degree_in=8.0, avg_degree_out=0.8, seed=5)
        target = [0]
        weights = PersonalizedWeights(graph, target, alpha=2.0)
        personalized = summarize(
            graph, compression_ratio=0.3, weights=weights, config=PegasusConfig(seed=7, alpha=2.0)
        )
        plain = summarize(graph, compression_ratio=0.3, config=PegasusConfig(seed=7))
        err_personalized = personalized_error(personalized.summary, weights)
        err_plain = personalized_error(plain.summary, weights)
        assert err_personalized < err_plain

    def test_alpha_one_equals_uniform_setting(self, sbm_medium):
        """alpha = 1 makes targets irrelevant (Sect. III-G)."""
        with_targets = summarize(
            sbm_medium, targets=[0], compression_ratio=0.5, config=PegasusConfig(seed=4, alpha=1.0)
        )
        without = summarize(sbm_medium, compression_ratio=0.5, config=PegasusConfig(seed=4, alpha=1.0))
        assert sorted(with_targets.summary.supernodes()) == sorted(without.summary.supernodes())


class TestConfig:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PegasusConfig(alpha=0.9)
        with pytest.raises(ValueError):
            PegasusConfig(beta=2.0)
        with pytest.raises(ValueError):
            PegasusConfig(t_max=0)
        with pytest.raises(ValueError):
            PegasusConfig(threshold="sometimes")
        with pytest.raises(ValueError):
            PegasusConfig(objective="best")

    def test_fixed_threshold_runs(self, sbm_medium):
        result = summarize(
            sbm_medium, compression_ratio=0.5, config=PegasusConfig(seed=1, threshold="fixed")
        )
        assert result.budget_met

    def test_absolute_objective_runs(self, sbm_medium):
        result = summarize(
            sbm_medium,
            targets=[0],
            compression_ratio=0.5,
            config=PegasusConfig(seed=1, objective="absolute"),
        )
        assert result.budget_met

    def test_facade_wrapper(self, sbm_medium):
        result = Pegasus(seed=5, alpha=1.5).summarize(sbm_medium, targets=[2], compression_ratio=0.5)
        assert result.budget_met
        assert result.config.alpha == 1.5


class TestScaling:
    @pytest.mark.slow
    def test_roughly_linear_runtime(self):
        """Theorem 1: runtime grows about linearly in |E| (loose 2x slack)."""
        import time

        sizes = (1000, 4000)
        times = []
        for n in sizes:
            graph = barabasi_albert(n, 3, seed=1)
            started = time.perf_counter()
            summarize(graph, targets=[0], compression_ratio=0.5, config=PegasusConfig(seed=1))
            times.append(time.perf_counter() - started)
        ratio = times[1] / max(times[0], 1e-9)
        assert ratio < 4 * 2.5  # 4x edges, generous constant slack
