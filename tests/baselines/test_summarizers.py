"""Behavioural tests shared across the four baseline summarizers."""

from __future__ import annotations

import pytest

from repro.baselines import (
    kgrass_summarize,
    random_merge_summarize,
    s2l_summarize,
    saags_summarize,
    ssumm_summarize,
)
from repro.core import PersonalizedWeights, personalized_error
from repro.graph import planted_partition

SUPERNODE_BASELINES = {
    "kgrass": kgrass_summarize,
    "s2l": s2l_summarize,
    "saags": saags_summarize,
    "random": random_merge_summarize,
}


@pytest.fixture(scope="module")
def medium_graph():
    return planted_partition(150, 5, avg_degree_in=8.0, avg_degree_out=1.0, seed=3)


class TestSupernodeBudgetBaselines:
    @pytest.mark.parametrize("name", sorted(SUPERNODE_BASELINES))
    def test_respects_supernode_budget(self, name, medium_graph):
        summary = SUPERNODE_BASELINES[name](medium_graph, num_supernodes=50, seed=1)
        assert summary.num_supernodes <= 50
        summary.check_invariants()

    @pytest.mark.parametrize("name", sorted(SUPERNODE_BASELINES))
    def test_fraction_budget(self, name, medium_graph):
        summary = SUPERNODE_BASELINES[name](medium_graph, supernode_fraction=0.4, seed=1)
        assert summary.num_supernodes <= 60
        summary.check_invariants()

    @pytest.mark.parametrize("name", sorted(SUPERNODE_BASELINES))
    def test_outputs_weighted_summary(self, name, medium_graph):
        summary = SUPERNODE_BASELINES[name](medium_graph, num_supernodes=50, seed=1)
        assert summary.is_weighted

    @pytest.mark.parametrize("name", sorted(SUPERNODE_BASELINES))
    def test_deterministic(self, name, medium_graph):
        a = SUPERNODE_BASELINES[name](medium_graph, num_supernodes=60, seed=9)
        b = SUPERNODE_BASELINES[name](medium_graph, num_supernodes=60, seed=9)
        assert sorted(a.supernodes()) == sorted(b.supernodes())
        assert sorted(a.superedges()) == sorted(b.superedges())

    @pytest.mark.parametrize("name", ["kgrass", "s2l", "saags"])
    def test_beats_random_on_density_error(self, name, medium_graph):
        """Informed baselines should compress with less (unweighted-decode)
        error than random merging at the same supernode budget, when the
        summaries are decoded by the majority rule."""
        from repro.core import SummaryGraph

        def majority_error(summary):
            assignment = summary.supernode_of
            decoded = SummaryGraph.from_partition(
                medium_graph, assignment, superedge_rule="majority"
            )
            return personalized_error(decoded, PersonalizedWeights.uniform(medium_graph))

        informed = SUPERNODE_BASELINES[name](medium_graph, num_supernodes=40, seed=2)
        random_summary = random_merge_summarize(medium_graph, num_supernodes=40, seed=2)
        assert majority_error(informed) <= majority_error(random_summary)


class TestKgrass:
    def test_lossless_merges_first(self, twins_graph):
        summary = kgrass_summarize(twins_graph, num_supernodes=4, sample_factor=5.0, seed=0)
        # With heavy sampling the single lossless merge (a twin pair) is found.
        merged = [a for a in summary.supernodes() if summary.member_count(a) > 1]
        assert len(merged) == 1
        members = set(summary.members(merged[0]).tolist())
        # Twin classes: {0, 1, 4} (neighbors {2, 3}) and {2, 3} (neighbors
        # {0, 1, 4}); any within-class pair is a lossless merge.
        assert members in ({0, 1}, {0, 4}, {1, 4}, {2, 3})

    def test_invalid_sample_factor(self, twins_graph):
        with pytest.raises(ValueError):
            kgrass_summarize(twins_graph, num_supernodes=2, sample_factor=0.0)


class TestS2L:
    def test_cluster_count_bounded(self, medium_graph):
        summary = s2l_summarize(medium_graph, num_supernodes=20, seed=1)
        assert summary.num_supernodes <= 20

    def test_twins_cluster_together(self, twins_graph):
        summary = s2l_summarize(twins_graph, num_supernodes=2, seed=4, max_iterations=10)
        # Twins 0, 1, 4 share identical rows; they must land in one cluster.
        sn = summary.supernode_of
        assert sn[0] == sn[1] == sn[4]


class TestSaags:
    def test_sketch_intersection_estimates_overlap(self, rng):
        from repro.baselines.saags import CountMinSketch

        a = CountMinSketch(64, 2, rng)
        b = CountMinSketch(64, 2, rng)
        b._a, b._b = a._a, a._b
        a.add_many(list(range(30)))
        b.add_many(list(range(20, 50)))
        estimate = a.intersection_estimate(b)
        assert estimate >= 10  # count-min overestimates
        assert estimate <= 30

    def test_sketch_merge_adds_counts(self, rng):
        from repro.baselines.saags import CountMinSketch

        a = CountMinSketch(32, 2, rng)
        b = CountMinSketch(32, 2, rng)
        b._a, b._b = a._a, a._b
        a.add(1)
        b.add(2)
        a.merge(b)
        assert a.total == 2.0


class TestSSumM:
    def test_budget_in_bits(self, medium_graph):
        result = ssumm_summarize(medium_graph, compression_ratio=0.5, seed=1)
        assert result.budget_met
        assert not result.summary.is_weighted

    def test_uses_fixed_schedule_and_uniform_weights(self, medium_graph):
        result = ssumm_summarize(medium_graph, compression_ratio=0.5, seed=1)
        assert result.config.threshold == "fixed"
        assert result.config.alpha == 1.0
        assert result.weights.is_uniform

    def test_pegasus_nonpersonalized_not_worse_than_ssumm(self):
        """Sect. V-B: even with T = V, PeGaSus (adaptive θ) is competitive
        with SSumM on plain reconstruction error."""
        from repro.core import PegasusConfig, summarize

        graph = planted_partition(300, 6, avg_degree_in=8.0, avg_degree_out=0.8, seed=9)
        uniform = PersonalizedWeights.uniform(graph)
        pegasus = summarize(graph, compression_ratio=0.4, config=PegasusConfig(seed=3))
        ssumm = ssumm_summarize(graph, compression_ratio=0.4, seed=3)
        err_pegasus = personalized_error(pegasus.summary, uniform)
        err_ssumm = personalized_error(ssumm.summary, uniform)
        assert err_pegasus <= err_ssumm * 1.25  # competitive within slack
