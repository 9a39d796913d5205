"""Cross-engine equivalence: the batch engine is pinned to the scalar oracle.

The scalar per-pair loop (``tests/_merge_oracle.py``) is the reference
semantics.  The production merge loop, speculative windows priced by
the fused kernel (:mod:`repro.core.batch`), must replay **byte
identical** merges and summaries for the same seed — same RNG consumption
(speculative draws are rewound on merge), same first-occurrence pair
dedup, bit-identical float arithmetic, same first-wins argmax, and the
same rejected scores recorded on the threshold.  The checks here are
therefore *exact* (``==``), across objectives × threshold policies ×
generator families, plus a determinism regression (same seed ⇒
byte-identical summaries twice on the batch engine).
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _merge_oracle import merge_groups as scalar_merge_groups
from _merge_oracle import scalar_engine
from repro.core import (
    AdaptiveThreshold,
    BatchCostEvaluator,
    CostModel,
    PegasusConfig,
    PersonalizedWeights,
    SummaryGraph,
    summarize,
)
from repro.core.merge import merge_groups
from repro.core.summary_io import save_summary
from repro.graph import (
    barabasi_albert,
    connected_caveman,
    erdos_renyi,
    planted_partition,
    watts_strogatz,
)

SETTINGS = settings(
    max_examples=16,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

GRAPH_FAMILIES = {
    "ba": lambda n, seed: barabasi_albert(n, 3, seed=seed),
    "er": lambda n, seed: erdos_renyi(n, 3 * n, seed=seed),
    "sbm": lambda n, seed: planted_partition(
        n, 4, avg_degree_in=6.0, avg_degree_out=1.0, seed=seed
    ),
    "ws": lambda n, seed: watts_strogatz(n, 3, 0.1, seed=seed),
}


def summarize_on(graph, engine, *, targets=None, ratio=0.4, **config_kwargs):
    """``summarize`` on the production engine, or on the scalar oracle."""
    config = PegasusConfig(**config_kwargs)
    with scalar_engine() if engine == "scalar" else contextlib.nullcontext():
        return summarize(graph, targets=targets, compression_ratio=ratio, config=config)


def merge_groups_on(engine, model, groups, threshold, rng):
    """One iteration's merge loop on the production engine or the oracle."""
    if engine == "scalar":
        return scalar_merge_groups(model, groups, threshold, rng)
    return merge_groups(model, groups, threshold, rng, evaluator=BatchCostEvaluator(model))


def summary_bytes(summary, tmp_path, label) -> bytes:
    path = tmp_path / f"{label}.txt"
    save_summary(summary, path)
    return path.read_bytes()


def assert_summaries_identical(left: SummaryGraph, right: SummaryGraph) -> None:
    left.check_invariants()
    right.check_invariants()
    assert left.num_supernodes == right.num_supernodes
    assert left.num_superedges == right.num_superedges
    assert np.array_equal(left.supernode_of, right.supernode_of)
    assert sorted(left.superedges()) == sorted(right.superedges())
    assert left.size_in_bits() == right.size_in_bits()  # exact, not approx
    probe = range(0, left.num_nodes, max(left.num_nodes // 16, 1))
    for node in probe:
        assert np.array_equal(
            left.reconstructed_neighbors(node), right.reconstructed_neighbors(node)
        ), f"reconstructed neighbors differ at node {node}"


def assert_equivalent_run(graph, *, targets=None, ratio=0.4, **config_kwargs):
    scalar = summarize_on(graph, "scalar", targets=targets, ratio=ratio, **config_kwargs)
    batch = summarize_on(graph, "batch", targets=targets, ratio=ratio, **config_kwargs)
    # The runs must replay merge-for-merge, not just end at the same place.
    assert scalar.iterations == batch.iterations
    assert scalar.total_merges == batch.total_merges
    assert scalar.dropped_superedges == batch.dropped_superedges
    assert scalar.budget_met == batch.budget_met
    assert scalar.size_trajectory == batch.size_trajectory
    assert scalar.theta_trajectory == batch.theta_trajectory
    assert_summaries_identical(scalar.summary, batch.summary)
    return scalar, batch


class TestSummarizeEquivalence:
    """Full Alg. 1 runs produce identical summaries on the engine and the oracle."""

    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_default_config(self, family):
        graph = GRAPH_FAMILIES[family](120, 3)
        assert_equivalent_run(graph, targets=[0, 1], seed=4, t_max=8)

    @pytest.mark.parametrize(
        "alpha,targets", [(1.0, None), (1.25, [0, 5]), (2.0, [3])]
    )
    @pytest.mark.parametrize(
        "threshold,beta", [("adaptive", 0.1), ("adaptive", 0.3), ("fixed", 0.1)]
    )
    def test_alpha_threshold_matrix(self, alpha, targets, threshold, beta):
        graph = barabasi_albert(150, 3, seed=7)
        assert_equivalent_run(
            graph,
            targets=targets,
            alpha=alpha,
            threshold=threshold,
            beta=beta,
            seed=3,
            t_max=8,
        )

    @pytest.mark.parametrize("objective", ["relative", "absolute"])
    def test_objective_ablation(self, objective):
        graph = planted_partition(160, 4, avg_degree_in=6.0, avg_degree_out=1.0, seed=2)
        assert_equivalent_run(graph, targets=[0], objective=objective, seed=1, t_max=6)

    def test_tight_budget_exercises_sparsification(self):
        graph = connected_caveman(8, 6)
        scalar, batch = assert_equivalent_run(graph, targets=[0], ratio=0.2, seed=0)
        assert scalar.dropped_superedges == batch.dropped_superedges

    def test_caveman_exact_ties(self):
        """Symmetric cliques produce exactly tied merge candidates; the
        batch argmax must break them first-wins like the scalar scan."""
        graph = connected_caveman(6, 5)
        assert_equivalent_run(graph, ratio=0.3, seed=4, t_max=10)

    def test_saved_bytes_identical(self, tmp_path):
        graph = barabasi_albert(180, 3, seed=9)
        scalar = summarize_on(graph, "scalar", targets=[2], ratio=0.4, seed=5)
        batch = summarize_on(graph, "batch", targets=[2], ratio=0.4, seed=5)
        assert summary_bytes(scalar.summary, tmp_path, "scalar") == summary_bytes(
            batch.summary, tmp_path, "batch"
        )

    @SETTINGS
    @given(
        family=st.sampled_from(sorted(GRAPH_FAMILIES)),
        num_nodes=st.integers(min_value=30, max_value=120),
        graph_seed=st.integers(min_value=0, max_value=2**31 - 1),
        run_seed=st.integers(min_value=0, max_value=2**31 - 1),
        alpha=st.sampled_from([1.0, 1.25, 1.75]),
        ratio=st.sampled_from([0.3, 0.5]),
    )
    def test_property_random_graphs(self, family, num_nodes, graph_seed, run_seed, alpha, ratio):
        graph = GRAPH_FAMILIES[family](num_nodes, graph_seed)
        targets = None if alpha == 1.0 else [graph_seed % max(graph.num_nodes, 1)]
        assert_equivalent_run(
            graph,
            targets=targets,
            alpha=alpha,
            ratio=ratio,
            seed=run_seed,
            t_max=5,
        )


class TestMergeGroupsEquivalence:
    """Direct merge-loop equivalence, independent of the Alg. 1 driver."""

    def test_windowed_groups_match_scalar(self):
        graph = barabasi_albert(160, 4, seed=6)
        results = []
        for engine in ("scalar", "batch"):
            summary = SummaryGraph(graph)
            weights = PersonalizedWeights.uniform(graph)
            model = CostModel(summary, weights)
            rng = np.random.default_rng(11)
            groups = [np.arange(0, 40), np.arange(40, 44), np.arange(44, 90)]
            threshold = AdaptiveThreshold(beta=0.1, initial=0.2)
            stats = merge_groups_on(engine, model, groups, threshold, rng)
            results.append((summary, stats, threshold.value, threshold.rejected_count))
        (scalar_summary, scalar_stats, _, scalar_rejected) = results[0]
        (batch_summary, batch_stats, _, batch_rejected) = results[1]
        assert_summaries_identical(scalar_summary, batch_summary)
        assert scalar_stats == batch_stats
        assert scalar_rejected == batch_rejected

    def test_rng_rewind_preserves_stream(self):
        """After a window is cut short by a merge, the next draws must
        match the scalar oracle's — i.e. speculative draws are rewound."""
        graph = barabasi_albert(120, 5, seed=8)
        streams = []
        for engine in ("scalar", "batch"):
            summary = SummaryGraph(graph)
            model = CostModel(summary, PersonalizedWeights.uniform(graph))
            rng = np.random.default_rng(21)
            merge_groups_on(
                engine,
                model,
                [np.arange(0, 60), np.arange(60, 120)],
                AdaptiveThreshold(beta=0.1, initial=0.3),
                rng,
            )
            streams.append(rng.integers(0, 2**31, size=8).tolist())
        assert streams[0] == streams[1]

    def test_unclean_summary_falls_back_to_scalar(self):
        """Superedges over edgeless blocks (baseline-made summaries) are
        priced by the scalar fallback — identical merges either way."""
        graph = connected_caveman(4, 5)
        outputs = []
        for engine in ("scalar", "batch"):
            summary = SummaryGraph(graph)
            summary.add_superedge(0, 10)  # edgeless block
            model = CostModel(summary, PersonalizedWeights.uniform(graph))
            merge_groups_on(
                engine,
                model,
                [np.arange(0, 10)],
                AdaptiveThreshold(beta=0.1, initial=0.0),
                np.random.default_rng(5),
            )
            outputs.append(
                (summary.supernode_of.tolist(), sorted(summary.superedges()))
            )
        assert outputs[0] == outputs[1]


class TestEvaluatorContract:
    def test_scores_match_scalar_bitwise(self, sbm_medium):
        """evaluate_scores columns equal evaluate_merge's outputs exactly."""
        summary = SummaryGraph(sbm_medium)
        model = CostModel(summary, PersonalizedWeights(sbm_medium, [0], alpha=1.5))
        evaluator = BatchCostEvaluator(model)
        rng = np.random.default_rng(0)
        a_ids = rng.integers(0, sbm_medium.num_nodes, size=64)
        b_ids = (a_ids + 1 + rng.integers(0, sbm_medium.num_nodes - 1, size=64)) % (
            sbm_medium.num_nodes
        )
        keep = a_ids != b_ids
        a_ids, b_ids = a_ids[keep], b_ids[keep]
        delta, relative = evaluator.evaluate_scores(a_ids, b_ids)
        for k in range(a_ids.size):
            plan = model.evaluate_merge(int(a_ids[k]), int(b_ids[k]))
            assert plan.delta == delta[k]
            assert plan.relative_delta == relative[k]

    def test_apply_merge_keeps_mirrors_in_sync(self, sbm_medium):
        summary = SummaryGraph(sbm_medium)
        model = CostModel(summary, PersonalizedWeights.uniform(sbm_medium))
        evaluator = BatchCostEvaluator(model)
        plan = model.evaluate_merge(0, 1)
        union = evaluator.apply_merge(plan)
        # Scores computed after the merge still match evaluate_merge.
        partner = next(s for s in summary.supernodes() if s != union)
        delta, relative = evaluator.evaluate_scores(
            np.asarray([union]), np.asarray([partner])
        )
        check = model.evaluate_merge(union, partner)
        assert check.delta == delta[0]
        assert check.relative_delta == relative[0]


class TestDeterminism:
    """Same seed ⇒ byte-identical summaries, run to run, on the batch engine."""

    def test_repeat_runs_byte_identical(self, tmp_path):
        graph = barabasi_albert(200, 3, seed=11)
        blobs = []
        for repeat in range(2):
            result = summarize_on(graph, "batch", targets=[0, 7], ratio=0.4, seed=13)
            blobs.append(summary_bytes(result.summary, tmp_path, f"run-{repeat}"))
        assert blobs[0] == blobs[1]

    def test_seed_changes_output(self):
        graph = barabasi_albert(200, 3, seed=11)
        first = summarize_on(graph, "batch", targets=[0], ratio=0.4, seed=0).summary
        second = summarize_on(graph, "batch", targets=[0], ratio=0.4, seed=99).summary
        assert not np.array_equal(first.supernode_of, second.supernode_of)
