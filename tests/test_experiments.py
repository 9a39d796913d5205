"""Smoke tests for the experiment drivers (tiny parameters, fast)."""

from __future__ import annotations

import math

import pytest

from repro.experiments import ExperimentScale, build_summary_for_method
from repro.experiments import (
    ablations,
    fig5_effectiveness,
    fig6_scalability,
    fig7_accuracy,
    fig9_alpha,
    fig10_diameter,
    fig11_beta,
    fig12_distributed,
)
from repro.experiments.common import MethodSkipped
from repro.graph import load_dataset

TINY = ExperimentScale(dataset_scale=0.15, num_queries=3, num_machines=2, t_max=5, seed=0)


class TestCommon:
    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        scale = ExperimentScale.from_env()
        assert scale.dataset_scale == 0.2
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert ExperimentScale.from_env().dataset_scale == 1.0
        monkeypatch.setenv("REPRO_DATASET_SCALE", "0.77")
        assert ExperimentScale.from_env().dataset_scale == 0.77

    def test_workers_from_env(self, monkeypatch):
        assert ExperimentScale.from_env().workers == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert ExperimentScale.from_env().workers == 3

    @pytest.mark.parametrize("method", ["pegasus", "ssumm", "saags", "kgrass"])
    def test_build_summary_per_method(self, method):
        graph = load_dataset("lastfm_asia", scale=0.15, seed=0).graph
        summary, achieved, elapsed = build_summary_for_method(
            method, graph, 0.6, targets=[0], t_max=5, seed=0
        )
        assert summary.num_nodes == graph.num_nodes
        assert achieved == pytest.approx(summary.compression_ratio())
        assert elapsed > 0.0

    def test_weighted_baseline_calibrated_to_budget(self):
        graph = load_dataset("lastfm_asia", scale=0.15, seed=0).graph
        summary, achieved, _ = build_summary_for_method("saags", graph, 0.6, seed=0)
        assert achieved <= 0.6 + 1e-9

    def test_oot_budget_raises(self):
        graph = load_dataset("lastfm_asia", scale=2.0, seed=0).graph
        assert graph.num_nodes > 1500
        with pytest.raises(MethodSkipped):
            build_summary_for_method("s2l", graph, 0.5, seed=0)

    def test_unknown_method(self):
        graph = load_dataset("lastfm_asia", scale=0.15, seed=0).graph
        with pytest.raises(ValueError):
            build_summary_for_method("magic", graph, 0.5)


class TestDrivers:
    def test_fig5(self):
        rows = fig5_effectiveness.run(
            datasets=("lastfm_asia",),
            alphas=(1.75,),
            target_specs=(("1", None), ("|V|", 1.0)),
            scale=TINY,
        )
        assert len(rows) == 2
        assert all(math.isfinite(r.relative_error) for r in rows)

    def test_fig6(self):
        rows = fig6_scalability.run(
            node_fractions=(0.6, 1.0), target_modes=("100",), scale=TINY
        )
        assert len(rows) >= 2
        assert all(r.elapsed_seconds > 0 for r in rows)
        slope = fig6_scalability.fit_loglog_slope([r for r in rows if r.graph_name == "skitter"])
        assert math.isfinite(slope)

    def test_fig7(self):
        rows = fig7_accuracy.run(
            datasets=("lastfm_asia",),
            ratios=(0.5,),
            methods=("pegasus", "ssumm"),
            query_types=("rwr",),
            scale=TINY,
        )
        assert {r.method for r in rows} == {"pegasus", "ssumm"}
        assert all(0.0 <= r.smape <= 1.0 for r in rows)
        assert fig7_accuracy.mean_over(rows, method="pegasus", query_type="rwr", metric="smape") >= 0

    def test_fig9(self):
        rows = fig9_alpha.run(
            datasets=("lastfm_asia",), alphas=(1.0, 1.5), ratios=(0.5,), query_types=("rwr",), scale=TINY
        )
        assert len(rows) == 2
        assert fig9_alpha.best_alpha(rows, ratio=0.5, query_type="rwr") in (1.0, 1.5)

    def test_fig10(self):
        rows = fig10_diameter.run(
            rewire_probabilities=(0.0, 0.1),
            alphas=(1.25, 1.75),
            num_nodes=120,
            neighbors_each_side=3,
            num_targets=10,
            query_types=("rwr",),
            scale=TINY,
        )
        pairs = fig10_diameter.best_alpha_per_probability(rows, query_type="rwr")
        assert len(pairs) == 2
        diameters = [d for d, _ in pairs]
        assert diameters[0] != diameters[1]

    def test_fig11(self):
        rows = fig11_beta.run(
            datasets=("lastfm_asia",), betas=(0.1, 0.9), ratios=(0.5,), query_types=("rwr",), scale=TINY
        )
        assert {r.beta for r in rows} == {0.1, 0.9}

    def test_fig12(self):
        rows = fig12_distributed.run(
            datasets=("lastfm_asia",),
            ratios=(0.5,),
            methods=("pegasus", "ssumm", "louvain"),
            query_types=("rwr",),
            dataset_scale_multiplier=1.0,
            num_machines=2,
            scale=TINY,
        )
        assert {r.method for r in rows} == {"pegasus", "ssumm", "louvain"}
        assert all(0.0 <= r.smape <= 1.0 for r in rows)

    def test_fig12_workers_equivalent(self):
        kwargs = dict(
            datasets=("lastfm_asia",),
            ratios=(0.5,),
            methods=("pegasus", "louvain"),
            query_types=("rwr",),
            dataset_scale_multiplier=1.0,
            num_machines=2,
            scale=TINY,
        )
        assert fig12_distributed.run(workers=1, **kwargs) == fig12_distributed.run(
            workers=2, **kwargs
        )

    def test_fig9_workers_equivalent(self):
        kwargs = dict(
            datasets=("lastfm_asia",), alphas=(1.0, 1.5), ratios=(0.5,), query_types=("rwr",), scale=TINY
        )
        assert fig9_alpha.run(workers=1, **kwargs) == fig9_alpha.run(workers=2, **kwargs)

    def test_fig5_workers_equivalent(self):
        kwargs = dict(
            datasets=("lastfm_asia",),
            alphas=(1.75,),
            target_specs=(("1", None), ("|V|", 1.0)),
            scale=TINY,
        )
        assert fig5_effectiveness.run(workers=1, **kwargs) == fig5_effectiveness.run(
            workers=2, **kwargs
        )

    def test_fig6_workers_equivalent_workload(self):
        kwargs = dict(node_fractions=(0.6, 1.0), target_modes=("100",), scale=TINY)

        def keys(rows):
            return [(r.graph_name, r.target_mode, r.num_nodes, r.num_edges) for r in rows]

        assert keys(fig6_scalability.run(workers=1, **kwargs)) == keys(
            fig6_scalability.run(workers=2, **kwargs)
        )

    def test_ablation_cost(self):
        rows = ablations.run_cost_criterion(datasets=("lastfm_asia",), scale=TINY)
        variants = ablations.mean_by_variant(rows, "personalized_error")
        assert set(variants) == {"relative", "absolute"}

    def test_ablation_threshold(self):
        rows = ablations.run_threshold_schedule(datasets=("lastfm_asia",), scale=TINY)
        variants = ablations.mean_by_variant(rows, "smape_rwr")
        assert set(variants) == {"adaptive", "fixed"}
