"""Byte-identity pins: saved summaries must not drift.

Each case builds a summary — a full Alg. 1 run, a baseline summarizer, or
a ``from_partition`` decoding — and compares the sha256 of its
``save_summary`` file against a recorded digest.  The digests were
recorded while the engine still had two summary storages (a dict-of-lists
one and a slot-array one) and two cost-model strategies; every pair
produced these same bytes, so the pins stand in for the cross-storage
comparison that existed then.  Any change to merge order, tie breaking,
float association in the cost sums, superedge decisions or the
sparsification drop order shows up as a digest mismatch.  A deliberate
change of output must re-record the pins and say why.

Also contains the determinism regression suite: a fixed
``PegasusConfig.seed`` must make ``summarize()`` byte-reproducible, a
different seed must change the output (so the seed is not silently
ignored), and a saved summary must load back into an identical one.
"""

from __future__ import annotations

import contextlib
import hashlib

import numpy as np
import pytest

from _merge_oracle import scalar_engine
from repro.baselines import (
    kgrass_summarize,
    random_merge_summarize,
    s2l_summarize,
    saags_summarize,
    ssumm_summarize,
)
from repro.core import PegasusConfig, SummaryGraph, summarize
from repro.core.summary_io import load_summary, save_summary
from repro.graph import (
    barabasi_albert,
    connected_caveman,
    erdos_renyi,
    planted_partition,
    watts_strogatz,
)

GRAPH_FAMILIES = {
    "ba": lambda n, seed: barabasi_albert(n, 3, seed=seed),
    "er": lambda n, seed: erdos_renyi(n, 3 * n, seed=seed),
    "sbm": lambda n, seed: planted_partition(
        n, 4, avg_degree_in=6.0, avg_degree_out=1.0, seed=seed
    ),
    "ws": lambda n, seed: watts_strogatz(n, 3, 0.1, seed=seed),
}

#: sha256 of the ``save_summary`` bytes, by case id.
PINS = {
    "baseline-kgrass": "c8e915cd935cf77c577ff17cbfb9a7fbfb969498fc1ca4641119841a6e75757c",
    "baseline-random_merge": "0a7505a487d8fe97d994955dc162f1677ed7c1b4cc637e212185e0a2a7a78c76",
    "baseline-s2l": "90afc2923582aab6d15e057a3c40fad22d2dd2bad346c0b8ea9039f1b1d9beee",
    "baseline-saags": "630b8cc640f377888ebee0d82f0bda92235ececeb9b29e0e3d075fe07367fce8",
    "baseline-ssumm": "32f40d41488cd26cb662e71d78ff052fdc8878e88e12b99ab82e4cc77cb4d55b",
    "caveman-ties": "fbe4d57501ed523c7d3543704f6d4ba759fd0f5420a947d448543e0f52a5689e",
    "default-ba-0": "73cd1b92da65330ff94d28905c756aea666b9eaa21dfcafe1ccbc2c47955e1e0",
    "default-ba-1": "c29aa1bda04483445ce506b878423adf4a54ffe5501f628e4bf060f1a2bda13f",
    "default-er-0": "5392cea32f58f6e27af256e4cce3630ab0e4d9af3d0251cb0febd6d2a0368115",
    "default-er-1": "545f8e13243c92128b704f0aad83d87ddcd621b746642feb6ef4e64b93ddacd9",
    "default-sbm-0": "35c5933fc204b9149c9750f5ced956fac6ec13eb62088801795dcb556cbfaf03",
    "default-sbm-1": "06e6dbfab490ad5a68caa759ed49d1337d0a6ca300c154d19af81e031cabc64b",
    "default-ws-0": "1d9f49daa2c4693f72f01b8d19e31a52969356579e4bb8bdc1c8b954bb0790b3",
    "default-ws-1": "17b2035fc9bf09d653b0d788ed88930a7349cee3dc67e68872b94fc2c4412c57",
    "matrix-1.0-adaptive-0.1": "4ca2549cd9de920ef2a6735d7d13165e3350761dcbeb5a3e440c20850a9a12ac",
    "matrix-1.0-adaptive-0.3": "101ba5dc804006e6197f15a99ec7106c7543b5e9492e5a0983d0b8c5f37ef12f",
    "matrix-1.0-fixed-0.1": "2fb9bcb6dc67418cd1a42bf2da53c4819bf432dfa748ff6b422fdb318f1e333e",
    "matrix-1.25-adaptive-0.1": "d09987dcbc88f9aa649c5af4434ac4c2a027ba3bfc6cd40b36c05a0047959f19",
    "matrix-1.25-adaptive-0.3": "7c6e53ccaa199e0ef6e0eba82f95c6baa8a66156dbd29b9ef409925d331fb589",
    "matrix-1.25-fixed-0.1": "7f386862d28806ad17691534ad705c9273770ea26ce72cef7f4f99e28881b6d1",
    "matrix-2.0-adaptive-0.1": "ab026a5f64d42fb70a15c1d8b1bcf2dc6ff9c1a63681b1a9b9c9d2c3f7fc9943",
    "matrix-2.0-adaptive-0.3": "3ba43180dc351038c657324abea66a10beaf601c0cec8670ba910bd44722c78f",
    "matrix-2.0-fixed-0.1": "943181204fcfacd10fba64110b29123f6938967564d5619fef36a172ff2f2ef0",
    "objective-absolute": "5184481680d21bf6449b4de4557b98433f1deb1975ef4f67366588a3af8f9120",
    "objective-relative": "d63f72bca8442e87021add6c800114254ea1b00b9c7ef190fc36a01d8ca3da0c",
    "partition-unweighted-all_blocks": "9ffc7ee8e4ff51c91c33f675d80a20aadaf291413ea96d316ec11550f0963e54",
    "partition-unweighted-majority": "7eb4a7c08a59f6b5600e740536356c1e71520eabfaed1a7e2e93587eb5829e1e",
    "partition-weighted-all_blocks": "b1793230895fcdc9a2fc01404a38e3fd855eb5845510e92a782c241112a0e50f",
    "partition-weighted-majority": "89a0512a7f6774d0d9224ef608b6de556088be1ff5a9b6821eb99e5aa1a3a051",
    "tight-budget": "8d806b6a9ec19829288ecd918bb11bfc930cb313afd2f01602d243c0ada19434",
}


def summarize_on(graph, *, targets=None, ratio=0.4, **config_kwargs):
    config = PegasusConfig(**config_kwargs)
    return summarize(graph, targets=targets, compression_ratio=ratio, config=config)


def summary_bytes(summary, tmp_path, label="summary") -> bytes:
    path = tmp_path / f"{label}.txt"
    save_summary(summary, path)
    return path.read_bytes()


def assert_pinned(case, summary, tmp_path) -> None:
    summary.check_invariants()
    digest = hashlib.sha256(summary_bytes(summary, tmp_path, case)).hexdigest()
    assert digest == PINS[case], f"saved bytes of {case!r} drifted"


def assert_summaries_identical(left: SummaryGraph, right: SummaryGraph) -> None:
    """Exact output-level equality of two summary graphs."""
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


class TestSummarizePins:
    """Full Alg. 1 runs across families, seeds and hyper-parameters."""

    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_default_config(self, family, seed, tmp_path):
        graph = GRAPH_FAMILIES[family](120, seed)
        result = summarize_on(graph, targets=[0, 1], seed=seed, t_max=10)
        assert_pinned(f"default-{family}-{seed}", result.summary, tmp_path)

    @pytest.mark.parametrize("alpha,targets", [(1.0, None), (1.25, [0, 5]), (2.0, [3])])
    @pytest.mark.parametrize(
        "threshold,beta", [("adaptive", 0.1), ("adaptive", 0.3), ("fixed", 0.1)]
    )
    def test_alpha_threshold_matrix(self, alpha, targets, threshold, beta, tmp_path):
        graph = barabasi_albert(150, 3, seed=7)
        result = summarize_on(
            graph,
            targets=targets,
            alpha=alpha,
            threshold=threshold,
            beta=beta,
            seed=3,
            t_max=10,
        )
        assert_pinned(f"matrix-{alpha}-{threshold}-{beta}", result.summary, tmp_path)

    @pytest.mark.parametrize("objective", ["relative", "absolute"])
    def test_objective_ablation(self, objective, tmp_path):
        graph = planted_partition(160, 4, avg_degree_in=6.0, avg_degree_out=1.0, seed=2)
        result = summarize_on(graph, targets=[0], objective=objective, seed=1, t_max=8)
        assert_pinned(f"objective-{objective}", result.summary, tmp_path)

    def test_tight_budget_exercises_sparsification(self, tmp_path):
        """A tight budget forces superedge drops, so the pin covers the
        deterministic drop order too."""
        graph = connected_caveman(8, 6)
        result = summarize_on(graph, targets=[0], ratio=0.2, seed=0, t_max=3)
        assert result.dropped_superedges > 0 and result.budget_met
        assert_pinned("tight-budget", result.summary, tmp_path)

    def test_caveman_exact_ties(self, tmp_path):
        """Symmetric cliques produce exactly tied merge candidates; the
        pin fixes how they are broken."""
        graph = connected_caveman(6, 5)
        result = summarize_on(graph, ratio=0.3, seed=4, t_max=12)
        assert_pinned("caveman-ties", result.summary, tmp_path)


class TestBaselinePins:
    """Baseline summaries: the weighted ones built through
    ``from_partition``, and SSumM, which runs the Alg. 1 merge engine."""

    @pytest.fixture
    def graph(self):
        return planted_partition(120, 4, avg_degree_in=6.0, avg_degree_out=1.0, seed=5)

    @pytest.mark.parametrize(
        "name,summarizer",
        [
            ("s2l", s2l_summarize),
            ("kgrass", kgrass_summarize),
            ("saags", saags_summarize),
            ("random_merge", random_merge_summarize),
        ],
    )
    def test_baseline(self, graph, name, summarizer, tmp_path):
        summary = summarizer(graph, supernode_fraction=0.25, seed=0)
        assert summary.is_weighted
        assert_pinned(f"baseline-{name}", summary, tmp_path)

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_ssumm(self, graph, engine, tmp_path):
        """SSumM's pin holds on the merge engine and on the scalar oracle."""
        with scalar_engine() if engine == "scalar" else contextlib.nullcontext():
            result = ssumm_summarize(graph, compression_ratio=0.4, seed=0, t_max=10)
        assert_pinned("baseline-ssumm", result.summary, tmp_path)


class TestFromPartitionPins:
    @pytest.mark.parametrize(
        "weighted,rule",
        [(False, "majority"), (False, "all_blocks"), (True, "majority"), (True, "all_blocks")],
    )
    def test_from_partition(self, weighted, rule, tmp_path):
        graph = planted_partition(90, 3, avg_degree_in=6.0, avg_degree_out=1.0, seed=3)
        labels = (np.arange(graph.num_nodes) * 7) % 11
        summary = SummaryGraph.from_partition(
            graph, labels, weighted=weighted, superedge_rule=rule
        )
        assert summary.is_weighted == weighted
        kind = "weighted" if weighted else "unweighted"
        assert_pinned(f"partition-{kind}-{rule}", summary, tmp_path)


class TestDeterminism:
    """Same seed ⇒ byte-identical summaries, run to run."""

    def test_repeat_runs_byte_identical(self, tmp_path):
        graph = barabasi_albert(200, 3, seed=11)
        blobs = []
        for repeat in range(2):
            result = summarize_on(graph, targets=[0, 7], ratio=0.4, seed=13)
            blobs.append(summary_bytes(result.summary, tmp_path, f"run-{repeat}"))
        assert blobs[0] == blobs[1]

    def test_seed_changes_output(self):
        """The RNG path is live: different seeds explore different merges
        (guards against the seed being silently ignored)."""
        graph = barabasi_albert(200, 3, seed=11)
        first = summarize_on(graph, targets=[0], ratio=0.4, seed=0).summary
        second = summarize_on(graph, targets=[0], ratio=0.4, seed=99).summary
        assert not np.array_equal(first.supernode_of, second.supernode_of)

    def test_save_load_roundtrip(self, sbm_medium, tmp_path):
        result = summarize_on(sbm_medium, targets=[0], ratio=0.5, seed=1)
        path = tmp_path / "summary.txt"
        save_summary(result.summary, path)
        loaded = load_summary(path, sbm_medium)
        assert_summaries_identical(result.summary, loaded)
        assert summary_bytes(loaded, tmp_path, "reloaded") == path.read_bytes()
