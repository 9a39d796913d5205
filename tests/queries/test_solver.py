"""The RWR/PHP linear solve against a dense direct solve, and its telemetry.

The oracle materializes ``Â`` column by column through
``ReconstructedOperator.matvec`` on unit vectors and solves both systems
with ``np.linalg.solve`` (numpy only):

* RWR: ``(D − (1−c)·Â) p = e_q`` on the positive-degree nodes, answer
  ``D p / Σ D p``;
* PHP: ``(D − c·Â)_UU p_U = c·(Â e_q)_U`` on the positive-degree nodes
  ``U`` other than ``q``, with ``p_q = 1``.

An isolated query answers ``e_q`` for both.  Sources that take the
``stored`` fixture run in RAM and memory-mapped.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import PegasusConfig, SummaryGraph, summarize
from repro.graph import Graph, planted_partition
from repro.obs import MetricsRegistry, disable_profiling, enable_profiling, samples_for
from repro.queries import ReconstructedOperator, php_scores, rwr_scores
from repro.queries.php import DEFAULT_CONTINUATION
from repro.queries.rwr import DEFAULT_RESTART
from repro.streaming import ResidualSource

KERNELS = {"rwr": rwr_scores, "php": php_scores}


@pytest.fixture(scope="module")
def community_graph() -> Graph:
    return planted_partition(120, 4, avg_degree_in=7.0, avg_degree_out=1.0, seed=11)


@pytest.fixture(scope="module")
def pegasus_summary(community_graph) -> SummaryGraph:
    config = PegasusConfig(seed=1)
    return summarize(
        community_graph, targets=[0, 1], compression_ratio=0.5, config=config
    ).summary


def _with_isolated_nodes(graph: Graph, extra: int) -> Graph:
    """*graph* plus *extra* isolated nodes numbered after its own."""
    heads = np.repeat(np.arange(graph.num_nodes), graph.degrees())
    edges = np.column_stack([heads, graph.indices])
    return Graph.from_edges(graph.num_nodes + extra, edges[edges[:, 0] < edges[:, 1]])


@pytest.fixture(params=["graph", "summary", "weighted", "residual", "isolated"])
def case(request, community_graph, pegasus_summary, stored):
    """``(source, queries)`` for one source kind."""
    n = community_graph.num_nodes
    queries = (0, 57, n - 1)
    if request.param == "graph":
        return stored(community_graph), queries
    if request.param == "summary":
        return stored(pegasus_summary), queries
    if request.param == "weighted":
        weighted = SummaryGraph.from_partition(
            community_graph, np.arange(n) % 17, weighted=True, superedge_rule="all_blocks"
        )
        return stored(weighted), queries
    if request.param == "residual":
        extra = np.random.default_rng(5).integers(0, n, size=(40, 2))
        residual = ResidualSource(stored(pegasus_summary), extra)
        assert residual.num_extra > 0
        return residual, queries
    sparse = planted_partition(40, 2, avg_degree_in=3.0, avg_degree_out=0.5, seed=2)
    graph = _with_isolated_nodes(sparse, 3)
    isolated = graph.num_nodes - 1
    assert graph.degrees()[isolated] == 0
    return stored(graph), (0, 21, isolated)


def _dense(op: ReconstructedOperator) -> np.ndarray:
    identity = np.eye(op.num_nodes)
    return np.column_stack([op.matvec(identity[i]) for i in range(op.num_nodes)])


def _rwr_direct(adjacency: np.ndarray, query: int, restart: float) -> np.ndarray:
    degrees = adjacency.sum(axis=1)
    scores = np.zeros(adjacency.shape[0])
    keep = np.flatnonzero(degrees > 0.0)
    if degrees[query] == 0.0:
        scores[query] = 1.0
        return scores
    system = np.diag(degrees[keep]) - (1.0 - restart) * adjacency[np.ix_(keep, keep)]
    potential = np.linalg.solve(system, (keep == query).astype(np.float64))
    scores[keep] = degrees[keep] * potential
    return scores / scores.sum()


def _php_direct(adjacency: np.ndarray, query: int, continuation: float) -> np.ndarray:
    degrees = adjacency.sum(axis=1)
    scores = np.zeros(adjacency.shape[0])
    keep = np.flatnonzero(degrees > 0.0)
    keep = keep[keep != query]
    system = np.diag(degrees[keep]) - continuation * adjacency[np.ix_(keep, keep)]
    scores[keep] = np.linalg.solve(system, continuation * adjacency[keep, query])
    scores[query] = 1.0
    return scores


DIRECT = {
    "rwr": lambda a, q: _rwr_direct(a, q, DEFAULT_RESTART),
    "php": lambda a, q: _php_direct(a, q, DEFAULT_CONTINUATION),
}


@pytest.fixture
def registry():
    """Profiling on, into a fresh registry, for the test's duration."""
    fresh = MetricsRegistry()
    enable_profiling(fresh)
    try:
        yield fresh
    finally:
        disable_profiling()


def _by_query(registry: MetricsRegistry, name: str):
    return {s["labels"]["query"]: s for s in samples_for(registry.snapshot(), name)}


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_matches_direct_solve(case, kind, registry):
    source, queries = case
    adjacency = _dense(ReconstructedOperator(source))
    for query in queries:
        scores = KERNELS[kind](source, query)
        assert scores.min() >= 0.0
        np.testing.assert_allclose(scores, DIRECT[kind](adjacency, query), rtol=0, atol=1e-8)
    # Default solves converge: the miss counter exists and never moved.
    iterations = _by_query(registry, "repro_solver_iterations")[kind]
    assert iterations["count"] == len(queries)
    assert _by_query(registry, "repro_solver_unconverged_total")[kind]["value"] == 0.0


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_isolated_query_is_unit_vector(kind):
    graph = _with_isolated_nodes(Graph.from_edges(3, [(0, 1), (1, 2)]), 2)
    expected = np.zeros(graph.num_nodes)
    expected[4] = 1.0
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        scores = KERNELS[kind](graph, 4)
    assert np.array_equal(scores, expected)


class TestTelemetry:
    def test_answers_identical_with_profiling_on(self, pegasus_summary):
        plain = [KERNELS[k](pegasus_summary, q).tobytes() for k in sorted(KERNELS) for q in (0, 9)]
        fresh = MetricsRegistry()
        enable_profiling(fresh)
        try:
            profiled = [
                KERNELS[k](pegasus_summary, q).tobytes() for k in sorted(KERNELS) for q in (0, 9)
            ]
        finally:
            disable_profiling()
        assert profiled == plain
        assert set(_by_query(fresh, "repro_solver_iterations")) == set(KERNELS)

    def test_profiling_off_records_nothing(self, pegasus_summary):
        from repro.obs import get_registry

        disable_profiling()
        before = samples_for(get_registry().snapshot(), "repro_solver_iterations")
        rwr_scores(pegasus_summary, 0)
        assert samples_for(get_registry().snapshot(), "repro_solver_iterations") == before

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_iteration_cap_counts_unconverged(self, kind, pegasus_summary, registry, monkeypatch):
        products = []
        matvec = ReconstructedOperator.matvec

        def counted(self, x):
            products.append(1)
            return matvec(self, x)

        monkeypatch.setattr(ReconstructedOperator, "matvec", counted)
        capped = KERNELS[kind](pegasus_summary, 9, max_iterations=3)
        # PHP spends one extra product on its right-hand side.
        assert len(products) == (3 if kind == "rwr" else 4)
        assert _by_query(registry, "repro_solver_unconverged_total")[kind]["value"] == 1.0
        assert _by_query(registry, "repro_solver_iterations")[kind]["sum"] == 3.0

        converged = KERNELS[kind](pegasus_summary, 9)
        assert _by_query(registry, "repro_solver_unconverged_total")[kind]["value"] == 1.0
        # The capped answer is the last iterate: a partial but well-formed
        # solution, measurably away from the converged one.
        assert np.all(np.isfinite(capped)) and capped.min() >= 0.0
        if kind == "rwr":
            assert capped.sum() == pytest.approx(1.0)
        else:
            assert capped[9] == 1.0
        assert 1e-8 < np.abs(capped - converged).sum() < np.abs(converged).sum()
