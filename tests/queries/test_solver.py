"""The RWR/PHP solves and HOP's BFS against dense oracles, and their telemetry.

The oracle materializes ``Â`` column by column through
``ReconstructedOperator.matvec`` on unit vectors, solves both systems
with ``np.linalg.solve`` (numpy only) and runs a BFS over its nonzeros:

* RWR: ``(D − (1−c)·Â) p = e_q`` on the positive-degree nodes, answer
  ``D p / Σ D p``;
* PHP: ``(D − c·Â)_UU p_U = c·(Â e_q)_U`` on the positive-degree nodes
  ``U`` other than ``q``, with ``p_q = 1``;
* HOP: hop counts along the pairs with ``Â_uv > 0``, at every node.

An isolated query answers ``e_q`` for RWR and PHP.  Sources that take
the ``stored`` fixture run in RAM and memory-mapped.  Summary and
residual sources within ``DIRECT_MAX_BLOCKS`` take the supernode-space
direct solve; graphs and the ``capped`` summary take CG.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.queries.operator as operator_module
from repro.core import PegasusConfig, SummaryGraph, summarize
from repro.graph import Graph, planted_partition
from repro.obs import MetricsRegistry, disable_profiling, enable_profiling, samples_for
from repro.queries import ReconstructedOperator, hop_distances, php_scores, rwr_scores
from repro.queries.hop import hop_distances_reference
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


def _supernode_queries(summary: SummaryGraph):
    """A node alone in its supernode, one sharing its supernode, and the last node."""
    sizes = np.bincount(summary.supernode_of)[summary.supernode_of]
    alone, shared = np.flatnonzero(sizes == 1)[0], np.flatnonzero(sizes > 1)[0]
    return int(alone), int(shared), summary.num_nodes - 1


def _blocks(summary: SummaryGraph) -> int:
    """Size of the summary's quotient system: its positive-degree supernodes."""
    active = ReconstructedOperator(summary).degrees() > 0.0
    return np.unique(summary.supernode_of[active]).size


def _touch_one_supernode(summary: SummaryGraph) -> np.ndarray:
    """Correction edges touching every member of the largest supernode."""
    members = np.flatnonzero(summary.supernode_of == np.bincount(summary.supernode_of).argmax())
    edges = []
    for u in members:
        outside = np.setdiff1d(np.arange(summary.num_nodes), summary.reconstructed_neighbors(u))
        edges.append((u, outside[outside != u][0]))
    return np.asarray(edges)


@pytest.fixture(
    params=[
        "graph", "summary", "capped", "weighted", "residual", "emptied", "isolated",
        "zero-block",
    ]
)
def case(request, community_graph, pegasus_summary, stored, monkeypatch):
    """``(source, queries)`` for one source kind."""
    n = community_graph.num_nodes
    queries = (0, 57, n - 1)
    if request.param == "graph":
        return stored(community_graph), queries
    if request.param == "summary":
        return stored(pegasus_summary), _supernode_queries(pegasus_summary)
    if request.param == "capped":
        # One block over the cap: the same summary runs CG.
        monkeypatch.setattr(operator_module, "DIRECT_MAX_BLOCKS", _blocks(pegasus_summary) - 1)
        assert ReconstructedOperator(pegasus_summary).direct_inverse(0.95) is None
        return stored(pegasus_summary), _supernode_queries(pegasus_summary)
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
    if request.param == "emptied":
        # Every member of one supernode leaves it for a refined block of
        # its own, which leaves the supernode's own block empty.
        edges = _touch_one_supernode(pegasus_summary)
        residual = ResidualSource(stored(pegasus_summary), edges)
        assert residual.num_extra == len(edges) > 1
        return residual, (int(edges[0, 0]), int(edges[-1, 0]), n - 1)
    sparse = planted_partition(40, 2, avg_degree_in=3.0, avg_degree_out=0.5, seed=2)
    graph = _with_isolated_nodes(sparse, 3)
    isolated = graph.num_nodes - 1
    assert graph.degrees()[isolated] == 0
    if request.param == "isolated":
        return stored(graph), (0, 21, isolated)
    # The three isolated nodes form one zero-degree supernode.
    blocks = np.where(graph.degrees() > 0, np.arange(graph.num_nodes) % 12, 12)
    summary = SummaryGraph.from_partition(graph, blocks, weighted=True, superedge_rule="all_blocks")
    assert np.count_nonzero(summary.supernode_of == summary.supernode_of[isolated]) == 3
    assert ReconstructedOperator(summary).degrees()[isolated] == 0.0
    return stored(summary), (0, 21, isolated)


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


def _hop_direct(adjacency: np.ndarray, query: int) -> np.ndarray:
    dist = np.full(adjacency.shape[0], -1, dtype=np.int64)
    dist[query] = 0
    frontier = np.asarray([query])
    level = 0
    while frontier.size:
        level += 1
        frontier = np.flatnonzero((adjacency[frontier] > 0.0).any(axis=0) & (dist < 0))
        dist[frontier] = level
    return dist


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


def test_hop_matches_bfs_over_dense_adjacency(case):
    """One quotient BFS answers HOP at every node of every source kind."""
    source, _ = case
    op = ReconstructedOperator(source)
    adjacency = _dense(op)
    for query in range(op.num_nodes):
        expected = _hop_direct(adjacency, query)
        assert np.array_equal(hop_distances(op, query, unreachable="raw"), expected), query
        assert np.array_equal(hop_distances_reference(source, query, unreachable="raw"), expected)


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_no_floating_point_exceptions(case, kind):
    """No division by an empty or zero-degree block, on any source."""
    source, queries = case
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for query in queries:
            KERNELS[kind](source, query)


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_isolated_query_is_unit_vector(kind):
    graph = _with_isolated_nodes(Graph.from_edges(3, [(0, 1), (1, 2)]), 2)
    # The summary keeps the two isolated nodes in one zero-degree supernode.
    summary = SummaryGraph.from_partition(graph, [0, 1, 2, 3, 3])
    expected = np.zeros(graph.num_nodes)
    expected[4] = 1.0
    for source in (graph, summary):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            scores = KERNELS[kind](source, 4)
        assert np.array_equal(scores, expected)


def _count_calls(monkeypatch, owner, name):
    """Count calls to ``owner.name`` for the test's duration."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("over", [False, True], ids=["at-cap", "over-cap"])
def test_size_cap_picks_the_solver(over, pegasus_summary, registry, monkeypatch):
    blocks = _blocks(pegasus_summary)
    monkeypatch.setattr(operator_module, "DIRECT_MAX_BLOCKS", blocks - 1 if over else blocks)
    products = _count_calls(monkeypatch, ReconstructedOperator, "matvec")
    builds = _count_calls(monkeypatch, ReconstructedOperator, "_build_inverse")
    op = ReconstructedOperator(pegasus_summary)
    for kind in sorted(KERNELS):
        for query in (0, 9):
            KERNELS[kind](op, query)
    iterations = _by_query(registry, "repro_solver_iterations")
    if over:
        assert not builds and len(products) > 4
        assert all(iterations[kind]["sum"] > 0 for kind in KERNELS)
    else:
        # One inverse serves both kernels (both damp by 0.95) and every
        # query on the operator; a direct solve records 0 iterations.
        assert len(builds) == 1 and not products
        assert all(iterations[kind]["sum"] == 0.0 for kind in KERNELS)
    assert all(iterations[kind]["count"] == 2 for kind in KERNELS)
    misses = _by_query(registry, "repro_solver_unconverged_total")
    assert all(misses[kind]["value"] == 0.0 for kind in KERNELS)


@pytest.mark.parametrize("size", [1, 8, 37])
def test_gauss_jordan_sweep_inverts_spd_matrices(size):
    rng = np.random.default_rng(size)
    factor = rng.normal(size=(size, size))
    matrix = factor @ factor.T + size * np.eye(size)
    inverse = operator_module._gauss_jordan_inverse(matrix.copy())
    np.testing.assert_allclose(inverse @ matrix, np.eye(size), rtol=0, atol=1e-12)


_THREAD_PROBE = """
import hashlib, sys
import numpy as np
from repro.core import SummaryGraph
from repro.graph import planted_partition
from repro.queries import ReconstructedOperator, php_scores, rwr_scores

graph = planted_partition(900, 30, avg_degree_in=6.0, avg_degree_out=1.0, seed=3)
summary = SummaryGraph.from_partition(
    graph, np.arange(900) % 300, weighted=True, superedge_rule="all_blocks"
)
op = ReconstructedOperator(summary)
digest = hashlib.sha256()
for query in (0, 451, 899):
    digest.update(rwr_scores(op, query).tobytes())
    digest.update(php_scores(op, query).tobytes())
print(op.direct_inverse(0.95)[0].shape[0], digest.hexdigest())
"""


def test_direct_answers_do_not_depend_on_blas_threads():
    """Answers in-process equal those of a one-BLAS-thread interpreter, byte for byte.

    The probe's summary has 300 blocks: big enough that a LAPACK inverse
    runs on several BLAS threads here and rounds differently on one,
    small enough for the direct solve.
    """
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    single = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout.split()
    scope: dict = {}
    out = []
    scope["print"] = lambda *args: out.extend(str(a) for a in args)
    exec(compile(_THREAD_PROBE, "<probe>", "exec"), scope)
    assert out[0] == "300"
    assert single == out


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
    def test_iteration_cap_counts_unconverged(self, kind, community_graph, registry, monkeypatch):
        # A graph source runs CG; a summary's direct solve makes no products.
        products = _count_calls(monkeypatch, ReconstructedOperator, "matvec")
        capped = KERNELS[kind](community_graph, 9, max_iterations=3)
        # PHP spends one extra product on its right-hand side.
        assert len(products) == (3 if kind == "rwr" else 4)
        assert _by_query(registry, "repro_solver_unconverged_total")[kind]["value"] == 1.0
        assert _by_query(registry, "repro_solver_iterations")[kind]["sum"] == 3.0

        converged = KERNELS[kind](community_graph, 9)
        assert _by_query(registry, "repro_solver_unconverged_total")[kind]["value"] == 1.0
        # The capped answer is the last iterate: a partial but well-formed
        # solution, measurably away from the converged one.
        assert np.all(np.isfinite(capped)) and capped.min() >= 0.0
        if kind == "rwr":
            assert capped.sum() == pytest.approx(1.0)
        else:
            assert capped[9] == 1.0
        assert 1e-8 < np.abs(capped - converged).sum() < np.abs(converged).sum()

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_direct_solve_records_no_iterations(self, kind, pegasus_summary, registry, monkeypatch):
        products = _count_calls(monkeypatch, ReconstructedOperator, "matvec")
        capped = KERNELS[kind](pegasus_summary, 9, max_iterations=3)
        assert not products
        assert _by_query(registry, "repro_solver_iterations")[kind]["sum"] == 0.0
        assert _by_query(registry, "repro_solver_unconverged_total")[kind]["value"] == 0.0
        # Exact either way: the cap has nothing to cut short.
        assert np.array_equal(capped, KERNELS[kind](pegasus_summary, 9))
