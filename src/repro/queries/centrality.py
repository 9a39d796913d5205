"""Whole-graph queries from Appendix A: degrees, clustering coefficients,
PageRank, and eigenvector centrality.

The paper's introduction motivates graph summarization by the fact that
"node degrees, clustering coefficients, eigenvector centrality, hops
between nodes, and random walk with restart" all access graphs only through
the neighborhood query and therefore run directly on summary graphs.  The
node-similarity queries live in their own modules (:mod:`repro.queries.rwr`
etc.); this module covers the remaining global statistics.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.graph.graph import Graph
from repro.queries.neighbors import approximate_neighbors
from repro.queries.operator import QuerySource, ReconstructedOperator


def degree_vector(source: QuerySource) -> np.ndarray:
    """(Reconstructed) degrees of all nodes — the degree query of [10]."""
    return ReconstructedOperator(source).degrees()


def _has_edge(source: QuerySource, u: int, v: int) -> bool:
    if isinstance(source, Graph):
        return source.has_edge(u, v)
    return source.reconstructed_has_edge(u, v)


def clustering_coefficient(source: QuerySource, node: int) -> float:
    """Local clustering coefficient of *node* in the (reconstructed) graph.

    ``2 · #edges(N(u)) / (deg(u) · (deg(u) − 1))``; 0 for degree < 2.  Runs
    in ``O(deg²)`` edge probes, each O(1) on both graphs and summaries.
    """
    neighbors = approximate_neighbors(source, node)
    k = neighbors.size
    if k < 2:
        return 0.0
    links = 0
    neighbor_list = neighbors.tolist()
    for i in range(k):
        for j in range(i + 1, k):
            if _has_edge(source, neighbor_list[i], neighbor_list[j]):
                links += 1
    return 2.0 * links / (k * (k - 1))


def average_clustering(source: QuerySource, *, sample: "int | None" = None, seed: int = 0) -> float:
    """Mean local clustering coefficient, optionally over a node sample."""
    n = source.num_nodes
    if n == 0:
        return 0.0
    if sample is not None and sample < n:
        rng = np.random.default_rng(seed)
        nodes = rng.choice(n, size=sample, replace=False)
    else:
        nodes = np.arange(n)
    return float(np.mean([clustering_coefficient(source, int(u)) for u in nodes]))


def pagerank(
    source: QuerySource,
    *,
    damping: float = 0.85,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
) -> np.ndarray:
    """Global PageRank on the (reconstructed) graph; sums to 1.

    Dangling mass is redistributed uniformly, the standard convention.
    """
    if not 0.0 < damping < 1.0:
        raise QueryError(f"damping must be in (0, 1), got {damping}")
    op = ReconstructedOperator(source)
    n = op.num_nodes
    if n == 0:
        return np.empty(0, dtype=np.float64)
    degrees = op.degrees()
    positive = degrees > 0.0
    safe = np.where(positive, degrees, 1.0)
    ranks = np.full(n, 1.0 / n, dtype=np.float64)
    for _ in range(max_iterations):
        spread = op.matvec(np.where(positive, ranks / safe, 0.0))
        dangling = ranks[~positive].sum()
        new_ranks = damping * (spread + dangling / n) + (1.0 - damping) / n
        if np.abs(new_ranks - ranks).sum() < tolerance:
            ranks = new_ranks
            break
        ranks = new_ranks
    return ranks / ranks.sum()


def eigenvector_centrality(
    source: QuerySource,
    *,
    tolerance: float = 1e-10,
    max_iterations: int = 500,
) -> np.ndarray:
    """Principal-eigenvector centrality (power iteration, L2-normalized).

    The centrality the paper cites [11] as answerable from summary graphs.
    Returns the all-zero vector for edgeless graphs.
    """
    op = ReconstructedOperator(source)
    n = op.num_nodes
    if n == 0:
        return np.empty(0, dtype=np.float64)
    vector = np.full(n, 1.0 / np.sqrt(n), dtype=np.float64)
    for _ in range(max_iterations):
        nxt = op.matvec(vector)
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            return np.zeros(n, dtype=np.float64)
        nxt /= norm
        if np.abs(nxt - vector).sum() < tolerance:
            vector = nxt
            break
        vector = nxt
    return np.abs(vector)
