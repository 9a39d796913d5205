"""HOP queries — shortest-path hop counts from a query node (Alg. 5).

:func:`hop_distances` reads its source through a
:class:`~repro.queries.operator.ReconstructedOperator`, like RWR and PHP,
and runs the operator's BFS
(:meth:`~repro.queries.operator.ReconstructedOperator.bfs_distances`):
on a summary or residual source it walks the quotient blocks the direct
solve keeps, a whole block taking its distance the moment it is first
reached, and on a graph the node-level
:func:`~repro.graph.traversal.bfs_distances` over the graph's own CSR.
:func:`hop_distances_reference` keeps the literal
``getNeighbors``-driven loop as the test oracle and Fig. 8's timing.

Unreachable nodes get the length of the longest shortest path observed
(the convention of Sect. V-A), or ``-1`` with ``unreachable="raw"``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.queries.operator import (
    QuerySource,
    ReconstructedOperator,
    as_operator,
    check_query_node,
)

_UNREACHABLE_MODES = ("longest", "raw")


def _fill_unreachable(dist: np.ndarray, mode: str) -> np.ndarray:
    if mode == "raw":
        return dist
    reached = dist[dist >= 0]
    longest = int(reached.max()) if reached.size else 0
    filled = dist.copy()
    filled[filled < 0] = longest
    return filled


def hop_distances_reference(
    source: QuerySource, query: int, *, unreachable: str = "longest"
) -> np.ndarray:
    """Literal Alg. 5: BFS driven by ``getNeighbors`` (Alg. 4) calls.

    This is the query-processing model the paper times in Fig. 8(b): every
    expansion materializes a node's reconstructed neighborhood, so BFS over
    the *dense* weighted summaries of SAAGs / k-Grass / S2L is much slower
    than over PeGaSus' sparse ones.  :func:`hop_distances` is the
    quotient-space optimization; this function exists for validation and
    for the Fig. 8 timing comparison.
    """
    if unreachable not in _UNREACHABLE_MODES:
        raise QueryError(f"unreachable must be one of {_UNREACHABLE_MODES}")
    from repro.queries.neighbors import approximate_neighbors

    num_nodes = source.num_nodes
    query = check_query_node(query, num_nodes)
    dist = np.full(num_nodes, -1, dtype=np.int64)
    dist[query] = 0
    frontier = [query]
    level = 0
    while frontier:
        level += 1
        next_frontier = []
        for u in frontier:
            for v in approximate_neighbors(source, u).tolist():
                if dist[v] < 0:
                    dist[v] = level
                    next_frontier.append(v)
        frontier = next_frontier
    return _fill_unreachable(dist, unreachable)


def hop_distances(
    source: "QuerySource | ReconstructedOperator", query: int, *, unreachable: str = "longest"
) -> np.ndarray:
    """Hop counts from *query* to every node (Alg. 5).

    Parameters
    ----------
    source:
        Graph (exact), summary graph or residual source (approximate), or
        a :class:`~repro.queries.operator.ReconstructedOperator` over one,
        reused across queries.
    query:
        The query node ``q``.
    unreachable:
        ``"longest"`` (paper convention: fill with the longest observed
        shortest path) or ``"raw"`` (keep ``-1``).
    """
    if unreachable not in _UNREACHABLE_MODES:
        raise QueryError(f"unreachable must be one of {_UNREACHABLE_MODES}")
    op = as_operator(source)
    dist = op.bfs_distances(check_query_node(query, op.num_nodes))
    return _fill_unreachable(dist, unreachable)
