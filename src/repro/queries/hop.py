"""HOP queries — shortest-path hop counts from a query node (Alg. 5).

On a summary graph the BFS runs over the **supernode quotient graph**:
every member of a supernode is structurally identical in ``Ĝ`` (identical
reconstructed neighborhoods up to self-exclusion), so a whole supernode is
assigned a distance the moment it is first reached.  Only the query node's
own supernode needs care: its *other* members are not at distance 0 — they
are reached when some frontier supernode (possibly ``S_q`` itself, through
a self-loop) has a superedge to ``S_q``.

Unreachable nodes get the length of the longest shortest path observed
(the convention of Sect. V-A), or ``-1`` with ``unreachable="raw"``.
"""

from __future__ import annotations

import numpy as np

from repro.core.summary import SummaryGraph
from repro.errors import QueryError
from repro.graph.graph import Graph
from repro.graph.traversal import bfs_distances
from repro.queries.operator import QuerySource, as_residual_source, check_query_node

_UNREACHABLE_MODES = ("longest", "raw")


def _fill_unreachable(dist: np.ndarray, mode: str) -> np.ndarray:
    if mode == "raw":
        return dist
    reached = dist[dist >= 0]
    longest = int(reached.max()) if reached.size else 0
    filled = dist.copy()
    filled[filled < 0] = longest
    return filled


def _summary_bfs(summary: SummaryGraph, query: int) -> np.ndarray:
    """BFS distances in ``Ĝ`` computed over the supernode quotient graph."""
    dist = np.full(summary.num_nodes, -1, dtype=np.int64)
    dist[query] = 0
    home = int(summary.supernode_of[query])

    def present(a: int, b: int) -> bool:
        # Weighted summaries: positive-weight superedges are present.
        return summary.superedge_density(a, b) > 0.0 if summary.is_weighted else True

    visited = set()  # supernodes whose members are all assigned
    home_complete = summary.member_count(home) == 1
    if home_complete:
        visited.add(home)
    frontier = [home]
    level = 0
    while frontier:
        level += 1
        reached = set()
        for a in frontier:
            for b in summary.superedge_neighbors(a):
                if present(a, b):
                    reached.add(b)
        frontier = []
        for b in reached:
            if b in visited:
                continue
            members = summary.member_list(b)
            if b == home:
                for u in members:
                    if u != query:
                        dist[u] = level
                home_complete = True
            else:
                for u in members:
                    dist[u] = level
                frontier.append(b)
            visited.add(b)
        # The home supernode never re-expands: its superedge neighbors were
        # already assigned level 1 when the walk started from the query.
    return dist


def _residual_bfs(source, query: int) -> np.ndarray:
    """BFS distances in ``Ĝ_residual`` (summary quotient plus residual edges).

    Runs the quotient-space expansion of :func:`_summary_bfs` — a
    supernode expands at most once, assigning a whole member block per
    superedge — interleaved with node-level expansion along the residual
    correction edges.  With no residual edges the produced distances are
    exactly those of :func:`_summary_bfs` (pinned by a regression test):
    the level sets of a BFS depend only on the reachability structure,
    which is identical.
    """
    summary = source.summary
    dist = np.full(summary.num_nodes, -1, dtype=np.int64)
    dist[query] = 0
    supernode_of = summary.supernode_of
    weighted = summary.is_weighted

    def present(a: int, b: int) -> bool:
        return summary.superedge_density(a, b) > 0.0 if weighted else True

    expanded = set()  # supernodes whose superedge neighborhood was applied
    frontier = [query]
    level = 0
    while frontier:
        level += 1
        next_frontier = []
        reached = set()
        for u in frontier:
            home = int(supernode_of[u])
            if home not in expanded:
                expanded.add(home)
                for b in summary.superedge_neighbors(home):
                    if present(home, b):
                        reached.add(b)
        for b in reached:
            # Every member of an adjacent supernode is a reconstructed
            # neighbor of every frontier member of the expanding one; the
            # per-node self-exclusion of Alg. 4 is moot here because the
            # expanding node already has a distance.
            for v in summary.member_list(b):
                if dist[v] < 0:
                    dist[v] = level
                    next_frontier.append(v)
        for u in frontier:
            for v in source.extra_neighbors(u).tolist():
                if dist[v] < 0:
                    dist[v] = level
                    next_frontier.append(v)
        frontier = next_frontier
    return dist


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


def hop_distances(source: QuerySource, query: int, *, unreachable: str = "longest") -> np.ndarray:
    """Hop counts from *query* to every node (Alg. 5).

    Parameters
    ----------
    source:
        Graph (exact) or summary graph (approximate, quotient-space BFS).
    query:
        The query node ``q``.
    unreachable:
        ``"longest"`` (paper convention: fill with the longest observed
        shortest path) or ``"raw"`` (keep ``-1``).
    """
    if unreachable not in _UNREACHABLE_MODES:
        raise QueryError(f"unreachable must be one of {_UNREACHABLE_MODES}")
    if isinstance(source, Graph):
        bfs = bfs_distances
    elif isinstance(source, SummaryGraph):
        bfs = _summary_bfs
    else:
        residual = as_residual_source(source)
        if residual is None:
            raise QueryError(f"unsupported query source: {type(source).__name__}")
        source, bfs = residual, _residual_bfs
    dist = bfs(source, check_query_node(query, source.num_nodes))
    return _fill_unreachable(dist, unreachable)
