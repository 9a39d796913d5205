"""Random walk with restart (Alg. 6 of the paper).

The RWR score of a node w.r.t. a query node ``q`` is the stationary
probability of a walker that, at each step, follows a uniform random edge
with probability ``p`` and teleports back to ``q`` otherwise.  The paper
uses restart probability 0.05 (``p = 0.95``).

Alg. 6 damps the spread by ``p`` and assigns the missing probability mass
to the query node, so its fixed point is ``x = y / Σy`` with
``(I − p·Â D⁻¹) y = e_q``; degree-0 nodes other than ``q`` get 0.
Substituting ``y = D z`` on the positive-degree nodes gives the symmetric
positive definite system ``(D − p·Â) z = e_q``, which :func:`rwr_scores`
solves directly instead of iterating Alg. 6 (whose error shrinks only by
``p`` per step: ~450 steps at ``p = 0.95``).  The source is read through
a :class:`~repro.queries.operator.ReconstructedOperator`, which a caller
answering many queries passes in the source position.  On a summary or
residual source ``z`` is one column of the operator's cached inverse of
the supernode-space system; on a graph, or a quotient system above
:data:`~repro.queries.operator.DIRECT_MAX_BLOCKS` blocks, preconditioned
conjugate gradients find it.  :func:`rwr_scores_reference` keeps the
literal loop as the test oracle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.queries.operator import (
    QuerySource,
    ReconstructedOperator,
    _solve_damped,
    _solve_direct,
    as_operator,
    check_query_node,
)

DEFAULT_RESTART = 0.05


def rwr_scores(
    source: "QuerySource | ReconstructedOperator",
    query: int,
    *,
    restart: float = DEFAULT_RESTART,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
) -> np.ndarray:
    """RWR score vector w.r.t. *query* (non-negative, sums to 1).

    Parameters
    ----------
    source:
        Graph (exact), summary graph or residual source (approximate), or
        a :class:`~repro.queries.operator.ReconstructedOperator` over one,
        reused across many queries (the multi-query setting of Sect. IV).
    query:
        The restart node ``q``.
    restart:
        Restart probability (paper: 0.05).
    tolerance:
        Bound on the relative preconditioned residual
        ``‖r‖_{D⁻¹} / ‖e_q‖_{D⁻¹}`` at which a CG solve stops.  Direct
        solves (summary and residual sources within the size cap) are
        exact and ignore it.
    max_iterations:
        Cap on a CG solve's operator products; a solve that reaches it
        returns its last iterate and is counted in
        ``repro_solver_unconverged_total{query="rwr"}``.  Direct solves
        make no products and record 0 iterations.
    """
    if not 0.0 < restart < 1.0:
        raise QueryError(f"restart must be in (0, 1), got {restart}")
    op = as_operator(source)
    node = check_query_node(query, op.num_nodes)
    degrees = op.degrees()
    unit = np.zeros(op.num_nodes, dtype=np.float64)
    unit[node] = 1.0
    potential = _solve_direct(op, 1.0 - restart, node, query="rwr")
    if potential is None:
        potential = _solve_damped(
            op, 1.0 - restart, unit, degrees > 0.0,
            tolerance=tolerance, max_iterations=max_iterations, query="rwr",
        )
    # Clipping drops solver round-off; an isolated query solves to all
    # zeros and keeps all of the walker's mass.
    scores = np.maximum(degrees * potential, 0.0)
    total = scores.sum()
    if total == 0.0:
        return unit
    return scores / total


def rwr_scores_reference(
    source: QuerySource,
    query: int,
    *,
    restart: float = DEFAULT_RESTART,
    max_iterations: int = 5000,
    tolerance: float = 1e-10,
) -> np.ndarray:
    """Literal Alg. 6: neighborhood queries in a Python loop.

    Exponentially slower than :func:`rwr_scores`; exists to validate the
    supernode-space operator and the linear solve in tests.  The cap is
    high enough for the loop to stop on its L1 *tolerance*.
    """
    from repro.queries.neighbors import approximate_neighbors

    if isinstance(source, (int, float)):
        raise QueryError("source must be a graph or summary graph")
    num_nodes = source.num_nodes
    neighbor_cache = [approximate_neighbors(source, u) for u in range(num_nodes)]
    walk = 1.0 - restart
    scores = np.full(num_nodes, 1.0 / max(num_nodes, 1), dtype=np.float64)
    for _ in range(max_iterations):
        new_scores = np.zeros(num_nodes, dtype=np.float64)
        for u in range(num_nodes):
            neighbors = neighbor_cache[u]
            if neighbors.size == 0:
                continue
            new_scores[neighbors] += scores[u] / neighbors.size
        new_scores *= walk
        new_scores[query] += 1.0 - new_scores.sum()
        if np.abs(new_scores - scores).sum() < tolerance:
            scores = new_scores
            break
        scores = new_scores
    return scores
