"""Penalized hitting probability (PHP) queries (Sect. V-A of the paper).

PHP of node ``u`` w.r.t. a query node ``q`` is defined recursively:

    ``PHP_u = 1``                                     if ``u = q``
    ``PHP_u = c · Σ_{v ∈ N_u} (w_uv / w_u) · PHP_v``  otherwise

with continuation ``c = 0.95`` in the paper; degree-0 nodes score 0.
Multiplying each equation by ``w_u`` and moving ``PHP_q = 1`` to the right
gives ``(D − c·Â)_UU p_U = c·(Â e_q)_U`` over the positive-degree nodes
``U`` other than ``q``: a symmetric positive definite system.

On summary and residual sources :func:`php_scores` solves it with the
full system ``K = D − c·Â`` instead.  With ``z = K⁻¹·c·Â e_q`` and
``g = K⁻¹ e_q``, ``x = z − (z_q/g_q)·g`` vanishes at ``q`` and satisfies
the ``U`` rows.  Because ``c·Â e_q = D_q e_q − K e_q``, ``z = D_q g − e_q``,
and the two solves collapse to one: ``p = g / g_q``, one column of the
cached supernode-space inverse, the same column RWR reads when both damp
by 0.95.  On graph sources, and quotient systems above
:data:`~repro.queries.operator.DIRECT_MAX_BLOCKS` blocks, preconditioned
conjugate gradients solve the ``U`` system.  Either way the source is
read through a :class:`~repro.queries.operator.ReconstructedOperator`,
which a caller answering many queries passes in the source position, as
for RWR and HOP.  :func:`php_scores_reference` keeps the fixed-point
loop as the test oracle.
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

DEFAULT_CONTINUATION = 0.95


def php_scores(
    source: "QuerySource | ReconstructedOperator",
    query: int,
    *,
    continuation: float = DEFAULT_CONTINUATION,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
) -> np.ndarray:
    """PHP score vector w.r.t. *query* (entries in ``[0, 1]``).

    Parameters mirror :func:`repro.queries.rwr.rwr_scores`; ``continuation``
    is the penalty factor ``c`` (paper: 0.95).  On the CG path,
    ``tolerance`` bounds the relative preconditioned residual
    ``‖r‖_{D⁻¹} / ‖c·Â e_q‖_{D⁻¹}`` and ``max_iterations`` caps the
    operator products beyond the one that forms the right-hand side; a
    direct solve is exact and ignores both.
    """
    if not 0.0 < continuation < 1.0:
        raise QueryError(f"continuation must be in (0, 1), got {continuation}")
    op = as_operator(source)
    node = check_query_node(query, op.num_nodes)
    potential = _solve_direct(op, continuation, node, query="php")
    if potential is not None:
        # g_q > 0 unless q is isolated, where g = 0 and PHP is e_q.
        scores = potential / potential[node] if potential[node] > 0.0 else potential
    else:
        unit = np.zeros(op.num_nodes, dtype=np.float64)
        unit[node] = 1.0
        active = op.degrees() > 0.0
        active[node] = False
        scores = _solve_damped(
            op, continuation, continuation * op.matvec(unit), active,
            tolerance=tolerance, max_iterations=max_iterations, query="php",
        )
    scores[node] = 1.0
    return np.clip(scores, 0.0, 1.0)


def php_scores_reference(
    source: QuerySource,
    query: int,
    *,
    continuation: float = DEFAULT_CONTINUATION,
    max_iterations: int = 5000,
    tolerance: float = 1e-10,
) -> np.ndarray:
    """Neighborhood-query PHP fixed-point loop, the oracle for the solve in tests.

    The cap is high enough for the loop to stop on its L1 *tolerance*.
    """
    from repro.queries.neighbors import approximate_neighbors

    num_nodes = source.num_nodes
    neighbor_cache = [approximate_neighbors(source, u) for u in range(num_nodes)]
    scores = np.zeros(num_nodes, dtype=np.float64)
    scores[query] = 1.0
    for _ in range(max_iterations):
        new_scores = np.zeros(num_nodes, dtype=np.float64)
        for u in range(num_nodes):
            neighbors = neighbor_cache[u]
            if u == query or neighbors.size == 0:
                continue
            new_scores[u] = continuation * scores[neighbors].sum() / neighbors.size
        new_scores[query] = 1.0
        if np.abs(new_scores - scores).sum() < tolerance:
            scores = new_scores
            break
        scores = new_scores
    return np.clip(scores, 0.0, 1.0)
