"""Matrix-free products with the (reconstructed) adjacency matrix.

Iterative queries (RWR, PHP) only need ``y = Â x`` and row sums of ``Â``.
On the input graph that is a CSR gather; on a summary graph the product
can be computed **in supernode space** without materializing ``Ĝ``:

    ``(Â x)_u = Σ_{B ∈ adj(S_u)} m_{S_u B} · X_B  −  m_{S_u S_u} · x_u``

where ``X_B = Σ_{v∈B} x_v`` and ``m_AB`` is the block density (1 for
unweighted summaries, stored-count/pairs for weighted ones).  This makes a
solver step ``O(|V| + |P|)`` instead of ``O(|Ê|)`` — the reason queries on
sparse PeGaSus summaries are fast in Fig. 8 while queries on the dense
baseline summaries are not.

Both RWR and PHP reduce to one symmetric positive definite system
``(D − w·Â)_SS x_S = b_S`` over this operator, solved by
:func:`_solve_damped`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

import numpy as np

from repro.core.summary import SummaryGraph
from repro.errors import QueryError
from repro.graph.graph import Graph
from repro.obs.profile import count, observe
from repro.obs.registry import DEFAULT_SIZE_BOUNDS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.streaming.residual import ResidualSource

#: Query sources the operator (and every query) accepts; the streaming
#: layer's ``ResidualSource`` joins as a forward reference so the module
#: never imports it at runtime (no import cycle).
QuerySource = Union[Graph, SummaryGraph, "ResidualSource"]


def check_query_node(query: object, num_nodes: int) -> int:
    """*query* as a node id of a source with *num_nodes* nodes.

    The one node check every query kernel runs, on every source type: a
    non-integral or out-of-range node raises :class:`QueryError`.
    """
    if not isinstance(query, (int, np.integer)):
        raise QueryError(f"query node must be an integer, got {query!r}")
    if not 0 <= query < num_nodes:
        raise QueryError(f"query node {query} out of range [0, {num_nodes})")
    return int(query)


def as_residual_source(source: object):
    """The source as a :class:`~repro.streaming.residual.ResidualSource`, or ``None``.

    Imported lazily: by the time a residual source reaches a query, the
    streaming package is necessarily loaded, so this never triggers a
    circular import at module-load time.
    """
    from repro.streaming.residual import ResidualSource

    return source if isinstance(source, ResidualSource) else None


class ReconstructedOperator:
    """Linear operator for ``Â`` of a graph, summary graph, or residual source.

    Parameters
    ----------
    source:
        A :class:`Graph` (``Â = A``, exact), a :class:`SummaryGraph`, or a
        :class:`~repro.streaming.residual.ResidualSource` (summary plus
        residual correction edges, ``Â = Â_summary + A_residual``).
    use_weights:
        For weighted summaries, decode superedges as densities; with
        ``False`` any superedge is treated as a full block (presence-only).
        Ignored for graphs and unweighted summaries.
    """

    def __init__(self, source: QuerySource, *, use_weights: bool = True):
        self.source = source
        self.use_weights = use_weights
        if isinstance(source, Graph):
            self._init_graph(source)
        elif isinstance(source, SummaryGraph):
            self._init_summary(source)
        else:
            residual = as_residual_source(source)
            if residual is None:
                raise QueryError(f"unsupported query source: {type(source).__name__}")
            self._init_residual(residual)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _init_graph(self, graph: Graph) -> None:
        self.num_nodes = graph.num_nodes
        self._mode = "graph"
        self._heads = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees())
        self._tails = graph.indices
        self._degrees = graph.degrees().astype(np.float64)

    def _init_summary(self, summary: SummaryGraph) -> None:
        self.num_nodes = summary.num_nodes
        self._mode = "summary"
        # Compact live supernode ids to 0..k-1 without walking the member
        # dicts: the sorted unique of the partition array IS the live-id
        # list, and a bincount over the compacted labels gives the sizes.
        order = np.unique(summary.supernode_of)
        k = order.size
        self._num_supernodes = k
        self._compact = np.searchsorted(order, summary.supernode_of)
        sizes = np.bincount(self._compact, minlength=k).astype(np.float64)

        # The lexsorted columnar export keeps the operator — and hence every
        # query answer — independent of set iteration order and identical
        # between in-RAM and memory-mapped summaries.
        lo, hi, weights = summary.superedge_arrays()
        lo_pos = np.searchsorted(order, lo)
        hi_pos = np.searchsorted(order, hi)
        if summary.is_weighted and self.use_weights and weights is not None:
            pairs = np.where(
                lo == hi,
                sizes[lo_pos] * (sizes[lo_pos] - 1.0) / 2.0,
                sizes[lo_pos] * sizes[hi_pos],
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                density = np.where(pairs > 0.0, np.minimum(weights / pairs, 1.0), 0.0)
        else:
            density = np.ones(lo.shape[0], dtype=np.float64)
        keep = density > 0.0
        lo_pos, hi_pos, density = lo_pos[keep], hi_pos[keep], density[keep]
        self_mask = lo[keep] == hi[keep]

        self._self_density = np.zeros(k, dtype=np.float64)
        self._self_density[lo_pos[self_mask]] = density[self_mask]
        cross = ~self_mask
        self._cross_a = lo_pos[cross]
        self._cross_b = hi_pos[cross]
        self._cross_m = density[cross]

        # Per-supernode total: Σ_B m_AB |B| (self-loop contributes m·|A|).
        super_total = self._self_density * sizes
        np.add.at(super_total, self._cross_a, self._cross_m * sizes[self._cross_b])
        np.add.at(super_total, self._cross_b, self._cross_m * sizes[self._cross_a])
        # deg(u) = total(S_u) − m_{S_u S_u}  (a node is not its own neighbor).
        self._degrees = super_total[self._compact] - self._self_density[self._compact]
        self._degrees = np.maximum(self._degrees, 0.0)

    def _init_residual(self, residual) -> None:
        """Summary operator plus the residual adjacency (``Â_s + A_r``).

        The residual edges are disjoint from the summary's reconstruction
        by construction, so the sum never double-counts a pair.  With an
        empty correction list the built operator *is* the summary
        operator — same mode, same arrays, same bytes — which is what
        makes a just-refreshed machine's answers indistinguishable from a
        never-streamed one's.
        """
        self._init_summary(residual.summary)
        if residual.num_extra == 0:
            return
        self._mode = "residual"
        heads, tails = residual.extra_directed()
        self._extra_heads = heads
        self._extra_tails = tails
        self._degrees = self._degrees + np.bincount(
            heads, minlength=self.num_nodes
        ).astype(np.float64)

    # ------------------------------------------------------------------
    # operator interface
    # ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        """Row sums of ``Â`` (weighted degrees in the reconstructed graph)."""
        return self._degrees

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``Â x`` for a vector with one entry per node."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.num_nodes,):
            raise QueryError(f"vector must have shape ({self.num_nodes},), got {x.shape}")
        if self._mode == "graph":
            if self._tails.size == 0:
                return np.zeros(self.num_nodes, dtype=np.float64)
            return np.bincount(self._heads, weights=x[self._tails], minlength=self.num_nodes)
        block_sums = np.bincount(self._compact, weights=x, minlength=self._num_supernodes)
        contrib = self._self_density * block_sums
        if self._cross_a.size:
            np.add.at(contrib, self._cross_a, self._cross_m * block_sums[self._cross_b])
            np.add.at(contrib, self._cross_b, self._cross_m * block_sums[self._cross_a])
        result = contrib[self._compact] - self._self_density[self._compact] * x
        if self._mode == "residual":
            result += np.bincount(
                self._extra_heads, weights=x[self._extra_tails], minlength=self.num_nodes
            )
        return result


def _solve_damped(
    op: ReconstructedOperator,
    damping: float,
    rhs: np.ndarray,
    active: np.ndarray,
    *,
    tolerance: float,
    max_iterations: int,
    query: str,
) -> np.ndarray:
    """Solve ``(D − damping·Â)_SS x_S = rhs_S`` on the nodes ``S = active``.

    ``D`` is the diagonal of :meth:`ReconstructedOperator.degrees` and
    ``0 < damping < 1``.  ``Â`` is symmetric with a zero diagonal and row
    sums ``D``, so on positive-degree nodes the matrix is strictly
    diagonally dominant with a positive diagonal: symmetric positive
    definite.  Conjugate gradients with the Jacobi preconditioner ``D_S``
    then iterates on ``I − damping·D^{-1/2} Â D^{-1/2}``, whose spectrum
    lies in ``[1 − damping, 1 + damping]``.

    Every node of *active* must have positive degree.  Vectors keep one
    entry per node; a zero preconditioner off ``S`` keeps the iterate
    there at 0, so the restriction costs no gather.  The solve stops once
    the relative preconditioned residual ``‖r‖_{D⁻¹} / ‖rhs‖_{D⁻¹}`` is at
    most *tolerance*, or after *max_iterations* operator products,
    returning the last iterate either way.  Each solve records its
    iteration count in ``repro_solver_iterations{query}`` and a miss in
    ``repro_solver_unconverged_total{query}`` (no-ops unless profiling is
    on).
    """
    degrees = op.degrees()
    inverse = np.zeros(op.num_nodes, dtype=np.float64)
    np.divide(1.0, degrees, out=inverse, where=active)
    solution = np.zeros(op.num_nodes, dtype=np.float64)
    residual = np.array(rhs, dtype=np.float64)
    direction = inverse * residual
    rz = float(residual @ direction)
    # rhs_S = 0 (an isolated query) is solved by x = 0 before any product.
    stop = tolerance * tolerance * rz
    converged = rz <= stop
    iterations = 0
    while not converged and iterations < max_iterations:
        product = degrees * direction - damping * op.matvec(direction)
        step = rz / float(direction @ product)
        solution += step * direction
        residual -= step * product
        preconditioned = inverse * residual
        rz_next = float(residual @ preconditioned)
        iterations += 1
        converged = rz_next <= stop
        direction = preconditioned + (rz_next / rz) * direction
        rz = rz_next
    observe("repro_solver_iterations", iterations, bounds=DEFAULT_SIZE_BOUNDS, query=query)
    count("repro_solver_unconverged_total", 0.0 if converged else 1.0, query=query)
    return solution
