"""Products with, exact solves over, and BFS across the reconstructed adjacency ``Â``.

RWR and PHP are damped systems ``K x = b`` with ``K = D − w·Â`` on the
positive-degree nodes, where ``D`` holds the row sums of ``Â`` and
``0 < w < 1``.  This module answers them two ways.

**Exact solves in supernode space** (summary and residual sources).  On a
summary, ``Â = P M Pᵀ − diag(m_{s(u)s(u)})``: ``P`` is the n×k membership
matrix, ``M`` the symmetric block-density matrix, and ``D`` is constant on
each supernode (``δ_S``).  Hence ``K = Λ − w·P M Pᵀ`` with the per-block
diagonal ``λ_S = δ_S + w·m_SS``, and ``K x = b`` reduces exactly to the
k×k SPD system

    ``H y = Pᵀb / n``,  ``H = diag(λ/n) − w·M``,  ``y = Pᵀx``,

after which ``x_u = (b_u + w·(M y)_{s(u)}) / λ_{s(u)}``.  A
``ResidualSource`` is a summary over the refined partition in which every
node a correction edge touches is its own block.  :func:`_solve_direct`
reads one column of ``H⁻¹``, which :meth:`ReconstructedOperator.direct_inverse`
builds once per damping with a spin-free blocked Gauss–Jordan sweep and
caches on the operator.

**Matrix-free CG** (graph sources, and quotient systems above
:data:`DIRECT_MAX_BLOCKS`).  :func:`_solve_damped` runs Jacobi-preconditioned
conjugate gradients over :meth:`ReconstructedOperator.matvec`; on a summary
the product runs in supernode space without materializing ``Ĝ``:

    ``(Â x)_u = Σ_{B ∈ adj(S_u)} m_{S_u B} · X_B  −  m_{S_u S_u} · x_u``

where ``X_B = Σ_{v∈B} x_v`` and ``m_AB`` is the block density (1 for
unweighted summaries, stored-count/pairs for weighted ones).  A product
costs ``O(|V| + |P|)`` instead of ``O(|Ê|)`` — the reason queries on
sparse PeGaSus summaries are fast in Fig. 8 while queries on the dense
baseline summaries are not.

**BFS over the quotient blocks** (HOP on summary and residual sources).
:meth:`ReconstructedOperator.bfs_distances` walks the refined partition
the direct solve keeps: two blocks are adjacent when their parent
supernodes have a positive density, or when a correction edge joins
them.  That adjacency is built on first use and cached like ``H⁻¹``; a
graph source runs the node-level BFS over its own CSR instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple, Union

import numpy as np

from repro.core.summary import SummaryGraph
from repro.errors import QueryError
from repro.graph import traversal
from repro.graph.graph import Graph
from repro.obs.profile import count, observe
from repro.obs.registry import DEFAULT_SIZE_BOUNDS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.streaming.residual import ResidualSource

#: Query sources the operator (and every query) accepts; the streaming
#: layer's ``ResidualSource`` joins as a forward reference so the module
#: never imports it at runtime (no import cycle).
QuerySource = Union[Graph, SummaryGraph, "ResidualSource"]

#: Largest quotient system (positive-degree blocks) answered through a
#: cached ``H⁻¹``; larger ones run CG.  Each panel of the Gauss–Jordan
#: sweep updates the k×k matrix with one (k×8)·(8×k) product, and numpy's
#: bundled OpenBLAS (0.3.31, 2-vCPU reference host) runs such a product on
#: its calling thread only while k²·8 < 10⁶ — 353 is the largest k that
#: does.  One block past it the product wakes a second BLAS thread, which
#: then spins for CPU that lanes, serving loop and load generator share.
#: Below the cap the sweep takes about 3 ms at k = 200, 6–7 ms at 300 and
#: 10–13 ms at 353, a few CG queries' worth (1.7–1.9 ms per query on
#: ``stream-mixed``), and its bytes do not depend on the BLAS thread count.
#: Both paths solve the same system, so the cap only picks the cheaper one.
DIRECT_MAX_BLOCKS = 353

#: Pivots per Gauss–Jordan panel: the inner dimension of the sweep's
#: rank-``_PANEL`` updates (see :data:`DIRECT_MAX_BLOCKS`).
_PANEL = 8


def query_node_id(query: object) -> int:
    """*query* as an ``int`` node id, before any range check.

    A non-integral or boolean node raises :class:`QueryError`: 3.7 is not
    truncated to node 3, nor ``True`` read as node 1.  Numpy integers
    pass.  Network clients, which do not know the node count, run this
    half of :func:`check_query_node` before a node goes on the wire.
    """
    if isinstance(query, bool) or not isinstance(query, (int, np.integer)):
        raise QueryError(f"query node must be an integer, got {query!r}")
    return int(query)


def check_query_node(query: object, num_nodes: int) -> int:
    """*query* as a node id of a source with *num_nodes* nodes.

    The one node check every query kernel and the cluster's routing run,
    on every source type: a non-integral, boolean or out-of-range node
    raises :class:`QueryError`.
    """
    node = query_node_id(query)
    if not 0 <= node < num_nodes:
        raise QueryError(f"query node {node} out of range [0, {num_nodes})")
    return node


def as_operator(source: "QuerySource | ReconstructedOperator") -> "ReconstructedOperator":
    """*source* if it already is an operator, else a new operator over it.

    Every query kernel reads its source through this, so a caller that
    answers many queries on one source builds the operator once and
    passes it in the source position.
    """
    if isinstance(source, ReconstructedOperator):
        return source
    return ReconstructedOperator(source)


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

    *source* is a :class:`Graph` (``Â = A``, exact), a :class:`SummaryGraph`
    (weighted superedges decode as block densities, Sect. V-A), or a
    :class:`~repro.streaming.residual.ResidualSource` (summary plus
    residual correction edges, ``Â = Â_summary + A_residual``).  Every
    query kernel takes an operator in its source position, so one
    operator per machine serves RWR, PHP and HOP alike.
    """

    def __init__(self, source: QuerySource):
        self.source = source
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
        # O(|V|): a HOP read, which walks the graph's own CSR, never pays
        # for the edge-length head array, and a mapped graph stays mapped.
        self.num_nodes = graph.num_nodes
        self._mode = "graph"
        self._degrees = graph.degrees().astype(np.float64)
        self._heads: "np.ndarray | None" = None  # built on the first matvec

    def _init_summary(self, summary: SummaryGraph) -> np.ndarray:
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
        if summary.is_weighted and weights is not None:
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
        degree = np.maximum(super_total - self._self_density, 0.0)
        self._set_quotient(self._compact, np.arange(k), degree)
        return degree

    def _init_residual(self, residual) -> None:
        """Summary operator plus the residual adjacency (``Â_s + A_r``).

        The residual edges are disjoint from the summary's reconstruction
        by construction, so the sum never double-counts a pair.  With an
        empty correction list the built operator *is* the summary
        operator — same mode, same arrays, same bytes — which is what
        makes a just-refreshed machine's answers indistinguishable from a
        never-streamed one's.  Otherwise the quotient system is the
        summary's over the refined partition: every node a correction
        edge touches leaves its supernode for a block of its own, which
        keeps degrees constant per block.
        """
        degree = self._init_summary(residual.summary)
        if residual.num_extra == 0:
            return
        self._mode = "residual"
        heads, tails = residual.extra_directed()
        self._extra_heads = heads
        self._extra_tails = tails
        touched = np.unique(heads)
        parent = self._compact[touched]
        k = self._num_supernodes
        labels = self._compact.copy()
        labels[touched] = k + np.arange(touched.size)
        extra = np.bincount(heads, minlength=self.num_nodes)[touched]
        self._set_quotient(
            labels,
            np.concatenate([np.arange(k), parent]),
            np.concatenate([degree, degree[parent] + extra]),
        )

    def _set_quotient(self, labels: np.ndarray, parent: np.ndarray, degree: np.ndarray) -> None:
        """Keep the quotient partition *labels* (node → block) and node degrees.

        *parent* names the summary supernode whose densities each block
        inherits, *degree* each block's ``δ``.  Empty and zero-degree
        blocks leave the system: their nodes take the label one past the
        kept blocks, whose degree and potential are 0.
        """
        sizes = np.bincount(labels, minlength=parent.size)
        keep = (sizes > 0) & (degree > 0.0)
        kept = int(np.count_nonzero(keep))
        self._labels = np.where(keep, np.cumsum(keep) - 1, kept)[labels]
        self._block_parent = parent[keep]
        self._block_sizes = sizes[keep].astype(np.float64)
        self._block_degree = degree[keep]
        self._degrees = np.append(self._block_degree, 0.0)[self._labels]
        self._inverses: "Dict[float, Tuple[np.ndarray, np.ndarray]]" = {}
        self._adjacency: "Tuple[List[int], List[List[int]], Dict[int, List[int]]] | None" = None

    # ------------------------------------------------------------------
    # operator interface
    # ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        """Row sums of ``Â`` (weighted degrees in the reconstructed graph)."""
        return self._degrees

    def direct_inverse(self, damping: float) -> "Tuple[np.ndarray, np.ndarray] | None":
        """``(H⁻¹, λ)`` of the quotient system at *damping*, or ``None``.

        ``None`` for graph sources and for systems of more than
        :data:`DIRECT_MAX_BLOCKS` blocks, which CG solves instead.  Built on
        first use and cached per damping: at the paper's defaults both
        RWR and PHP damp by 0.95, so one inverse serves both kernels.
        """
        if self._mode == "graph" or self._block_sizes.size > DIRECT_MAX_BLOCKS:
            return None
        system = self._inverses.get(damping)
        if system is None:
            system = self._inverses[damping] = self._build_inverse(damping)
        return system

    def bfs_distances(self, node: int) -> np.ndarray:
        """Hop counts from *node* in ``Â``, ``-1`` where unreached.

        A graph source runs the node-level BFS over its own CSR.  On a
        summary or residual source the BFS runs over the quotient blocks:
        the members of a block have the same neighbors in ``Â`` apart from
        each other, so every block but the query's own is reached whole
        and its members take the block's BFS level.  The other members of
        the query's block ``h`` share the query's neighbors, so they sit
        at 1 when ``h``'s self density is positive, else at 2 when ``h``
        has any neighbor block, else out of reach.  Zero-degree nodes,
        which share the label one past the kept blocks, are isolated.
        The block adjacency is built on the first call and cached, like
        :meth:`direct_inverse`.
        """
        if self._mode == "graph":
            return traversal.bfs_distances(self.source, node)
        if self._adjacency is None:
            self._adjacency = self._build_adjacency()
        parent, reach, extra = self._adjacency
        labels = self._labels
        home = int(labels[node])
        level = [-1] * (len(parent) + 1)
        if home < len(parent):
            level[home] = 0
            expanded = set()
            frontier = [home]
            depth = 0
            while frontier:
                depth += 1
                found = []
                for a in frontier:
                    p = parent[a]
                    if p not in expanded:
                        expanded.add(p)
                        for b in reach[p]:
                            if level[b] < 0:
                                level[b] = depth
                                found.append(b)
                    for b in extra.get(a, ()):
                        if level[b] < 0:
                            level[b] = depth
                            found.append(b)
                frontier = found
            # A block at level 1 is a neighbor block of home.
            level[home] = 1 if self._self_density[parent[home]] > 0.0 else 2 if 1 in level else -1
        dist = np.array(level, dtype=np.int64)[labels]
        dist[node] = 0
        return dist

    def _build_adjacency(self) -> "Tuple[List[int], List[List[int]], Dict[int, List[int]]]":
        """``(parent, reach, extra)``: the quotient blocks' adjacency in ``Â``.

        ``parent[a]`` is block ``a``'s summary supernode, and ``reach[p]``
        lists every block whose parent has a positive density with ``p``
        (``p`` included when its self density is positive), so a BFS
        expands each parent once however many blocks it was refined into.
        ``extra[a]`` lists the blocks a correction edge joins to the
        singleton block ``a``.
        """
        k = self._num_supernodes
        parent = self._block_parent
        loops = np.flatnonzero(self._self_density > 0.0)
        heads = np.concatenate([self._cross_a, self._cross_b, loops])
        tails = np.concatenate([self._cross_b, self._cross_a, loops])
        order = np.argsort(heads, kind="stable")
        heads, tails = heads[order], tails[order]
        # Parent edge (h, t) reaches every block of t: gather those runs
        # of the blocks sorted by parent, in edge order.
        by_parent = np.argsort(parent, kind="stable")
        fanout = np.bincount(parent, minlength=k)
        counts = fanout[tails]
        ends = np.cumsum(counts)
        offsets = np.arange(int(counts.sum())) - np.repeat(ends - counts, counts)
        reached = by_parent[np.repeat((np.cumsum(fanout) - fanout)[tails], counts) + offsets]
        cuts = np.concatenate([[0], ends])[np.searchsorted(heads, np.arange(k + 1))].tolist()
        flat = reached.tolist()
        reach = [flat[cuts[p] : cuts[p + 1]] for p in range(k)]
        extra: "Dict[int, List[int]]" = {}
        if self._mode == "residual":
            labels = self._labels
            for a, b in zip(labels[self._extra_heads].tolist(), labels[self._extra_tails].tolist()):
                extra.setdefault(a, []).append(b)
        return parent.tolist(), reach, extra

    def _build_inverse(self, damping: float) -> "Tuple[np.ndarray, np.ndarray]":
        k = self._num_supernodes
        density = np.zeros((k, k))
        density[self._cross_a, self._cross_b] = self._cross_m
        density[self._cross_b, self._cross_a] = self._cross_m
        np.fill_diagonal(density, self._self_density)
        parent = self._block_parent
        system = density[np.ix_(parent, parent)]
        del density
        if self._mode == "residual":
            system[self._labels[self._extra_heads], self._labels[self._extra_tails]] += 1.0
        # H = diag(λ/n) − w·M, with λ = δ + w·m_SS.
        system *= -damping
        lam = self._block_degree + damping * self._self_density[parent]
        system[np.diag_indices_from(system)] += lam / self._block_sizes
        return _gauss_jordan_inverse(system), lam

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``Â x`` for a vector with one entry per node."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.num_nodes,):
            raise QueryError(f"vector must have shape ({self.num_nodes},), got {x.shape}")
        if self._mode == "graph":
            graph = self.source
            if self._heads is None:
                self._heads = np.repeat(np.arange(self.num_nodes, dtype=np.int64), graph.degrees())
            return np.bincount(self._heads, weights=x[graph.indices], minlength=self.num_nodes)
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


def _solve_direct(
    op: ReconstructedOperator, damping: float, node: int, *, query: str
) -> "np.ndarray | None":
    """``x = (D − damping·Â)⁻¹ e_node`` exactly, or ``None`` without a direct system.

    The solve runs on the positive-degree nodes; ``x`` is 0 off them, and
    all 0 for an isolated *node*.  ``None`` (a graph source, or a system
    above :data:`DIRECT_MAX_BLOCKS`) leaves the caller to CG.  With
    ``b = e_node`` in block ``j``, ``H y = e_j / n_j``: ``y`` is column
    ``j`` of ``H⁻¹`` over ``n_j``.  And since ``w·M y = (λ/n)·y − e_j/n_j``,
    the map back ``x_u = (b_u + w·(M y)_{s(u)}) / λ_{s(u)}`` is
    ``y_{s(u)} / n_{s(u)}``, plus ``(b_u − 1/n_j) / λ_j`` on block ``j``:
    no product with ``M``.  Records 0 iterations and no miss, like a CG
    solve that converged before its first product.
    """
    system = op.direct_inverse(damping)
    if system is None:
        return None
    inverse, lam = system
    observe("repro_solver_iterations", 0, bounds=DEFAULT_SIZE_BOUNDS, query=query)
    count("repro_solver_unconverged_total", 0.0, query=query)
    sizes = op._block_sizes
    block = op._labels[node]
    if block == sizes.size:
        return np.zeros(op.num_nodes, dtype=np.float64)
    values = np.zeros(sizes.size + 1, dtype=np.float64)
    np.divide(inverse[:, block] / sizes[block], sizes, out=values[:-1])
    values[block] -= 1.0 / (sizes[block] * lam[block])
    potential = values[op._labels]
    potential[node] += 1.0 / lam[block]
    return potential


def _gauss_jordan_inverse(matrix: np.ndarray, panel: int = _PANEL) -> np.ndarray:
    """Invert the symmetric positive definite *matrix* in place.

    Blocked Gauss–Jordan: pivoting on a panel ``p`` of indices maps
    ``A_pp → A_pp⁻¹``, ``A_pj → A_pp⁻¹·A_pj``, ``A_ip → −A_ip·A_pp⁻¹`` and
    ``A_ij → A_ij − A_ip·A_pp⁻¹·A_pj``; once every panel has pivoted,
    ``A`` holds the inverse.  Each pivot block is a Schur complement of an
    SPD matrix, hence SPD, so no row exchanges are needed; it is inverted
    by the same sweep one index at a time.  The largest product is the
    (k×panel)·(panel×k) update, which numpy's BLAS keeps on the calling
    thread up to :data:`DIRECT_MAX_BLOCKS`; no LAPACK routine is called.
    """
    size = matrix.shape[0]
    update = np.empty_like(matrix)
    for start in range(0, size, panel):
        p = slice(start, start + panel)
        block = matrix[p, p]
        pivot = 1.0 / block if panel == 1 else _gauss_jordan_inverse(block.copy(), 1)
        column = matrix[:, p].copy()
        row = pivot @ matrix[p, :]
        np.matmul(column, row, out=update)
        matrix -= update
        matrix[p, :] = row
        matrix[:, p] = -(column @ pivot)
        matrix[p, p] = pivot
    return matrix
