"""PeGaSus — Personalized Graph Summarization with Scalability (Alg. 1).

The driver ties the pieces together:

1. initialize the identity summary (every node a supernode, every edge a
   superedge);
2. for up to ``t_max`` iterations, or until the size budget ``k`` is met:
   group supernodes by shingle (:mod:`repro.core.shingle`), greedily merge
   within each group (:mod:`repro.core.merge`), then adapt the threshold
   (:mod:`repro.core.threshold`);
3. if the budget is still exceeded, drop superedges in increasing order of
   their block cost until it is met (Sect. III-F).

:func:`summarize` is the functional entry point; :class:`Pegasus` wraps it
for callers that reuse one configuration across graphs.  SSumM — the
non-personalized state of the art PeGaSus builds on — is this driver with
uniform weights and the fixed threshold schedule; see
:mod:`repro.baselines.ssumm`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, List

import numpy as np

from repro._util import ensure_rng
from repro.core.batch import BatchCostEvaluator
from repro.core.costs import CostModel
from repro.core.merge import OBJECTIVES, merge_groups
from repro.core.shingle import candidate_groups
from repro.core.summary import SummaryGraph
from repro.core.threshold import AdaptiveThreshold, FixedSchedule, ThresholdPolicy
from repro.core.weights import PersonalizedWeights
from repro.errors import BudgetError
from repro.graph.graph import Graph

THRESHOLD_POLICIES = ("adaptive", "fixed")


@dataclass(frozen=True)
class PegasusConfig:
    """Hyper-parameters of PeGaSus (defaults follow Sect. V-A).

    Attributes
    ----------
    alpha:
        Degree of personalization ``α ≥ 1`` (paper default 1.25).
    beta:
        Adaptive-threshold quantile ``β ∈ [0, 1]`` (paper default 0.1).
    t_max:
        Maximum number of iterations (paper default 20).
    max_group_size:
        Candidate-group size cap (paper: 500).
    recursive_splits:
        Re-shingling rounds for oversized groups (paper: 10).
    theta_initial:
        Starting threshold (paper: 0.5).
    threshold:
        ``"adaptive"`` (PeGaSus) or ``"fixed"`` (SSumM's ``1/(1+t)``).
    objective:
        ``"relative"`` (Eq. 11) or ``"absolute"`` (Eq. 10, ablation).
    seed:
        RNG seed; ``None`` draws fresh entropy.
    """

    alpha: float = 1.25
    beta: float = 0.1
    t_max: int = 20
    max_group_size: int = 500
    recursive_splits: int = 10
    theta_initial: float = 0.5
    threshold: str = "adaptive"
    objective: str = "relative"
    seed: "int | None" = None

    def __post_init__(self):
        if self.alpha < 1.0:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        if self.threshold not in THRESHOLD_POLICIES:
            raise ValueError(f"threshold must be one of {THRESHOLD_POLICIES}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")


@dataclass
class PegasusResult:
    """Output of one summarization run.

    ``summary`` is the personalized summary graph; the remaining fields
    record how the run went (used by the scalability and parameter-effect
    experiments).
    """

    summary: SummaryGraph
    weights: PersonalizedWeights
    config: PegasusConfig
    budget_bits: float
    budget_met: bool
    iterations: int
    total_merges: int
    elapsed_seconds: float
    dropped_superedges: int = 0
    theta_trajectory: List[float] = field(default_factory=list)
    size_trajectory: List[float] = field(default_factory=list)

    @property
    def compression_ratio(self) -> float:
        """Achieved ``Size(G̅)/Size(G)``."""
        return self.summary.compression_ratio()


def _make_threshold(config: PegasusConfig) -> ThresholdPolicy:
    if config.threshold == "adaptive":
        return AdaptiveThreshold(beta=config.beta, initial=config.theta_initial)
    return FixedSchedule(t_max=config.t_max)


def _resolve_budget(graph: Graph, budget_bits: "float | None", compression_ratio: "float | None") -> float:
    if (budget_bits is None) == (compression_ratio is None):
        raise BudgetError("specify exactly one of budget_bits or compression_ratio")
    if budget_bits is not None:
        if budget_bits <= 0:
            raise BudgetError(f"budget_bits must be positive, got {budget_bits}")
        return float(budget_bits)
    if compression_ratio <= 0:
        raise BudgetError(f"compression_ratio must be positive, got {compression_ratio}")
    return float(compression_ratio) * graph.size_in_bits()


def _sparsify(cost_model: CostModel, budget_bits: float) -> int:
    """Drop superedges in increasing block-cost order until the budget is met
    (Sect. III-F).  Returns the number of dropped superedges."""
    summary = cost_model.summary
    size = summary.size_in_bits()
    if size <= budget_bits or summary.num_superedges == 0:
        return 0
    per_edge_bits = 2.0 * math.log2(max(summary.num_supernodes, 2))
    need = int(math.ceil((size - budget_bits) / per_edge_bits))
    order = cost_model.superedge_drop_order()
    dropped = 0
    for _, a, b in order[:need]:
        summary.remove_superedge(a, b)
        dropped += 1
    return dropped


def summarize(
    graph: Graph,
    *,
    targets: "Iterable[int] | np.ndarray | None" = None,
    budget_bits: "float | None" = None,
    compression_ratio: "float | None" = None,
    config: "PegasusConfig | None" = None,
    weights: "PersonalizedWeights | None" = None,
) -> PegasusResult:
    """Summarize *graph* personalized to *targets* within a size budget.

    Parameters
    ----------
    graph:
        Input graph ``G``.
    targets:
        Target node set ``T``; defaults to all nodes (the non-personalized
        setting, where Eq. 1 reduces to plain reconstruction error).
    budget_bits, compression_ratio:
        The budget ``k``, given either directly in bits or as a fraction of
        ``Size(G)`` (Eq. 4).  Exactly one must be provided.
    config:
        Hyper-parameters; defaults to :class:`PegasusConfig()`.
    weights:
        Precomputed :class:`PersonalizedWeights` to reuse across runs (must
        match *graph*; overrides ``targets``/``config.alpha``).

    Returns
    -------
    PegasusResult
        The summary graph plus run diagnostics.
    """
    config = config or PegasusConfig()
    budget = _resolve_budget(graph, budget_bits, compression_ratio)
    if weights is None:
        if targets is None:
            weights = PersonalizedWeights.uniform(graph)
        else:
            weights = PersonalizedWeights(graph, targets, alpha=config.alpha)
    elif weights.graph is not graph:
        raise ValueError("precomputed weights were built for a different graph")

    rng = ensure_rng(config.seed)
    started = time.perf_counter()
    summary = SummaryGraph(graph)
    cost_model = CostModel(summary, weights)
    evaluator = BatchCostEvaluator(cost_model)
    threshold = _make_threshold(config)

    iterations = 0
    total_merges = 0
    theta_trajectory: List[float] = []
    size_trajectory: List[float] = []
    for t in range(1, config.t_max + 1):
        if summary.size_in_bits() <= budget:
            break
        iterations = t
        theta_trajectory.append(threshold.value)
        groups = candidate_groups(
            summary,
            rng,
            max_group_size=config.max_group_size,
            recursive_splits=config.recursive_splits,
        )
        stats = merge_groups(
            cost_model,
            groups,
            threshold,
            rng,
            objective=config.objective,
            evaluator=evaluator,
        )
        total_merges += stats.merges
        threshold.advance(t + 1)
        size_trajectory.append(summary.size_in_bits())

    dropped = _sparsify(cost_model, budget)
    elapsed = time.perf_counter() - started
    return PegasusResult(
        summary=summary,
        weights=weights,
        config=config,
        budget_bits=budget,
        budget_met=summary.size_in_bits() <= budget,
        iterations=iterations,
        total_merges=total_merges,
        elapsed_seconds=elapsed,
        dropped_superedges=dropped,
        theta_trajectory=theta_trajectory,
        size_trajectory=size_trajectory,
    )


class Pegasus:
    """Reusable façade over :func:`summarize`.

    Example
    -------
    >>> from repro.graph import barabasi_albert
    >>> from repro.core import Pegasus
    >>> graph = barabasi_albert(200, 3, seed=0)
    >>> result = Pegasus(alpha=1.5, seed=0).summarize(
    ...     graph, targets=[0], compression_ratio=0.5)
    >>> result.summary.size_in_bits() <= 0.5 * graph.size_in_bits()
    True
    """

    def __init__(self, **config_kwargs):
        self.config = PegasusConfig(**config_kwargs)

    def summarize(
        self,
        graph: Graph,
        *,
        targets: "Iterable[int] | np.ndarray | None" = None,
        budget_bits: "float | None" = None,
        compression_ratio: "float | None" = None,
        weights: "PersonalizedWeights | None" = None,
    ) -> PegasusResult:
        """See :func:`summarize`."""
        return summarize(
            graph,
            targets=targets,
            budget_bits=budget_bits,
            compression_ratio=compression_ratio,
            config=self.config,
            weights=weights,
        )
