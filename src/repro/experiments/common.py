"""Shared experiment configuration and the method registry.

The paper compares five summarizers (Sect. V-A):

* **PeGaSus** and **SSumM** take a budget in bits;
* **k-Grass**, **S2L**, and **SAAGs** take a supernode budget (the paper
  sets it as a fraction of ``|V|``) and emit weighted summaries, whose
  achieved bit ratio is computed after the fact for the x-axis.

:func:`build_summary_for_method` hides that asymmetry: every method maps a
requested compression ratio to a summary plus its achieved ratio.  Methods
whose reference implementations time out on larger datasets in the paper
(S2L, k-Grass — Fig. 7's "o.o.t" marks) are skipped above a node budget
here too, by raising :class:`MethodSkipped`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from repro.baselines import (
    kgrass_summarize,
    s2l_summarize,
    saags_summarize,
    ssumm_summarize,
)
from repro.core import PegasusConfig, SummaryGraph, summarize
from repro.graph.graph import Graph
from repro.parallel import ParallelExecutor

#: Method names in the paper's plotting order.
METHODS = ("pegasus", "ssumm", "saags", "s2l", "kgrass")

#: Node counts above which the slow baselines are marked o.o.t, mirroring
#: the out-of-time entries of Figs. 7 and 8.
OOT_NODE_LIMITS = {"s2l": 1500, "kgrass": 2500, "saags": 100_000}


class MethodSkipped(RuntimeError):
    """Raised when a baseline would exceed its o.o.t budget (Fig. 7/8)."""


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade experiment fidelity for runtime.

    ``REPRO_SCALE=small|default|full`` selects a preset; individual fields
    can be overridden via ``REPRO_DATASET_SCALE`` / ``REPRO_QUERIES``.
    """

    dataset_scale: float = 0.35
    num_queries: int = 8
    num_machines: int = 4
    t_max: int = 20
    seed: int = 0
    workers: int = 1

    @classmethod
    def from_env(cls) -> "ExperimentScale":
        preset = os.environ.get("REPRO_SCALE", "default").lower()
        if preset == "small":
            scale = cls(dataset_scale=0.2, num_queries=4, num_machines=4, t_max=10)
        elif preset == "full":
            scale = cls(dataset_scale=1.0, num_queries=24, num_machines=8, t_max=20)
        else:
            scale = cls()
        dataset_scale = float(os.environ.get("REPRO_DATASET_SCALE", scale.dataset_scale))
        num_queries = int(os.environ.get("REPRO_QUERIES", scale.num_queries))
        workers = int(os.environ.get("REPRO_WORKERS", scale.workers))
        return cls(
            dataset_scale=dataset_scale,
            num_queries=num_queries,
            num_machines=scale.num_machines,
            t_max=scale.t_max,
            seed=scale.seed,
            workers=workers,
        )


def _indexed_point(shared, index: int):
    """Run point *index* of the sweep's point list (shipped in *shared*)."""
    point_fn, inner_shared, points = shared
    return point_fn(inner_shared, points[index])


def sweep(point_fn, points, *, workers: "int | None" = 1, shared=None) -> list:
    """Fan independent experiment points out over the worker pool.

    The parallel sweep runner behind the Fig. 5/6/8/9/11/12 drivers: each
    *point* is one self-contained unit of work (a summarize-and-evaluate
    for one dataset × method × parameter combination), *shared* is the
    payload every point needs (graphs, query nodes, scale), and
    ``point_fn(shared, point)`` must be a module-level function.  Results
    come back in point order, so a driver that (a) consumes all of its RNG
    while *planning* the point list and (b) assembles rows from the
    ordered results produces identical output at any worker count.

    The point list travels with *shared* in the executor's shared
    payload, which reaches each worker once (inherited under ``fork``,
    pickled once per worker under ``spawn``), and each task is just a
    point's index: graphs inside the points (the Fig. 6 subgraphs) are
    never pickled per task.  ``workers=1`` runs the same tasks inline.
    """
    points = list(points)
    return ParallelExecutor(workers).map(
        _indexed_point, range(len(points)), shared=(point_fn, shared, points)
    )


def _calibrated_baseline(builder, graph: Graph, ratio: float, seed: int, probes: int = 4):
    """Pick a supernode fraction whose *achieved bit ratio* fits the budget.

    The weighted baselines take supernode budgets; their dense weighted
    summaries barely compress at a matched supernode *fraction*, so the
    paper plots them at their achieved bit ratios instead.  A short
    bisection over the fraction reproduces that: the summary returned is
    the largest one whose ``Size(G̅)/Size(G)`` is within the requested
    ratio (or the smallest probe if none fits).
    """
    lo, hi = 0.02, 0.9
    best = None
    for _ in range(probes):
        fraction = (lo + hi) / 2.0
        summary = builder(graph, supernode_fraction=fraction, seed=seed)
        achieved = summary.compression_ratio()
        if achieved <= ratio:
            best = summary
            lo = fraction  # try to keep more supernodes
        else:
            hi = fraction
    if best is None:
        best = builder(graph, supernode_fraction=lo, seed=seed)
    return best


def build_summary_for_method(
    method: str,
    graph: Graph,
    ratio: float,
    *,
    targets: "Iterable[int] | np.ndarray | None" = None,
    alpha: float = 1.25,
    t_max: int = 20,
    seed: int = 0,
) -> Tuple[SummaryGraph, float, float]:
    """Summarize *graph* with *method* at requested compression *ratio*.

    Returns ``(summary, achieved_ratio, elapsed_seconds)``.

    PeGaSus is personalized to *targets* (the query nodes, as in Sect. V-D);
    all baselines ignore them.  The weighted baselines are calibrated so
    their achieved bit ratio fits the requested one (see
    :func:`_calibrated_baseline`).  Raises :class:`MethodSkipped` for
    baselines above their o.o.t node budget.
    """
    limit = OOT_NODE_LIMITS.get(method)
    if limit is not None and graph.num_nodes > limit:
        raise MethodSkipped(f"{method} exceeds its o.o.t budget at {graph.num_nodes} nodes")
    started = time.perf_counter()
    if method == "pegasus":
        config = PegasusConfig(alpha=alpha, t_max=t_max, seed=seed)
        summary = summarize(
            graph, targets=targets, compression_ratio=ratio, config=config
        ).summary
    elif method == "ssumm":
        summary = ssumm_summarize(
            graph,
            compression_ratio=ratio,
            t_max=t_max,
            seed=seed,
        ).summary
    elif method == "saags":
        summary = _calibrated_baseline(saags_summarize, graph, ratio, seed)
    elif method == "s2l":
        summary = _calibrated_baseline(s2l_summarize, graph, ratio, seed, probes=3)
    elif method == "kgrass":
        summary = _calibrated_baseline(kgrass_summarize, graph, ratio, seed, probes=3)
    else:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    elapsed = time.perf_counter() - started
    return summary, summary.compression_ratio(), elapsed
