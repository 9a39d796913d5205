"""SSumM (Lee et al., KDD 2020) — the non-personalized state of the art.

PeGaSus is "largely based on SSumM" (Sect. III-G); the differences the
paper lists are (a) personalized vs plain reconstruction error, (b) the
adaptive vs fixed threshold schedule, and (c) minor encoding details (we
follow PeGaSus's corrections-only encoding for both, as the paper itself
does for simplicity).  SSumM is therefore expressed here as the shared
driver with uniform weights (``W ≡ 1``) and the fixed schedule
``θ(t) = 1/(1+t)``.
"""

from __future__ import annotations

from repro.core.pegasus import PegasusConfig, PegasusResult, summarize
from repro.graph.graph import Graph


def ssumm_summarize(
    graph: Graph,
    *,
    budget_bits: "float | None" = None,
    compression_ratio: "float | None" = None,
    t_max: int = 20,
    max_group_size: int = 500,
    recursive_splits: int = 10,
    seed: "int | None" = None,
) -> PegasusResult:
    """Summarize *graph* with SSumM under a bit budget.

    Parameters mirror :func:`repro.core.pegasus.summarize`; the target set,
    personalization degree, and threshold policy are fixed to SSumM's
    choices (``T = V``, ``α = 1``, ``θ(t) = 1/(1+t)``).
    """
    config = PegasusConfig(
        alpha=1.0,
        t_max=t_max,
        max_group_size=max_group_size,
        recursive_splits=recursive_splits,
        threshold="fixed",
        seed=seed,
    )
    return summarize(
        graph,
        budget_bits=budget_bits,
        compression_ratio=compression_ratio,
        config=config,
    )
