"""The paper's primary contribution: personalized graph summarization.

Public entry points:

* :func:`repro.core.pegasus.summarize` / :class:`repro.core.pegasus.Pegasus`
  — the PeGaSus algorithm (Alg. 1 of the paper);
* :class:`repro.core.weights.PersonalizedWeights` — the Eq. 2 weight model;
* :class:`repro.core.summary.SummaryGraph` — the summary-graph structure;
* :class:`repro.core.costs.CostModel` — the MDL cost bookkeeping (Eqs. 5–11).
"""

from repro.core.weights import PersonalizedWeights
from repro.core.summary import SummaryGraph
from repro.core.costs import CostModel, personalized_error
from repro.core.batch import BatchCostEvaluator
from repro.core.corrections import CorrectionSet, compute_corrections, decode, lossless_size_in_bits
from repro.core.shingle import candidate_groups, node_shingles
from repro.core.threshold import AdaptiveThreshold, FixedSchedule
from repro.core.pegasus import Pegasus, PegasusConfig, PegasusResult, summarize
from repro.core.summary_io import load_summary, save_summary

__all__ = [
    "PersonalizedWeights",
    "SummaryGraph",
    "BatchCostEvaluator",
    "CostModel",
    "personalized_error",
    "CorrectionSet",
    "compute_corrections",
    "decode",
    "lossless_size_in_bits",
    "candidate_groups",
    "node_shingles",
    "AdaptiveThreshold",
    "FixedSchedule",
    "Pegasus",
    "PegasusConfig",
    "PegasusResult",
    "summarize",
    "load_summary",
    "save_summary",
]
