"""repro — a reproduction of *Personalized Graph Summarization* (ICDE 2022).

The package implements the paper's contribution (the PeGaSus algorithm and
the personalized-error formulation) together with every substrate its
evaluation depends on: a CSR graph library, random-graph generators and
dataset stand-ins, the SSumM / k-Grass / S2L / SAAGs baselines, summary-
graph query answering (RWR, HOP, PHP, PageRank, ...), graph partitioners
(Louvain, BLP, SHP), and a simulated cluster for communication-free
distributed multi-query answering.

Quickstart
----------
>>> from repro import Pegasus, load_dataset, rwr_scores
>>> graph = load_dataset("lastfm_asia", scale=0.3).graph
>>> result = Pegasus(alpha=1.5, seed=0).summarize(
...     graph, targets=[0], compression_ratio=0.5)
>>> scores = rwr_scores(result.summary, 0)   # approximate RWR from summary
"""

from repro.core import (
    CostModel,
    Pegasus,
    PegasusConfig,
    PegasusResult,
    PersonalizedWeights,
    SummaryGraph,
    personalized_error,
    summarize,
)
from repro.core.summary_io import load_summary, save_summary
from repro.graph import Graph, dataset_names, load_dataset, read_edgelist, write_edgelist
from repro.parallel import ParallelExecutor
from repro.queries import hop_distances, php_scores, rwr_scores

__version__ = "1.0.0"

__all__ = [
    "CostModel",
    "Pegasus",
    "PegasusConfig",
    "PegasusResult",
    "PersonalizedWeights",
    "SummaryGraph",
    "personalized_error",
    "summarize",
    "load_summary",
    "save_summary",
    "Graph",
    "ParallelExecutor",
    "dataset_names",
    "load_dataset",
    "read_edgelist",
    "write_edgelist",
    "hop_distances",
    "php_scores",
    "rwr_scores",
    "__version__",
]
