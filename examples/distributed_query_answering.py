"""Communication-free distributed multi-query answering (Alg. 3).

Eight simulated machines each hold one summary graph personalized to one
Louvain part of the input graph; incoming queries are routed to the
machine owning the query node and answered locally.  The same budget is
also given to (a) one non-personalized SSumM summary replicated on every
machine and (b) per-part budgeted subgraphs — the Fig. 12 comparison.

Run with::

    python examples/distributed_query_answering.py
"""

from __future__ import annotations

import numpy as np

from repro.baselines import ssumm_summarize
from repro.core import PegasusConfig
from repro.distributed import build_subgraph_cluster, build_summary_cluster
from repro.eval import sample_query_nodes, smape, spearman_correlation
from repro.graph import load_dataset
from repro.partitioning import louvain_partition
from repro.queries import rwr_scores


def main() -> None:
    dataset = load_dataset("caida", scale=1.0, seed=1)
    graph = dataset.graph
    machines = 8
    ratio = 0.4
    budget = ratio * graph.size_in_bits()
    print(
        f"{dataset.display_name}: |V|={graph.num_nodes}, |E|={graph.num_edges}; "
        f"{machines} machines, {budget / 8192:.1f} KiB each"
    )

    assignment = louvain_partition(graph, machines, seed=0)
    # The m per-machine summaries build concurrently (workers=0 = all
    # cores); the cluster is byte-identical at any worker count.
    personalized = build_summary_cluster(
        graph, machines, budget, assignment=assignment, config=PegasusConfig(seed=1), workers=0
    )
    subgraphs = build_subgraph_cluster(graph, machines, budget, assignment=assignment, workers=0)
    ssumm = ssumm_summarize(graph, budget_bits=budget, seed=1).summary

    queries = sample_query_nodes(graph, 25, seed=5)
    # Batch answering: each query routes to its machine, which builds its
    # operator once and reuses it for every query it owns.
    pegasus_answers = personalized.answer_many(queries, "rwr")
    subgraph_answers = subgraphs.answer_many(queries, "rwr")
    scores = {"PeGaSus cluster": [], "SSumM replicated": [], "Subgraph cluster": []}
    correlations = {name: [] for name in scores}
    for q in queries:
        exact = rwr_scores(graph, int(q))
        answers = {
            "PeGaSus cluster": pegasus_answers[int(q)],
            "SSumM replicated": rwr_scores(ssumm, int(q)),
            "Subgraph cluster": subgraph_answers[int(q)],
        }
        for name, approx in answers.items():
            scores[name].append(smape(exact, approx))
            correlations[name].append(spearman_correlation(exact, approx))

    personalized.assert_communication_free()
    subgraphs.assert_communication_free()
    print(f"\nRWR accuracy over {queries.size} routed queries (no communication):")
    print(f"{'cluster':<20} {'SMAPE':>7} {'Spearman':>9}")
    for name in scores:
        print(f"{name:<20} {np.mean(scores[name]):>7.3f} {np.mean(correlations[name]):>9.3f}")
    print(
        "\nPersonalizing each machine's summary to its own part beats shipping"
        "\nthe same non-personalized summary everywhere (Sect. IV)."
    )


if __name__ == "__main__":
    main()
