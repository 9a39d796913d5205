"""A simulated cluster for communication-free multi-query answering.

Each :class:`Machine` holds one query source (a personalized summary graph
or a budgeted subgraph) in its simulated main memory; the
:class:`DistributedCluster` routes a query on node ``q`` to the machine
whose node-set partition contains ``q`` (Alg. 3, lines 5–7) and answers it
locally.  A communication counter exists purely to *prove* the
communication-free property: nothing in this module ever increments it,
and :meth:`DistributedCluster.assert_communication_free` is checked in
tests and benches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.errors import PartitionError, QueryError
from repro.graph.graph import Graph
from repro.queries.hop import hop_distances
from repro.queries.operator import QuerySource, ReconstructedOperator, check_query_node
from repro.queries.php import php_scores
from repro.queries.rwr import rwr_scores

#: The query types every machine answers (Sect. V-A's three queries).
QUERY_TYPES = ("rwr", "hop", "php")


def answer_query(
    source: "QuerySource | ReconstructedOperator", node: int, query_type: str
) -> np.ndarray:
    """The answer vector of one *query_type* query on *node*.

    The one ``query_type → kernel`` switch: machines, the accuracy
    harness and the CLI all answer through it.  It calls the kernels
    through this module's names, which perfbench's tracer wraps; HOP's
    hop counts come back as floats, like the scores.
    """
    if query_type == "rwr":
        return rwr_scores(source, node)
    if query_type == "hop":
        return hop_distances(source, node).astype(np.float64)
    if query_type == "php":
        return php_scores(source, node)
    raise QueryError(f"unknown query type {query_type!r}; choose from {QUERY_TYPES}")


@dataclass
class Machine:
    """One simulated machine: an id, its node partition, and its data.

    Attributes
    ----------
    machine_id:
        Index in ``0..m-1``.
    part_nodes:
        The nodes ``V_i`` whose queries route here.
    source:
        The locally held query source (summary graph or subgraph).
    memory_bits:
        Size of *source* in bits (checked against the budget upstream).
    """

    machine_id: int
    part_nodes: np.ndarray
    source: QuerySource
    memory_bits: float
    _operator: "ReconstructedOperator | None" = field(default=None, repr=False)

    def operator(self) -> ReconstructedOperator:
        """Lazily built reconstruction operator, shared across queries."""
        if self._operator is None:
            self._operator = ReconstructedOperator(self.source)
        return self._operator

    def replace_source(self, source: QuerySource, *, memory_bits: "float | None" = None) -> None:
        """Swap in a new query source (the streaming layer's refresh path).

        Drops the cached reconstruction operator — it encodes the old
        source's arrays — and updates the memory accounting.  Routing
        (``part_nodes``) is untouched: the streaming layer pins the
        partition, so a swapped machine keeps answering the same nodes.
        """
        self.source = source
        self.memory_bits = float(
            memory_bits if memory_bits is not None else source.size_in_bits()
        )
        self._operator = None

    def answer(self, node: int, query_type: str) -> np.ndarray:
        """Answer one query locally (no communication) on the cached operator."""
        if query_type not in QUERY_TYPES:  # before building an operator for it
            raise QueryError(f"unknown query type {query_type!r}; choose from {QUERY_TYPES}")
        return answer_query(self.operator(), node, query_type)


class DistributedCluster:
    """``m`` machines plus the node→machine routing table (Alg. 3)."""

    def __init__(self, graph: Graph, machines: List[Machine]):
        if not machines:
            raise PartitionError("a cluster needs at least one machine")
        self.graph = graph
        self.machines = machines
        self._route = np.full(graph.num_nodes, -1, dtype=np.int64)
        for machine in machines:
            if np.any(self._route[machine.part_nodes] >= 0):
                raise PartitionError("machine parts overlap")
            self._route[machine.part_nodes] = machine.machine_id
        if np.any(self._route < 0):
            raise PartitionError("machine parts do not cover all nodes")
        self.communication_count = 0

    @property
    def num_machines(self) -> int:
        """Number of machines ``m``."""
        return len(self.machines)

    def machine_for(self, node: int) -> Machine:
        """The machine whose part contains *node* (Alg. 3, line 6).

        Runs the kernels' node check, so every routed entry point rejects
        a non-integral, boolean or out-of-range node with
        :class:`QueryError`.
        """
        return self.machines[int(self._route[check_query_node(node, self.graph.num_nodes)])]

    def answer(self, node: int, query_type: str) -> np.ndarray:
        """Route and answer one query; never touches another machine."""
        return self.machine_for(node).answer(node, query_type)

    def answer_many(self, nodes, query_type: str) -> Dict[int, np.ndarray]:
        """Answer a batch of queries (the multi-query workload of Sect. IV).

        Every node passes the kernels' node check before any is answered.
        Returns a dict keyed by ``int`` node id in input order, so
        **repeated query nodes collapse to a single entry** — harmless for
        accuracy experiments (every occurrence has the same answer) but
        wrong for serving, where each request must get its own response.
        The serving layer (:class:`repro.serving.QueryServer`) therefore
        keeps one future per *request* and never routes through this dict.
        """
        nodes = [check_query_node(node, self.graph.num_nodes) for node in nodes]
        return {node: self.answer(node, query_type) for node in nodes}

    def memory_per_machine(self) -> List[float]:
        """Bits held by each machine (must respect the per-machine budget)."""
        return [machine.memory_bits for machine in self.machines]

    def assert_communication_free(self) -> None:
        """Raise if any inter-machine communication was recorded."""
        if self.communication_count != 0:
            raise QueryError(
                f"expected communication-free answering, saw {self.communication_count} messages"
            )
