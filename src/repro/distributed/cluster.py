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
from repro.parallel import ParallelExecutor
from repro.queries.hop import hop_distances
from repro.queries.operator import QuerySource, ReconstructedOperator
from repro.queries.php import php_scores
from repro.queries.rwr import rwr_scores


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
        """Answer one query locally (no communication)."""
        if query_type == "rwr":
            return rwr_scores(self.source, node, operator=self.operator())
        if query_type == "hop":
            return hop_distances(self.source, node).astype(np.float64)
        if query_type == "php":
            return php_scores(self.source, node, operator=self.operator())
        raise QueryError(f"unknown query type {query_type!r}")


def _machine_batch_task(shared, task) -> List[np.ndarray]:
    """Answer one machine's routed batch (the inline, no-shipping path).

    The machine's reconstruction operator is built once and reused across
    the whole batch (``Machine.operator`` caches it).  The parallel path
    of :meth:`DistributedCluster.answer_batch` does not use this: it ships
    the serving blueprint's array reduction instead of Machine objects.
    """
    query_type = shared
    machine, nodes = task
    return [machine.answer(node, query_type) for node in nodes]


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
        """The machine whose part contains *node* (Alg. 3, line 6)."""
        if not 0 <= node < self.graph.num_nodes:
            raise QueryError(f"node {node} out of range")
        return self.machines[int(self._route[node])]

    def answer(self, node: int, query_type: str) -> np.ndarray:
        """Route and answer one query; never touches another machine."""
        return self.machine_for(node).answer(node, query_type)

    def answer_many(self, nodes, query_type: str) -> Dict[int, np.ndarray]:
        """Answer a batch of queries (the multi-query workload of Sect. IV).

        Returns a dict keyed by node id, so **repeated query nodes
        collapse to a single entry** — harmless for accuracy experiments
        (every occurrence has the same answer) but wrong for serving,
        where each request must get its own response.  The serving layer
        (:class:`repro.serving.QueryServer`) therefore keeps one future
        per *request* and never routes through this dict.
        """
        return {int(q): self.answer(int(q), query_type) for q in nodes}

    def answer_batch(
        self, nodes, query_type: str, *, workers: "int | None" = 1
    ) -> Dict[int, np.ndarray]:
        """Serve a batch of routed queries with per-machine batching.

        Queries are grouped by owning machine (Alg. 3's routing), each
        machine answers its whole group against one reconstruction
        operator built once per machine — not once per query — and the
        groups optionally fan out over a
        :class:`~repro.parallel.ParallelExecutor` (*workers* processes;
        ``1`` = inline).  Answers are exactly those of
        :meth:`answer_many`, keyed by node in input order, and no
        inter-machine communication happens in either mode.

        Like :meth:`answer_many`, the dict return **dedupes repeated
        query nodes** (pinned by a regression test); per-request
        answering lives in :class:`repro.serving.QueryServer`.
        """
        node_list = [int(q) for q in nodes]
        groups: Dict[int, List[int]] = {}
        for node in node_list:
            machine = self.machine_for(node)  # validates the node id
            groups.setdefault(machine.machine_id, []).append(node)
        executor = ParallelExecutor(workers)
        order = sorted(groups)
        shipping = executor.workers > 1 and len(groups) > 1
        if shipping:
            # Every summary holds a reference to the full input graph, so
            # pickling Machine objects would ship the graph once per
            # machine.  Ship the serving layer's array reduction instead:
            # workers rebuild each machine from its determining arrays
            # and build its operator once.
            from repro.serving.blueprint import BatchTask, ClusterBlueprint, serve_batch_task

            blueprint = ClusterBlueprint(self)
            tasks = [
                BatchTask(
                    machine_id,
                    [(node, query_type, None) for node in groups[machine_id]],
                    blueprint.source(machine_id),
                )
                for machine_id in order
            ]
            replies = executor.map(serve_batch_task, tasks, shared=blueprint.session())
            batches = [reply.answers for reply in replies]
        else:
            inline_tasks = [(self.machines[machine_id], groups[machine_id]) for machine_id in order]
            batches = executor.map(_machine_batch_task, inline_tasks, shared=query_type)
        answers: Dict[int, np.ndarray] = {}
        for machine_id, vectors in zip(order, batches):
            answers.update(zip(groups[machine_id], vectors))
        return {node: answers[node] for node in node_list}

    def memory_per_machine(self) -> List[float]:
        """Bits held by each machine (must respect the per-machine budget)."""
        return [machine.memory_bits for machine in self.machines]

    def assert_communication_free(self) -> None:
        """Raise if any inter-machine communication was recorded."""
        if self.communication_count != 0:
            raise QueryError(
                f"expected communication-free answering, saw {self.communication_count} messages"
            )
