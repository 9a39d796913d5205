"""Online maintenance of a summary cluster under an edge stream.

The paper's pipeline (Alg. 3) is offline: partition once, build one
personalized summary per machine, serve forever.  :class:`StreamingSummarizer`
keeps that cluster *live* under an append-only edge stream:

1. **Ingest** — :meth:`StreamingSummarizer.ingest` pushes a micro-batch of
   edges into the :class:`~repro.streaming.delta.GraphDelta`.  Every
   machine's serving source immediately becomes a
   :class:`~repro.streaming.residual.ResidualSource` — its last summary
   plus the exact correction list of the edges that summary has never
   seen — so queries observe every streamed edge at once; only the merge
   structure goes stale.
2. **Cost drift** — the correction list has a price: ``2·log2|V|`` bits
   per edge (footnote 4), the same currency as the summary budget.  A
   machine's *drift* is its correction bits over its budget; once drift
   crosses ``drift_threshold``, re-summarizing is cheaper than carrying
   the corrections, and the machine is marked for refresh.
3. **Refresh** — :meth:`StreamingSummarizer.refresh` re-runs the
   per-machine summarization of Alg. 3 on the **materialized** graph for
   exactly the drifted machines and hot-swaps the new summaries into the
   cluster — and into an attached :class:`~repro.serving.QueryServer` —
   between micro-batches, without dropping in-flight requests.  The
   machines are independent, so the refresh splits them: attached to a
   server with pre-forked lanes, the refreshing process computes the
   first share itself while up to ``min(lanes, usable CPUs − 1,
   machines − 1)`` of the server's warm lanes compute one contiguous
   share each; otherwise they fan out over a
   :class:`~repro.parallel.ParallelExecutor` of ``workers`` processes.

Determinism contract (pinned by ``tests/streaming/``):

* The partition is resolved **once**, at construction, with the given
  seed, and never changes — routing stability is what makes hot-swap
  serving possible.
* A refresh rebuilds a machine from the materialized graph alone — never
  incrementally from the stale summary — so the post-refresh state is a
  pure function of the stream prefix.  After refreshing all stale
  machines at **any** prefix, under **any** earlier refresh cadence and
  worker count or lane split, the cluster is byte-identical to
  :func:`~repro.distributed.pipeline.build_summary_cluster` on
  ``delta.materialize()`` with the same pinned assignment, config, and
  seed — summaries, sizes, and served answers alike.
* Between refreshes, answers are a deterministic function of
  ``(stream prefix, refresh history)`` — identical at any worker count,
  with residual topology exactly
  ``Ĝ_summary ∪ streamed edges``.
"""

from __future__ import annotations

import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.pegasus import PegasusConfig
from repro.distributed.cluster import DistributedCluster, Machine
from repro.distributed.pipeline import Partitioner, _resolve_parts, _summary_machine_task
from repro.errors import StreamingError
from repro.graph.graph import Graph
from repro.obs.profile import count as _obs_count, probe
from repro.parallel import ParallelExecutor, resolve_workers
from repro.parallel.executor import usable_cpus
from repro.streaming.delta import GraphDelta
from repro.streaming.residual import ResidualSource, uncovered_edges


def _summary_share_task(shared, tasks) -> List[Machine]:
    """A lane's share of a refresh: its machines, built in task order."""
    return [_summary_machine_task(shared, task) for task in tasks]


@dataclass
class _MachineState:
    """Per-machine streaming bookkeeping."""

    part: np.ndarray
    summary: object  # the machine's base SummaryGraph (its last refresh)
    cursor: int = 0  # delta length when the summary was (re)built
    refreshes: int = 0
    # Incrementally maintained correction list: the pending edges in
    # [cursor, filtered_at) that are absent from ``summary``'s
    # reconstruction.  Each ingest filters only the new suffix, so
    # maintenance stays linear in the stream instead of quadratic.
    filtered_edges: np.ndarray = None  # type: ignore[assignment]
    filtered_at: int = 0

    def reset_filter(self, cursor: int) -> None:
        self.cursor = cursor
        self.filtered_at = cursor
        self.filtered_edges = np.empty((0, 2), dtype=np.int64)


@dataclass
class IngestReport:
    """What one :meth:`StreamingSummarizer.ingest` call did."""

    submitted: int
    novel: int
    pending: int
    refreshed: "List[int]" = field(default_factory=list)
    drift: "Dict[int, float]" = field(default_factory=dict)
    seconds: float = 0.0


@dataclass
class RefreshReport:
    """What one :meth:`StreamingSummarizer.refresh` call rebuilt."""

    machine_ids: "List[int]"
    seconds: float = 0.0
    #: The machines computed on the attached server's lanes; the rest
    #: ran in this process (or a throwaway pool, when detached).
    on_lanes: "List[int]" = field(default_factory=list)


class StreamingSummarizer:
    """A summary cluster that absorbs edge insertions online.

    Parameters
    ----------
    graph:
        The initial (base) graph ``G₀``.  The node set is fixed; the
        stream appends edges only.
    num_machines, budget_bits:
        As for :func:`~repro.distributed.pipeline.build_summary_cluster`.
    config:
        PeGaSus hyper-parameters for every (re-)summarization; defaults
        to ``PegasusConfig(seed=seed)``.  A seeded config is what makes
        the whole stream replayable.
    partitioner, assignment, seed:
        Partition controls, resolved **once** at construction (see the
        module docstring).  The pinned assignment is exposed as
        :attr:`assignment` so reference clusters can be built on it.
    drift_threshold:
        Refresh a machine when its residual correction bits exceed this
        fraction of ``budget_bits``.  ``0.0`` refreshes every stale
        machine at every ingest (the always-fresh reference cadence);
        larger values trade staleness of the merge structure for fewer
        re-summarizations.  Must be non-negative.
    workers:
        Process-pool size for the construction build and for refreshes
        with no pooled server attached (``1`` = inline reference path;
        results are byte-identical at any count).  Attached to a server
        with pre-forked lanes, a refresh splits its machines between
        this process and those lanes instead (see the module docstring).
    log_dir:
        Durable write-ahead logging: every ingested batch is appended to
        a :class:`~repro.store.DeltaLog` in this directory (crash-atomic
        checksummed segments), and each refresh compacts the prefix all
        machines have absorbed into a new base generation.  After a
        crash, ``DeltaLog.recover(log_dir)`` reconstructs exactly the
        durable stream.  ``None`` (default) keeps the stream in memory
        only.  The log is exposed as :attr:`log`.
    checkpoint:
        Optional ``callback(machine_id, summary, cursor)`` invoked after
        each refresh with the machine's new base summary and the
        **global** stream offset it was built at (local offset when no
        log is attached).  The resilience layer's
        :meth:`~repro.resilience.HostState.checkpoint_for` plugs in here
        so a refreshed summary is re-persisted *before* the log compacts
        the prefix it absorbed — the ordering whole-server recovery
        relies on.
    """

    def __init__(
        self,
        graph: Graph,
        num_machines: int,
        budget_bits: float,
        *,
        config: "PegasusConfig | None" = None,
        partitioner: "Partitioner | None" = None,
        assignment: "np.ndarray | None" = None,
        seed: "int | None" = 0,
        drift_threshold: float = 0.1,
        workers: "int | None" = 1,
        log_dir: "str | None" = None,
        checkpoint=None,
    ):
        if drift_threshold < 0.0:
            raise StreamingError(
                f"drift_threshold must be >= 0, got {drift_threshold}"
            )
        self.delta = GraphDelta(graph)
        if log_dir is not None:
            from repro.store import DeltaLog

            self.log: "DeltaLog | None" = DeltaLog.create(log_dir, self.delta)
        else:
            self.log = None
        self.budget_bits = float(budget_bits)
        self.config = config or PegasusConfig(seed=seed)
        self.drift_threshold = float(drift_threshold)
        self.checkpoint = checkpoint
        self.workers = workers
        parts = _resolve_parts(graph, num_machines, partitioner, assignment, seed)
        route = np.full(graph.num_nodes, -1, dtype=np.int64)
        for machine_id, part in enumerate(parts):
            route[part] = machine_id
        route.setflags(write=False)
        #: The pinned node→machine assignment (build reference clusters
        #: with ``build_summary_cluster(..., assignment=...)`` on it).
        self.assignment = route
        machines = self._build_machines(graph, list(enumerate(parts)))
        self.cluster = DistributedCluster(graph, machines)
        self._states = {}
        for machine in machines:
            state = _MachineState(part=parts[machine.machine_id], summary=machine.source)
            state.reset_filter(0)
            self._states[machine.machine_id] = state
        self._server = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_machines(self, graph: Graph, tasks: "List[Tuple[int, np.ndarray]]") -> List[Machine]:
        """Fan the per-machine summarizations of Alg. 3 over the pool.

        Identical to the build path of
        :func:`~repro.distributed.pipeline.build_summary_cluster` — same
        task function, same shipping — which is exactly what the
        byte-identical refresh contract requires.
        """
        return ParallelExecutor(self.workers).map(
            _summary_machine_task, tasks, shared=(graph, self.budget_bits, self.config)
        )

    # ------------------------------------------------------------------
    # serving integration
    # ------------------------------------------------------------------
    def attach(self, server) -> None:
        """Forward every subsequent source swap to *server* (hot swap).

        *server* is a running :class:`~repro.serving.QueryServer` built on
        :attr:`cluster`.  While attached, refreshes also borrow its warm
        lanes.  Detach with :meth:`detach`.
        """
        self._server = server

    def detach(self) -> None:
        """Stop forwarding swaps to the previously attached server."""
        self._server = None

    def _swap(self, machine_id: int, source) -> None:
        machine = self.cluster.machines[machine_id]
        machine.replace_source(source)
        _obs_count(
            "repro_stream_swaps_total",
            kind="residual" if isinstance(source, ResidualSource) else "refresh",
        )
        if self._server is not None:
            self._server.swap_machine(machine)

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def num_machines(self) -> int:
        """Number of machines ``m`` (fixed)."""
        return self.cluster.num_machines

    def pending_for(self, machine_id: int) -> np.ndarray:
        """The streamed edges machine *machine_id*'s summary has not seen."""
        state = self._state(machine_id)
        return self.delta.pending_edges()[state.cursor :]

    def residual_for(self, machine_id: int) -> ResidualSource:
        """The machine's residual-corrected source at the current prefix.

        The correction list is maintained incrementally: only pending
        edges that arrived since the last call are filtered against the
        machine's reconstruction (one vectorized pass), then appended to
        the cached list.  The resulting source is identical to filtering
        the whole ``pending_for`` slice from scratch — ``ResidualSource``
        canonicalizes the stored order — just without re-paying for
        already-filtered edges on every ingest.
        """
        state = self._state(machine_id)
        pending = self.delta.num_pending
        if state.filtered_at < pending:
            suffix = self.delta.pending_edges()[state.filtered_at :]
            u, v = suffix[:, 0], suffix[:, 1]
            novel = uncovered_edges(state.summary, u, v)
            state.filtered_edges = np.concatenate(
                [state.filtered_edges, suffix[novel]]
            )
            state.filtered_at = pending
        return ResidualSource(state.summary, state.filtered_edges, assume_filtered=True)

    def drift(self, machine_id: int) -> float:
        """Correction bits over budget — the re-summarization trigger."""
        source = self.cluster.machines[machine_id].source
        if not isinstance(source, ResidualSource):
            return 0.0
        return source.correction_bits() / self.budget_bits if self.budget_bits > 0 else 0.0

    def stale_machines(self) -> List[int]:
        """Machines whose summary predates the newest streamed edge."""
        pending = self.delta.num_pending
        return [mid for mid, state in sorted(self._states.items()) if state.cursor < pending]

    def refresh_counts(self) -> Dict[int, int]:
        """Completed re-summarizations per machine."""
        return {mid: state.refreshes for mid, state in sorted(self._states.items())}

    def _state(self, machine_id: int) -> _MachineState:
        state = self._states.get(machine_id)
        if state is None:
            raise StreamingError(f"machine {machine_id} is not part of this cluster")
        return state

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------
    def ingest(
        self,
        edges: "Iterable[Tuple[int, int]] | np.ndarray",
        *,
        refresh: str = "auto",
    ) -> IngestReport:
        """Absorb a micro-batch of edge insertions.

        Every machine's serving source is re-derived as its summary plus
        the exact residual correction list, then machines are refreshed
        according to *refresh*:

        * ``"auto"`` (default) — refresh machines whose drift crossed
          :attr:`drift_threshold`;
        * ``"none"`` — only extend correction lists (refresh manually);
        * ``"all"`` — refresh every stale machine now.
        """
        with probe("stream.ingest"):
            return self._ingest(edges, refresh=refresh)

    def _ingest(
        self,
        edges: "Iterable[Tuple[int, int]] | np.ndarray",
        *,
        refresh: str,
    ) -> IngestReport:
        if refresh not in ("auto", "none", "all"):
            raise StreamingError(f"refresh must be 'auto', 'none' or 'all', got {refresh!r}")
        started = time.perf_counter()
        arr = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
        )
        submitted = arr.shape[0] if arr.ndim == 2 else 0
        novel = self.delta.add_edges(arr)
        if self.log is not None and novel:
            self.log.append(self.delta)
        report = IngestReport(
            submitted=submitted, novel=novel, pending=self.delta.num_pending
        )
        # Re-derive every stale machine's correction list on the new
        # prefix: drift is measured against it, and machines that are not
        # refreshed serve the complete topology immediately.
        residuals: Dict[int, ResidualSource] = {}
        pending = self.delta.num_pending
        for machine_id in sorted(self._states):
            if self._states[machine_id].cursor < pending:
                residuals[machine_id] = self.residual_for(machine_id)
        report.drift = {
            mid: (
                residuals[mid].correction_bits() / self.budget_bits
                if mid in residuals and self.budget_bits > 0
                else 0.0
            )
            for mid in sorted(self._states)
        }
        if refresh == "all":
            to_refresh = self.stale_machines()
        elif refresh == "auto":
            to_refresh = [
                mid
                for mid in residuals
                if report.drift[mid] > self.drift_threshold or self.drift_threshold == 0.0
            ]
        else:
            to_refresh = []
        if novel:
            for machine_id, residual in residuals.items():
                if machine_id not in to_refresh:
                    self._swap(machine_id, residual)
        if to_refresh:
            report.refreshed = self.refresh(to_refresh).machine_ids
            report.drift.update({mid: 0.0 for mid in report.refreshed})
        report.seconds = time.perf_counter() - started
        return report

    def refresh(self, machine_ids: "Sequence[int] | None" = None) -> RefreshReport:
        """Re-summarize machines from the materialized graph and hot-swap.

        *machine_ids* defaults to every stale machine.  Each listed
        machine is rebuilt exactly as a from-scratch
        :func:`~repro.distributed.pipeline.build_summary_cluster` on
        ``delta.materialize()`` would build it (same task function, same
        config, same part) — re-summarization is never incremental, which
        is what makes the refreshed state independent of the cadence that
        led to it.
        """
        with probe("stream.refresh"):
            return self._refresh(machine_ids)

    def _refresh(self, machine_ids: "Sequence[int] | None" = None) -> RefreshReport:
        started = time.perf_counter()
        if machine_ids is None:
            machine_ids = self.stale_machines()
        ids = []
        for machine_id in machine_ids:
            self._state(int(machine_id))  # validate
            if int(machine_id) not in ids:
                ids.append(int(machine_id))
        if not ids:
            return RefreshReport(machine_ids=[], seconds=time.perf_counter() - started)
        materialized = self.delta.materialize()
        tasks = [(machine_id, self._states[machine_id].part) for machine_id in ids]
        machines, on_lanes = self._rebuild_machines(materialized, tasks)
        cursor = self.delta.num_pending
        for machine in machines:
            state = self._states[machine.machine_id]
            state.summary = machine.source
            state.reset_filter(cursor)
            state.refreshes += 1
            self._swap(machine.machine_id, machine.source)
        if self.checkpoint is not None:
            # Persist the refreshed summaries (and their cursors) before
            # compaction may fold the prefix they absorbed: a crash in
            # between recovers new summaries over the old base, which is
            # still exactly the durable stream.  The reverse order could
            # leave checkpointed cursors behind a compacted base.
            for machine in machines:
                state = self._states[machine.machine_id]
                global_cursor = (
                    self.log.global_offset(state.cursor)
                    if self.log is not None
                    else state.cursor
                )
                self.checkpoint(machine.machine_id, state.summary, global_cursor)
        if self.log is not None:
            # Everything before the slowest machine's cursor is absorbed
            # by every summary — fold it into a new base generation.  The
            # in-memory delta (and all cursors into it) is untouched.
            self.log.compact(
                self.delta, min(state.cursor for state in self._states.values())
            )
        return RefreshReport(
            machine_ids=ids, seconds=time.perf_counter() - started, on_lanes=on_lanes
        )

    def _rebuild_machines(
        self, graph: Graph, tasks: "List[Tuple[int, np.ndarray]]"
    ) -> "Tuple[List[Machine], List[int]]":
        """Re-summarize *tasks* for a refresh; returns the machines in
        task order and the ids of those computed on a lane.

        Attached to a server with pooled lanes, this process computes the
        first contiguous share inline while each of ``k`` lanes computes
        one more.  A lane's share goes out as one task: a lane holds one
        task in its pipe and the next goes out only when this process
        reads the reply, so per-machine tasks would leave the lane idle
        while this process computes its own share.  The graph is pickled
        into each lane task, so nothing stays behind in the worker.  A
        lane whose worker dies hands its share back to this process.
        Every share runs the task function of
        :func:`~repro.distributed.pipeline.build_summary_cluster`, so the
        split never shows in the result.  With ``k = 0`` the refresh fans
        out like the construction build.
        """
        executor = self._server.executor if self._server is not None else None
        lanes = 0
        if executor is not None and executor.started and not executor.inline:
            lanes = min(executor.lanes, usable_cpus() - 1, len(tasks) - 1)
        if lanes <= 0:
            pooled = resolve_workers(self.workers) > 1 and len(tasks) > 1
            _obs_count(
                "repro_stream_refresh_machines_total",
                len(tasks),
                where="pool" if pooled else "parent",
            )
            return self._build_machines(graph, tasks), []
        shared = (graph, self.budget_bits, self.config)
        shares = [
            [tasks[index] for index in part]
            for part in np.array_split(np.arange(len(tasks)), lanes + 1)
        ]
        futures = [
            executor.submit(_summary_share_task, share, lane=lane, shared=shared)
            for lane, share in enumerate(shares[1:])
        ]
        machines = _summary_share_task(shared, shares[0])
        on_lanes: List[int] = []
        for share, future in zip(shares[1:], futures):
            try:
                # result() reads the lane's pipe itself (an event loop
                # running this refresh is blocked): the reply of a read
                # batch sent ahead of the share reaches its callbacks on
                # the way.
                built = future.result()
            except BrokenProcessPool:
                built = _summary_share_task(shared, share)
            else:
                on_lanes.extend(machine_id for machine_id, _ in share)
            machines.extend(built)
        _obs_count(
            "repro_stream_refresh_machines_total", len(tasks) - len(on_lanes), where="parent"
        )
        _obs_count("repro_stream_refresh_machines_total", len(on_lanes), where="lane")
        return machines, on_lanes
