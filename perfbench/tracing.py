"""Spans around the program's public calls, recorded from the benchmark side.

Nothing under ``src/`` knows about these spans: :func:`install` replaces
each public callable where its caller looks it up (for example
``repro.distributed.cluster.rwr_scores``, which ``Machine.answer``
calls) with a wrapper that records one span per call.  Install before
the serving lanes fork and the wrappers run inside the lane workers too;
:func:`harvest_spans` ships a worker's spans back when the run ends.

A span is the tuple ``(pid, span_id, parent_id, name, start, end,
request, value, ticks)``: ``request`` is the request key current when
the span opened, ``value`` a call-specific size (pairs priced, groups
formed, bytes encoded, ...), and ``ticks`` how many operator matvecs ran
inside it (the iteration count of a solve).  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import contextvars
import inspect
import itertools
import os
import time
from typing import Any, Callable, List, Optional, Tuple

_perf = time.perf_counter

CURRENT: "contextvars.ContextVar[int]" = contextvars.ContextVar("perfbench_span", default=0)
REQUEST: "contextvars.ContextVar[Any]" = contextvars.ContextVar("perfbench_request", default=None)


class Recorder:
    """In-memory span buffer of one process (reset in forked children)."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self.ticks: dict = {}
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    def after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.ticks = {}
        CURRENT.set(0)
        REQUEST.set(None)

    def tick(self) -> None:
        sid = CURRENT.get()
        self.ticks[sid] = self.ticks.get(sid, 0) + 1

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, value_fn) -> Any:
        parent = CURRENT.get()
        sid = next(self._ids)
        token = CURRENT.set(sid)
        start = _perf()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            CURRENT.reset(token)
            self._close(sid, parent, name, start, None)
            raise
        CURRENT.reset(token)
        self._close(sid, parent, name, start, value_fn(args, result) if value_fn else None)
        return result

    async def acall(self, name: str, fn: Callable, args: tuple, kwargs: dict, value_fn) -> Any:
        parent = CURRENT.get()
        sid = next(self._ids)
        token = CURRENT.set(sid)
        start = _perf()
        try:
            result = await fn(*args, **kwargs)
        except BaseException:
            CURRENT.reset(token)
            self._close(sid, parent, name, start, None)
            raise
        CURRENT.reset(token)
        self._close(sid, parent, name, start, value_fn(args, result) if value_fn else None)
        return result

    def _close(self, sid: int, parent: int, name: str, start: float, value: Any) -> None:
        self.spans.append(
            (self.pid, sid, parent, name, start, _perf(), REQUEST.get(), value,
             self.ticks.pop(sid, 0))
        )

    def record(self, name: str, start: float, end: float, value: Any = None) -> None:
        """A span timed by the caller (e.g. a future's submit-to-done)."""
        # next() on itertools.count is atomic, and this runs on the
        # executor's callback thread as well as the event loop's.
        self.spans.append((self.pid, next(self._ids), 0, name, start, end, None, value, 0))

    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str, value_fn=None) -> None:
        original = getattr(owner, attr)
        if inspect.iscoroutinefunction(original):
            async def wrapper(*args, **kwargs):
                return await self.acall(name, original, args, kwargs, value_fn)
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, original, args, kwargs, value_fn)
        self.patch(owner, attr, wrapper)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


#: The process's recorder while tracing is installed (``None`` otherwise).
RECORDER: Optional[Recorder] = None
_ORIGINAL_SERVE: Optional[Callable] = None
_FORK_HOOKED = False


def traced_serve_batch_task(shared, task):
    """Stand-in for ``serve_batch_task`` that the lanes pickle by name."""
    if RECORDER is None:
        return _ORIGINAL_SERVE(shared, task)
    return RECORDER.call(
        "serving.blueprint.compute", _ORIGINAL_SERVE, (shared, task), {},
        lambda args, result: len(args[1][1]),
    )


def harvest_spans(shared, task) -> List[tuple]:
    """Lane task: hand this worker's spans to the parent and forget them."""
    if RECORDER is None:
        return []
    spans, RECORDER.spans = RECORDER.spans, []
    return spans


def _after_fork_in_child() -> None:
    if RECORDER is not None:
        RECORDER.after_fork()


def _message_key(direction: str):
    def value(args, result):
        codec = args[0]
        message = args[1] if direction == "out" else result
        key = (direction, id(codec), message.get("id"), message.get("node"),
               message.get("type"), message.get("op"),
               len(result) if direction == "out" else 0)
        if direction == "in" and key[5] == "query":
            # The server spawns the query's task right after decoding,
            # so the task inherits this request key.
            REQUEST.set(("q", key[2], key[3], key[4]))
        return key
    return value


def install() -> Recorder:
    """Wrap every traced public call; returns the live recorder."""
    global RECORDER, _ORIGINAL_SERVE, _FORK_HOOKED
    import repro
    import repro.core.pegasus as pegasus
    import repro.distributed as distributed
    import repro.distributed.cluster as cluster
    import repro.distributed.pipeline as pipeline
    import repro.serving.net as net
    import repro.serving.server as server
    from repro.core.batch import BatchCostEvaluator
    from repro.core.costs import CostModel
    from repro.core.weights import PersonalizedWeights
    from repro.parallel.lanes import LaneExecutor
    from repro.queries.operator import ReconstructedOperator
    from repro.serving.blueprint import ClusterBlueprint
    from repro.serving.protocol import FrameDecoder, MessageCodec
    from repro.serving.server import QueryServer
    from repro.serving.tenancy import TenantHost
    from repro.streaming import GraphDelta, StreamingSummarizer

    rec = Recorder()
    RECORDER = rec
    if not _FORK_HOOKED:
        os.register_at_fork(after_in_child=_after_fork_in_child)
        _FORK_HOOKED = True

    # graph / partitioning / distributed set-up
    rec.wrap(repro, "load_dataset", "graph.datasets")
    rec.wrap(pipeline, "louvain_partition", "partitioning.louvain")
    rec.wrap(distributed, "build_summary_cluster", "distributed.build")
    rec.wrap(StreamingSummarizer, "__init__", "distributed.build")

    # core: one root span per summarize, its layers nested below
    rec.wrap(repro, "summarize", "core.summarize")
    rec.wrap(pipeline, "summarize", "core.summarize")
    rec.wrap(PersonalizedWeights, "__init__", "core.weights")
    rec.wrap(pegasus, "candidate_groups", "core.shingle", lambda a, r: len(r))
    rec.wrap(pegasus, "merge_groups", "core.merge", lambda a, r: (r.attempts, r.merges))
    rec.wrap(BatchCostEvaluator, "evaluate_scores", "core.batch.price", lambda a, r: len(a[1]))
    rec.wrap(CostModel, "evaluate_merge", "core.pricing.scalar")
    rec.wrap(BatchCostEvaluator, "apply_merge", "core.batch.apply")
    rec.wrap(CostModel, "superedge_drop_order", "core.costs.sparsify")

    # query kernels and the operator they solve over (lane workers)
    rec.wrap(cluster, "rwr_scores", "queries.rwr")
    rec.wrap(cluster, "php_scores", "queries.php")
    rec.wrap(cluster, "hop_distances", "queries.hop")
    rec.wrap(cluster, "ReconstructedOperator", "queries.operator.build")
    matvec = ReconstructedOperator.matvec

    def counted_matvec(self, x):
        rec.tick()
        return matvec(self, x)

    rec.patch(ReconstructedOperator, "matvec", counted_matvec)

    # serving: wire, admission, queueing, lanes, worker compute, swaps
    rec.wrap(MessageCodec, "encode", "serving.protocol.encode", _message_key("out"))
    rec.wrap(MessageCodec, "decode", "serving.protocol.decode", _message_key("in"))
    rec.wrap(net, "encode_frame", "serving.protocol.frame", lambda a, r: len(r))
    rec.wrap(FrameDecoder, "feed", "serving.protocol.feed")
    rec.wrap(net, "pack_array", "serving.protocol.pack")
    rec.wrap(net, "unpack_array", "serving.protocol.unpack")
    rec.wrap(TenantHost, "submit", "serving.tenancy.submit")
    rec.wrap(TenantHost, "start", "parallel.lanes.start")
    rec.wrap(QueryServer, "submit", "serving.server.submit", lambda a, r: (a[1], a[2]))
    rec.wrap(ClusterBlueprint, "export_update", "serving.blueprint.export")
    lane_submit = LaneExecutor.submit

    def timed_lane_submit(self, fn, task, **kwargs):
        start = _perf()
        future = lane_submit(self, fn, task, **kwargs)
        if fn is traced_serve_batch_task:
            items = tuple((int(item[0]), item[1]) for item in task[1])
            future.add_done_callback(
                lambda _f: rec.record("parallel.lanes.roundtrip", start, _perf(), items)
            )
        return future

    rec.patch(LaneExecutor, "submit", timed_lane_submit)
    _ORIGINAL_SERVE = server.serve_batch_task
    rec.patch(server, "serve_batch_task", traced_serve_batch_task)

    # streaming write path
    rec.wrap(StreamingSummarizer, "ingest", "streaming.ingest")
    rec.wrap(StreamingSummarizer, "refresh", "streaming.refresh", lambda a, r: len(r.machine_ids))
    rec.wrap(StreamingSummarizer, "residual_for", "streaming.residual.filter")
    rec.wrap(GraphDelta, "materialize", "streaming.delta.materialize")
    return rec


def uninstall() -> None:
    global RECORDER
    if RECORDER is not None:
        RECORDER.uninstall()
        RECORDER = None
