"""Per-layer metrics from a traced run's spans.

The metrics named in ``BENCHMARK.json``'s ``per_layer`` list are computed
here from the spans of :mod:`tracing` plus a few counters the workload
measures itself (ledger deltas, CPU busy shares, generator lateness).
A layer a workload never enters is left out (the workload reports 0).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import stats

_ENCODE = ("serving.protocol.encode", "serving.protocol.frame", "serving.protocol.pack")
_DECODE = ("serving.protocol.decode", "serving.protocol.feed", "serving.protocol.unpack")

# Span tuple fields (see tracing.py).
PID, SID, PARENT, NAME, START, END, REQ, VALUE, TICKS = range(9)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _med(values: Sequence[float]) -> float:
    return stats.median(values) if values else 0.0


Windows = Sequence[Tuple[float, float]]


def _within(span, windows: Windows) -> bool:
    return any(start <= span[START] < end for start, end in windows)


class SpanIndex:
    """Spans grouped by name, with self times (children keyed per process)."""

    def __init__(self, spans: Iterable[tuple]):
        self.spans = list(spans)
        self.by_name: Dict[str, List[tuple]] = defaultdict(list)
        children: Dict[Tuple[int, int], List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            self.by_name[span[NAME]].append(span)
            if span[PARENT]:
                children[(span[PID], span[PARENT])].append((span[START], span[END]))
        self.children = children

    def self_time(self, span) -> float:
        covered = stats.union_length(
            self.children.get((span[PID], span[SID]), ()), span[START], span[END]
        )
        return span[END] - span[START] - covered

    def named(self, name: str, windows: Optional[Windows] = None, pids=None) -> List[tuple]:
        out = self.by_name.get(name, [])
        if windows is not None:
            out = [s for s in out if _within(s, windows)]
        if pids is not None:
            out = [s for s in out if s[PID] in pids]
        return out


def core_metrics(index: SpanIndex, windows: Windows) -> Dict[str, float]:
    calls = index.named("core.summarize", windows)
    n = len(calls)
    if n == 0:
        return {}

    def total(name: str, self_time: bool = False) -> float:
        spans = index.named(name, windows)
        return sum(index.self_time(s) if self_time else s[END] - s[START] for s in spans)

    merge = index.named("core.merge", windows)
    attempts = sum(s[VALUE][0] for s in merge if s[VALUE])
    merges = sum(s[VALUE][1] for s in merge if s[VALUE])
    wall = sum(s[END] - s[START] for s in calls)
    uncovered = sum(index.self_time(s) for s in calls)
    price = index.named("core.batch.price", windows)
    return {
        "core.weights.s": total("core.weights") / n,
        "core.shingle.s": total("core.shingle", True) / n,
        "core.shingle.groups": sum(s[VALUE] or 0 for s in index.named("core.shingle", windows)) / n,
        "core.merge.self_s": total("core.merge", True) / n,
        "core.merge.attempts": attempts / n,
        "core.merge.merges": merges / n,
        "core.merge.yield": merges / attempts if attempts else 0.0,
        "core.batch.price_s": total("core.batch.price", True) / n,
        "core.batch.price_calls": len(price) / n,
        "core.batch.pairs": sum(s[VALUE] or 0 for s in price) / n,
        "core.pricing.scalar_s": total("core.pricing.scalar", True) / n,
        "core.pricing.scalar_calls": len(index.named("core.pricing.scalar", windows)) / n,
        "core.batch.apply_s": total("core.batch.apply", True) / n,
        "core.costs.sparsify_s": total("core.costs.sparsify", True) / n,
        "core.coverage": (wall - uncovered) / wall if wall > 0 else 0.0,
    }


def query_metrics(
    index: SpanIndex, windows: Windows, workers, max_iterations: int
) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for kind in ("rwr", "php", "hop"):
        spans = index.named(f"queries.{kind}", windows, workers)
        out[f"queries.{kind}.ms"] = 1000.0 * _med([s[END] - s[START] for s in spans])
        if kind != "hop":
            ticks = [s[TICKS] for s in spans]
            out[f"queries.{kind}.iters"] = _med(ticks)
            out[f"queries.{kind}.capped"] = (
                sum(1 for t in ticks if t >= max_iterations) / len(ticks) if ticks else 0.0
            )
    builds = index.named("queries.operator.build", windows, workers)
    out["queries.operator.builds"] = float(len(builds))
    out["queries.operator.build_ms"] = 1000.0 * _med([s[END] - s[START] for s in builds])
    compute = index.named("serving.blueprint.compute", windows, workers)
    out["serving.blueprint.compute_ms"] = 1000.0 * _mean([s[END] - s[START] for s in compute])
    roundtrip = index.named("parallel.lanes.roundtrip", windows)
    out["parallel.lanes.roundtrip_ms"] = 1000.0 * _mean([s[END] - s[START] for s in roundtrip])
    out["parallel.lanes.overhead_ms"] = (
        out["parallel.lanes.roundtrip_ms"] - out["serving.blueprint.compute_ms"]
    )
    return out


def queue_waits(submits: Sequence[tuple], roundtrips: Sequence[tuple]) -> List[float]:
    """Admission-to-lane-submit wait per request, matched FIFO by (node, type).

    *submits* are ``serving.server.submit`` spans (value ``(node, type)``),
    *roundtrips* ``parallel.lanes.roundtrip`` records whose value lists
    the batch's ``(node, type)`` items and whose start is the lane submit.
    """
    lanes: Dict[tuple, deque] = defaultdict(deque)
    for span in sorted(roundtrips, key=lambda s: s[START]):
        for item in span[VALUE] or ():
            lanes[tuple(item)].append(span[START])
    waits = []
    for span in sorted(submits, key=lambda s: s[START]):
        queue = lanes.get(tuple(span[VALUE] or ()))
        while queue and queue[0] < span[START]:
            queue.popleft()  # a batch sent before this admission
        if queue:
            waits.append(queue.popleft() - span[START])
    return waits


def request_links(index: SpanIndex) -> Tuple[Dict[tuple, int], Dict[tuple, int]]:
    """Map wire keys back to generator request indices.

    Client-side encodes run in the request's own task, so their
    ``request`` field is the generator index; from them we learn which
    (codec, message id) and which (message id, node, type) belong to
    which request.  Keys seen on both connections are dropped.
    """
    by_codec: Dict[tuple, int] = {}
    by_query: Dict[tuple, List[int]] = defaultdict(list)
    for span in index.named("serving.protocol.encode"):
        key = span[VALUE]
        if isinstance(span[REQ], int) and key and key[5] == "query":
            by_codec[(key[1], key[2])] = span[REQ]
            by_query[(key[2], key[3], key[4])].append(span[REQ])
    unique = {k: v[0] for k, v in by_query.items() if len(v) == 1}
    return by_codec, unique


def request_of(span, by_codec, by_query) -> Optional[int]:
    req = span[REQ]
    if isinstance(req, int):
        return req
    if isinstance(req, tuple) and req and req[0] == "q":
        return by_query.get(req[1:])
    key = span[VALUE]
    if span[NAME] == "serving.protocol.decode" and key and key[5] == "answer":
        return by_codec.get((key[1], key[2]))
    return None


def serving_metrics(index: SpanIndex, windows: Windows, requests) -> Dict[str, float]:
    """Wire, admission and coverage metrics over the requests in *windows*.

    *requests* are (sent, done) per generator index; ``None`` entries are
    requests outside the windows.  Frame reads (``feed``) are not linked to
    a request: one read can carry several frames.
    """
    n = sum(1 for r in requests if r is not None)
    if n == 0:
        return {}
    by_codec, by_query = request_links(index)
    per_request: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in index.spans:
        if not _within(span, windows) or span[NAME] == "serving.protocol.feed":
            continue
        req = request_of(span, by_codec, by_query)
        if req is not None and req < len(requests) and requests[req] is not None:
            per_request[req].append((span[START], span[END]))
    covered = [
        stats.coverage(r[0], r[1], per_request.get(i, ()))
        for i, r in enumerate(requests)
        if r is not None
    ]
    encode = sum(s[END] - s[START] for name in _ENCODE for s in index.named(name, windows))
    decode = sum(s[END] - s[START] for name in _DECODE for s in index.named(name, windows))
    replies = [
        s[VALUE][6] for s in index.named("serving.protocol.encode", windows)
        if s[VALUE] and s[VALUE][5] == "answer"
    ]
    admits = [index.self_time(s) for s in index.named("serving.tenancy.submit", windows)]
    waits = queue_waits(
        index.named("serving.server.submit", windows),
        index.named("parallel.lanes.roundtrip", windows),
    )
    return {
        "serving.protocol.encode_ms": 1000.0 * encode / n,
        "serving.protocol.decode_ms": 1000.0 * decode / n,
        "serving.protocol.reply_bytes": _mean(replies),
        "serving.tenancy.admit_ms": 1000.0 * _mean(admits),
        "serving.server.queue_ms": 1000.0 * _mean(waits),
        "serving.coverage": _med(covered),
    }


def streaming_metrics(index: SpanIndex, windows: Windows) -> Dict[str, float]:
    ingest = index.named("streaming.ingest", windows)
    if not ingest:
        return {}
    refresh = index.named("streaming.refresh", windows)
    return {
        "streaming.ingest.ms": 1000.0 * _med([s[END] - s[START] for s in ingest]),
        "streaming.refresh.s": _mean([s[END] - s[START] for s in refresh]),
        "streaming.refresh.machines": float(sum(s[VALUE] or 0 for s in refresh)),
        "streaming.delta.materialize_s": sum(
            s[END] - s[START] for s in index.named("streaming.delta.materialize", windows)
        ),
        "streaming.residual.filter_ms": 1000.0 * _mean(
            [s[END] - s[START] for s in index.named("streaming.residual.filter", windows)]
        ),
        "serving.blueprint.export_ms": 1000.0 * _mean(
            [s[END] - s[START] for s in index.named("serving.blueprint.export", windows)]
        ),
    }


def setup_metrics(index: SpanIndex, setups: Windows) -> Dict[str, float]:
    """Median over set-ups of each set-up layer's time in that set-up."""
    def per_setup(name: str) -> List[float]:
        return [sum(s[END] - s[START] for s in index.named(name, [w])) for w in setups]

    datasets = per_setup("graph.datasets")
    louvain = per_setup("partitioning.louvain")
    build = [b - p for b, p in zip(per_setup("distributed.build"), louvain)]
    starts = per_setup("parallel.lanes.start")
    return {
        "graph.datasets.s": _med(datasets),
        "partitioning.louvain.s": _med(louvain),
        "distributed.build.s": _med(build),
        "parallel.lanes.start_s": _med(starts),
    }


def per_layer(
    spans: Iterable[tuple],
    *,
    main_pid: int,
    setups: Windows,
    measure: Windows,
    core_window: Windows,
    requests: Sequence[Optional[Tuple[float, float]]] = (),
    extras: Optional[Dict[str, float]] = None,
    max_iterations: int = 200,
) -> Dict[str, float]:
    """The per-layer metrics of the layers the spans show."""
    index = SpanIndex(spans)
    workers = {s[PID] for s in index.spans if s[PID] != main_pid}
    out = setup_metrics(index, setups)
    out.update(core_metrics(index, core_window))
    if workers:
        out.update(query_metrics(index, measure, workers, max_iterations))
    out.update(serving_metrics(index, measure, requests))
    out.update(streaming_metrics(index, measure))
    out.update(extras or {})
    out["trace.spans"] = float(len(index.spans))
    return out
