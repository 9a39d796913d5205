"""Request tracing: where did this query's 40 ms go?

A **trace** is one request's journey through the serving stack; a
**span** is one timed segment of it.  Span names used by the serving
tier (see ``docs/architecture.md`` for the lifecycle diagram):

``queue``
    Admission to micro-batch flush (parent process).
``assemble``
    Building the flushed batch job (parent).
``dispatch``
    One batch copy's lane round trip: submit to completion, with
    ``lane``/``hedged``/``attempt``/``outcome`` metadata (parent).
``compute``
    Answering the batch inside the lane worker — recorded with the
    *worker's* pid, which is how a trace proves the work crossed the
    fork boundary (and survived a worker respawn).
``hedge`` / ``redispatch``
    Zero-duration events marking a duplicate or a failover re-send.
``reply``
    Serializing and writing the answer frame (network tier).
``total``
    Ingress to resolution, recorded by :meth:`TraceHandle.finish`.

Trace ids are minted at the edge — :class:`~repro.serving.net.NetServer`
ingress, or ``QueryServer.submit`` for in-process callers — and stay in
the parent: a batch task carries no trace id, and the parent records the
worker's ``compute`` span under each request's id from the batch reply's
``pid`` and ``compute_s``.

Collected spans go to a bounded in-memory ring (cheap, always safe to
leave on) and optionally to a JSONL sink, one span per line.  A
:class:`Tracer` built with ``slow_ms`` also keeps per-trace span lists
while a trace is active and emits a **slow-query log line** — single
line, structured JSON — whenever a finished trace exceeded the
threshold.
"""

from __future__ import annotations

import json
import logging
import os
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List

__all__ = ["Span", "Tracer", "TraceHandle", "new_trace_id"]

#: Structured slow-query log lines go through this logger, one per query.
slow_log = logging.getLogger("repro.obs.slow")

#: Active traces kept for slow-log assembly before force-eviction.
_MAX_ACTIVE_TRACES = 4096


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return uuid.uuid4().hex[:16]


@dataclass
class Span:
    """One timed segment of a trace.  ``pid`` names the recording process."""

    trace_id: str
    name: str
    duration_s: float
    pid: int
    started_at: float  # wall clock (time.time), for ordering across processes
    meta: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "duration_s": self.duration_s,
            "pid": self.pid,
            "started_at": self.started_at,
            **({"meta": self.meta} if self.meta else {}),
        }


class TraceHandle:
    """One live trace: its id, its start instant, and its finisher.

    Minted by :meth:`Tracer.begin` at the ingress edge; whoever minted
    it calls :meth:`finish` exactly once when the request resolves.
    """

    __slots__ = ("tracer", "trace_id", "name", "meta", "_t0", "_finished")

    def __init__(self, tracer: "Tracer", trace_id: str, name: str, meta: Dict[str, Any]):
        self.tracer = tracer
        self.trace_id = trace_id
        self.name = name
        self.meta = meta
        self._t0 = time.perf_counter()
        self._finished = False

    @property
    def elapsed_s(self) -> float:
        return time.perf_counter() - self._t0

    def finish(self, status: str = "ok") -> "Span | None":
        """Record the ``total`` span and run the slow-query check (idempotent)."""
        if self._finished:
            return None
        self._finished = True
        return self.tracer._finish(self, status)


class Tracer:
    """Span collector: bounded ring, optional JSONL sink, slow-query log.

    Parameters
    ----------
    ring:
        How many spans the in-memory ring retains (oldest dropped).
    sink_path:
        Optional path; every span is appended as one JSON line.  The
        file is line-buffered so a crash loses at most the current line.
    slow_ms:
        End-to-end threshold for the slow-query log; ``None`` (default)
        disables it.  A finished trace whose ``total`` exceeds it emits
        one structured line on the ``repro.obs.slow`` logger with the
        trace id and the per-span breakdown.
    """

    def __init__(
        self,
        *,
        ring: int = 2048,
        sink_path: "str | None" = None,
        slow_ms: "float | None" = None,
    ):
        if ring < 1:
            raise ValueError(f"ring must be >= 1, got {ring}")
        if slow_ms is not None and slow_ms < 0:
            raise ValueError(f"slow_ms must be >= 0, got {slow_ms}")
        self._ring: "Deque[Span]" = deque(maxlen=int(ring))
        self._active: "Dict[str, List[Span]]" = {}
        self.slow_ms = slow_ms
        self.slow_queries = 0
        self._sink_path = sink_path
        self._sink = open(sink_path, "a", encoding="utf-8") if sink_path else None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin(self, name: str, **meta: Any) -> TraceHandle:
        """Mint a trace at the ingress edge; finish the handle on resolve."""
        handle = TraceHandle(self, new_trace_id(), name, meta)
        if len(self._active) >= _MAX_ACTIVE_TRACES:
            # Evict the oldest abandoned trace rather than grow without
            # bound (a client that never resolves must not leak memory).
            self._active.pop(next(iter(self._active)))
        self._active[handle.trace_id] = []
        return handle

    def record(
        self,
        trace_id: str,
        name: str,
        duration_s: float,
        *,
        pid: "int | None" = None,
        **meta: Any,
    ) -> Span:
        """Record one span under *trace_id* (works for foreign/worker spans)."""
        span = Span(
            trace_id=trace_id,
            name=name,
            duration_s=float(duration_s),
            pid=int(pid) if pid is not None else os.getpid(),
            started_at=time.time(),
            meta=meta,
        )
        self._ring.append(span)
        active = self._active.get(trace_id)
        if active is not None:
            active.append(span)
        if self._sink is not None:
            self._sink.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")
        return span

    def event(self, trace_id: str, name: str, **meta: Any) -> Span:
        """A zero-duration marker span (hedge fired, redispatch, ...)."""
        return self.record(trace_id, name, 0.0, **meta)

    def _finish(self, handle: TraceHandle, status: str) -> Span:
        total = handle.elapsed_s
        span = self.record(
            handle.trace_id, "total", total, status=status, **handle.meta
        )
        spans = self._active.pop(handle.trace_id, [])
        if self.slow_ms is not None and total * 1000.0 >= self.slow_ms:
            self.slow_queries += 1
            breakdown = [
                {
                    "name": s.name,
                    "ms": round(s.duration_s * 1000.0, 3),
                    "pid": s.pid,
                    **({"meta": s.meta} if s.meta else {}),
                }
                for s in spans
            ]
            slow_log.warning(
                "slow-query %s",
                json.dumps(
                    {
                        "trace_id": handle.trace_id,
                        "name": handle.name,
                        "total_ms": round(total * 1000.0, 3),
                        "threshold_ms": self.slow_ms,
                        "meta": handle.meta,
                        "spans": breakdown,
                    },
                    sort_keys=True,
                ),
            )
        return span

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def spans(self, trace_id: "str | None" = None) -> List[Span]:
        """Ring contents (optionally filtered to one trace), oldest first."""
        if trace_id is None:
            return list(self._ring)
        return [span for span in self._ring if span.trace_id == trace_id]

    def flush(self) -> None:
        """Flush the JSONL sink (no-op without one)."""
        if self._sink is not None:
            self._sink.flush()

    def close(self) -> None:
        """Flush and close the JSONL sink (idempotent)."""
        if self._sink is not None:
            self._sink.flush()
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
