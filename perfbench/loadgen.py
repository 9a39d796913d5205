"""Open-loop load over pipelined ``NetClient`` connections.

One generator coroutine walks a precomputed schedule of due times and
never waits for replies: each query is sent as its own task (round-robin
over the connections), so a slow server faces a growing queue instead of
a slower client.  Latency is timed from the due time, and the send time
is kept so the generator's own lateness can be reported.  Schedule
entries of kind ``"call"`` run a blocking callable on the event loop
(the streaming workload's ingest), exactly where a serving process would
run it.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Sequence, Tuple

import tracing

_perf = time.perf_counter


def digest(array) -> bytes:
    return hashlib.blake2b(array.tobytes(), digest_size=16).digest()


@dataclass
class Outcome:
    """What happened to one scheduled query."""

    node: int
    query_type: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    digest: bytes = b""
    error: str = ""


@dataclass
class CallTiming:
    start: float
    end: float
    result: Any = None


@dataclass
class Drive:
    queries: List[Outcome] = field(default_factory=list)
    calls: List[CallTiming] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for q in self.queries if q.error)


#: A schedule entry: (offset seconds, "query", (node, query_type)) or
#: (offset seconds, "call", zero-argument callable).
Event = Tuple[float, str, Any]


async def drive(
    clients: Sequence[Any],
    tenant: str,
    events: Sequence[Event],
    *,
    first_index: int = 0,
    lead_s: float = 0.05,
) -> Drive:
    """Run *events* open-loop, starting *lead_s* from now.

    Query ``k`` of this drive runs with request id ``first_index + k``
    (the key its spans carry in a traced run).
    """
    out = Drive()
    tasks: List[asyncio.Task] = []
    origin = _perf() + lead_s
    sent = 0
    for offset, kind, payload in events:
        due = origin + offset
        delay = due - _perf()
        if delay > 0:
            await asyncio.sleep(delay)
        if kind == "call":
            start = _perf()
            result = payload()
            out.calls.append(CallTiming(start, _perf(), result))
            continue
        node, query_type = payload
        outcome = Outcome(int(node), query_type, due)
        out.queries.append(outcome)
        client = clients[sent % len(clients)]
        tasks.append(asyncio.create_task(_one(client, tenant, outcome, first_index + sent)))
        sent += 1
    if tasks:
        await asyncio.gather(*tasks)
    return out


async def _one(client, tenant: str, outcome: Outcome, index: int) -> None:
    tracing.REQUEST.set(index)
    outcome.sent = _perf()
    try:
        answer = await client.query(tenant, outcome.node, outcome.query_type)
    except Exception as error:  # every failure is counted, none may stop the run
        outcome.done = _perf()
        outcome.error = f"{type(error).__name__}: {error}"
        return
    outcome.done = _perf()
    outcome.digest = digest(answer)


def poisson_schedule(rng, rate: float, count: int, offset: float = 0.0) -> List[float]:
    """*count* Poisson arrival offsets at *rate* per second after *offset*."""
    gaps = rng.exponential(1.0 / rate, size=count)
    return [offset + float(t) for t in gaps.cumsum()]


def query_events(rng, offsets: Sequence[float], num_nodes: int, query_types) -> List[Event]:
    """Uniform nodes, query types in equal thirds (shuffled), at *offsets*."""
    count = len(offsets)
    nodes = rng.integers(0, num_nodes, size=count)
    kinds = [query_types[i % len(query_types)] for i in range(count)]
    order = rng.permutation(count)
    return [
        (offset, "query", (int(nodes[i]), kinds[order[i]]))
        for i, offset in enumerate(offsets)
    ]


def call_events(offsets: Sequence[float], calls: Sequence[Callable[[], Any]]) -> List[Event]:
    return [(offset, "call", fn) for offset, fn in zip(offsets, calls)]
