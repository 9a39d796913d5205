"""What crosses a lane's pipe: each session and machine generation, once.

A serving lane ships its worker the session (every machine's start
arrays) with the first batch it sends there, and each hot-swapped
generation's arrays with the first batch that names it; later batches
carry only the session token, the generation's version and their items.
These tests record every task the parent writes to a lane's pipe and pin
that, on a server's own lanes and on a shared :class:`TenantHost`
executor alike: after a lane's first batch, a batch for an unswapped
machine pickles small whatever the cluster's size; a generation's arrays
cross each lane at most once, and again to a neighbour lane taking a
hedge copy or a re-spawned worker taking a retry; a hedge copy cancelled
while still queued delivers (and records) nothing; and evicting a tenant
sends each lane only the session token, then drops the session from the
lanes' records.
"""

from __future__ import annotations

import asyncio
import contextlib
import pickle
import time
from collections import Counter

import numpy as np
import pytest

from repro.core import PegasusConfig
from repro.graph import Graph, planted_partition
from repro.parallel import LaneExecutor
from repro.serving import QueryServer, TenantConfig, TenantHost
from repro.serving.blueprint import release_session_task, serve_batch_task
from repro.streaming import StreamingSummarizer

#: A batch task for an unswapped machine, once its lane holds the session.
SMALL_TASK_BYTES = 2_000

MODES = ["server", "tenant-host"]


@pytest.fixture(scope="module")
def split():
    graph = planted_partition(400, 4, avg_degree_in=10.0, avg_degree_out=1.0, seed=4)
    rng = np.random.default_rng(0)
    edges = graph.edge_array()
    order = rng.permutation(edges.shape[0])
    held = edges.shape[0] // 5
    return Graph.from_edges(graph.num_nodes, edges[order[:-held]]), edges[order[-held:]]


def _streaming(split):
    base, _ = split
    return StreamingSummarizer(
        base,
        4,
        0.5 * base.size_in_bits(),
        config=PegasusConfig(seed=5, t_max=4),
        seed=5,
        drift_threshold=1e9,  # residual swaps only
    )


class _PipeLog:
    """Every task the parent writes to any lane's pipe: ``(lane, wire,
    pickled bytes)``, lanes spawned later (re-spawns) included."""

    def __init__(self, monkeypatch):
        self.sent = []
        spawn = LaneExecutor._spawn

        def spawning(executor, **options):
            lane = spawn(executor, **options)
            send = lane.conn.send

            def recording(wire, lane=lane):
                self.sent.append((lane, wire, len(pickle.dumps(wire))))
                send(wire)

            lane.conn.send = recording
            return lane

        monkeypatch.setattr(LaneExecutor, "_spawn", spawning)

    def batches(self):
        return [(lane, wire, size) for lane, wire, size in self.sent if wire[0] is serve_batch_task]

    def arrays_sent(self, lane, slot, version):
        """How many batch tasks carried the arrays of *slot* @ *version* to *lane*."""
        return sum(
            1
            for sent_to, (_, _, task), _ in self.batches()
            if sent_to is lane
            and task.source.slot == slot
            and task.source.version == version
            and task.source.value is not None
        )


@contextlib.asynccontextmanager
async def _serving(mode, cluster, *, hedge_ms=None, chaos=None):
    """One serving session on two lanes: the server's own, or a host's."""
    if mode == "server":
        async with QueryServer(
            cluster, workers=2, hedge_ms=hedge_ms, chaos=chaos, max_wait_ms=0.0
        ) as server:
            yield server
    else:
        async with TenantHost(workers=2, chaos=chaos) as host:
            config = TenantConfig(hedge_ms=hedge_ms, max_wait_ms=0.0)
            yield await host.add_tenant("t", cluster, config=config)


def _sleep(shared, seconds):
    """Lane task: keep a lane busy."""
    time.sleep(seconds)
    return seconds


def _node_of(cluster, machine_id):
    return int(cluster.machines[machine_id].part_nodes[0])


async def _read(server, cluster, machine_id, query_type="rwr"):
    node = _node_of(cluster, machine_id)
    answer = await server.submit(node, query_type)
    assert answer.tobytes() == cluster.answer(node, query_type).tobytes()


def _assert_no_generation_shipped_twice(log):
    for lane in {id(lane): lane for lane, _, _ in log.sent}.values():
        shipped = Counter(
            (task.source.slot, task.source.version)
            for sent_to, (_, _, task), _ in log.batches()
            if sent_to is lane and task.source.value is not None
        )
        assert all(count == 1 for count in shipped.values()), shipped
        sessions = sum(
            1 for sent_to, (_, session, _), _ in log.batches()
            if sent_to is lane and session.value is not None
        )
        assert sessions <= 1


@pytest.mark.parametrize("mode", MODES)
def test_batch_tasks_after_a_lanes_first_are_small(split, monkeypatch, mode):
    log = _PipeLog(monkeypatch)
    streaming = _streaming(split)
    cluster = streaming.cluster

    async def run():
        async with _serving(mode, cluster) as server:
            for _ in range(3):
                for machine_id in range(4):
                    await _read(server, cluster, machine_id)

    asyncio.run(run())
    by_lane = {}
    for lane, (_, session, task), size in log.batches():
        by_lane.setdefault(id(lane), []).append((session, task, size))
    assert len(by_lane) == 2
    for sent in by_lane.values():
        (session, task, size), rest = sent[0], sent[1:]
        assert session.value is not None and size > 10 * SMALL_TASK_BYTES
        assert len(rest) >= 5
        for session, task, size in rest:
            assert session.value is None and task.source.version == 0
            assert size < SMALL_TASK_BYTES


@pytest.mark.parametrize("mode", MODES)
def test_a_generation_crosses_a_lane_once_and_again_for_a_hedge(
    split, monkeypatch, tmp_path, mode
):
    """The hedge copy of a swapped machine's batch carries the arrays to
    the neighbour lane; the primary lane got them once, and later batches
    there carry only the version."""
    _, stream = split
    log = _PipeLog(monkeypatch)
    streaming = _streaming(split)
    cluster = streaming.cluster
    token = tmp_path / "delay.token"
    token.touch()  # armed only after the swap
    chaos = {"hook": "_chaos:delay_machine", "machine": 0, "token": str(token), "delay_s": 0.5}

    async def run():
        async with _serving(mode, cluster, hedge_ms=40.0, chaos=chaos) as server:
            streaming.attach(server)
            try:
                for machine_id in range(4):
                    await _read(server, cluster, machine_id)
                streaming.ingest(stream[:40])
                source = server._blueprint.source(0)
                token.unlink()
                for _ in range(3):
                    await _read(server, cluster, 0)
                streaming.ingest(stream[40:80])
                for machine_id in range(4):
                    await _read(server, cluster, machine_id)
                await asyncio.sleep(0.6)  # the delayed primary replies
                return source, list(server.executor._lanes), server.stats
            finally:
                streaming.detach()

    source, lanes, stats = asyncio.run(run())
    assert stats.hedged >= 1 and stats.hedge_wins >= 1 and stats.failed == 0
    primary, neighbour = lanes
    assert log.arrays_sent(primary, source.slot, source.version) == 1
    assert log.arrays_sent(neighbour, source.slot, source.version) == 1
    _assert_no_generation_shipped_twice(log)


@pytest.mark.parametrize("mode", MODES)
def test_a_retry_onto_a_respawned_worker_is_sent_everything_again(
    split, monkeypatch, tmp_path, mode
):
    _, stream = split
    log = _PipeLog(monkeypatch)
    streaming = _streaming(split)
    cluster = streaming.cluster
    token = tmp_path / "kill.token"
    token.touch()
    chaos = {"hook": "_chaos:kill_worker", "machine": 0, "token": str(token)}

    async def run():
        async with _serving(mode, cluster, chaos=chaos) as server:
            streaming.attach(server)
            try:
                for machine_id in range(4):
                    await _read(server, cluster, machine_id)
                dead = server.executor._lanes[0]
                streaming.ingest(stream[:40])
                source = server._blueprint.source(0)
                token.unlink()
                await _read(server, cluster, 0)
                await _read(server, cluster, 0)
                return dead, server.executor._lanes[0], source, server.stats
            finally:
                streaming.detach()

    dead, respawned, source, stats = asyncio.run(run())
    assert respawned is not dead and stats.redispatches >= 1 and stats.failed == 0
    assert log.arrays_sent(dead, source.slot, source.version) == 1
    assert log.arrays_sent(respawned, source.slot, source.version) == 1
    first = next(wire for lane, wire, _ in log.batches() if lane is respawned)
    assert first[1].value is not None  # the session went to the new worker too
    _assert_no_generation_shipped_twice(log)


@pytest.mark.parametrize("mode", MODES)
def test_a_hedge_copy_cancelled_while_queued_records_nothing(split, monkeypatch, mode):
    """The neighbour lane is busy when the hedge copy reaches it; the
    primary delivers first, so the queued copy is cancelled: it never
    crosses the pipe and the lane's record does not name its generation."""
    _, stream = split
    log = _PipeLog(monkeypatch)
    streaming = _streaming(split)
    cluster = streaming.cluster
    chaos = {"hook": "_chaos:slow_lane", "machine": 0, "delay_s": 0.3}

    async def run():
        async with _serving(mode, cluster, hedge_ms=40.0, chaos=chaos) as server:
            streaming.attach(server)
            try:
                streaming.ingest(stream[:40])
                source = server._blueprint.source(0)
                busy = server.executor.submit(_sleep, 1.0, lane=1)
                await _read(server, cluster, 0)
                await asyncio.wrap_future(busy)
                neighbour = server.executor._lanes[1]
                return source, neighbour, dict(neighbour.holds), server.stats
            finally:
                streaming.detach()

    source, neighbour, holds, stats = asyncio.run(run())
    assert stats.hedged >= 1 and stats.hedge_wins == 0
    assert not any(
        task.source.slot == source.slot
        for lane, (_, _, task), _ in log.batches()
        if lane is neighbour
    )
    assert holds.get(source.slot) != source.version


def test_evict_sends_each_lane_the_token_and_forgets_the_session(split, monkeypatch):
    log = _PipeLog(monkeypatch)
    cluster = _streaming(split).cluster

    async def run():
        async with TenantHost(workers=2) as host:
            server = await host.add_tenant("t", cluster)
            for machine_id in range(4):
                await _read(server, cluster, machine_id)
            token = server._blueprint.token
            await host.evict("t")
            return token, [dict(lane.holds) for lane in host.executor._lanes]

    token, records = asyncio.run(run())
    # Nothing keeps the released session's slots on record.
    assert records == [{}, {}]
    releases = [(wire, size) for _, wire, size in log.sent if wire[0] is release_session_task]
    assert len(releases) == 2
    for (_, shared, task), size in releases:
        assert shared is None and task == token and size < 200
