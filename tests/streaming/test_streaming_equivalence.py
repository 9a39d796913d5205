"""The streaming contract: streamed-then-refreshed ≡ from-scratch, always.

Pins the tentpole guarantees of the streaming subsystem:

* **Refresh equivalence** — after refreshing its stale machines at *any*
  stream prefix, under *any* earlier refresh cadence and worker count,
  with or without a durable delta log, the streaming cluster is
  byte-identical to a from-scratch ``build_summary_cluster`` on the
  materialized graph with the same pinned assignment, config, and seed:
  same saved summaries, same machine memory accounting, same answers for
  every query type.
* **Path independence** — interleaving partial refreshes of arbitrary
  machine subsets never changes the final refreshed state.
* **Determinism** — at every prefix (refreshed or residual-corrected),
  answers are identical across runs and worker counts.
* **Hot-swap serving** — a live ``QueryServer`` tracks every swap:
  served answers stay byte-identical to the synchronous
  ``cluster.answer`` path between arbitrary ingests/refreshes, in-flight
  requests are never dropped, and serving stays communication-free.
* **Refresh on the warm lanes** — attached to a pooled server, a refresh
  splits its machines between this process and the server's lanes; the
  split never shows in the summaries, a lane's death hands its share
  back, and reads already on the lane are answered on the way.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal

import numpy as np
import pytest

from repro.core import PegasusConfig
from repro.core.summary_io import save_summary
from repro.distributed import build_summary_cluster
from repro.graph import Graph, planted_partition
from repro.obs import MetricsRegistry, disable_profiling, enable_profiling, samples_for
from repro.serving import QueryServer, TenantHost
from repro.serving.blueprint import serve_batch_task
from repro.store import DeltaLog
from repro.streaming import StreamingSummarizer

QUERY_TYPES = ("rwr", "hop", "php")


def _split(graph, fraction, seed):
    rng = np.random.default_rng(seed)
    edges = graph.edge_array()
    order = rng.permutation(edges.shape[0])
    held_out = max(1, int(round(fraction * edges.shape[0])))
    base = Graph.from_edges(graph.num_nodes, edges[order[:-held_out]])
    return base, edges[order[-held_out:]]


@pytest.fixture(scope="module")
def stream_setup():
    graph = planted_partition(120, 4, avg_degree_in=8.0, avg_degree_out=1.0, seed=2)
    base, stream = _split(graph, 0.25, seed=0)
    return graph, base, stream


def _probe_nodes(graph, count=8, seed=3):
    rng = np.random.default_rng(seed)
    return [int(n) for n in rng.integers(0, graph.num_nodes, size=count)]


def _answers(cluster, nodes):
    return [
        cluster.answer(node, qt).tobytes() for node in nodes for qt in QUERY_TYPES
    ]


def _assert_cluster_equals_reference(streaming, reference, tmp_path, tag):
    for machine, ref_machine in zip(streaming.cluster.machines, reference.machines):
        assert machine.memory_bits == ref_machine.memory_bits
        got, want = tmp_path / f"{tag}_got.txt", tmp_path / f"{tag}_want.txt"
        save_summary(machine.source, got)
        save_summary(ref_machine.source, want)
        assert got.read_bytes() == want.read_bytes(), (
            f"machine {machine.machine_id} summary differs from from-scratch build"
        )
    nodes = _probe_nodes(streaming.cluster.graph)
    assert _answers(streaming.cluster, nodes) == _answers(reference, nodes)


class TestRefreshEquivalence:
    @pytest.mark.parametrize("log", ["volatile", "durable"])
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize(
        "cadence",
        ["every-batch", "drift-auto", "final-only"],
    )
    def test_streamed_then_refreshed_equals_from_scratch(
        self, stream_setup, tmp_path, log, workers, cadence
    ):
        """With a durable delta log, every ingest is also appended to disk
        and every refresh compacts it; neither may change the summaries."""
        _, base, stream = stream_setup
        config = PegasusConfig(seed=1, t_max=5)
        budget = 0.5 * base.size_in_bits()
        log_dir = tmp_path / "log" if log == "durable" else None
        streaming = StreamingSummarizer(
            base,
            3,
            budget,
            config=config,
            seed=1,
            workers=workers,
            drift_threshold=0.0 if cadence == "every-batch" else 0.05,
            log_dir=log_dir,
        )
        mode = "none" if cadence == "final-only" else "auto"
        for lo in range(0, stream.shape[0], 40):
            streaming.ingest(stream[lo : lo + 40], refresh=mode)
        streaming.refresh()  # bring every machine to the final prefix
        reference = build_summary_cluster(
            streaming.delta.materialize(),
            3,
            budget,
            assignment=streaming.assignment,
            config=config,
            workers=1,
        )
        _assert_cluster_equals_reference(streaming, reference, tmp_path, cadence)
        streaming.cluster.assert_communication_free()
        if log_dir is not None:
            recovered, _ = DeltaLog.recover(log_dir)
            assert recovered.materialize() == streaming.delta.materialize()

    def test_equivalence_at_every_prefix_with_zero_threshold(
        self, stream_setup, tmp_path
    ):
        """drift_threshold=0: after every ingest the cluster *is* the
        from-scratch cluster on that prefix's materialized graph."""
        _, base, stream = stream_setup
        config = PegasusConfig(seed=4, t_max=4)
        budget = 0.5 * base.size_in_bits()
        streaming = StreamingSummarizer(
            base, 2, budget, config=config, seed=4, drift_threshold=0.0
        )
        for index, lo in enumerate(range(0, stream.shape[0], 60)):
            streaming.ingest(stream[lo : lo + 60])
            reference = build_summary_cluster(
                streaming.delta.materialize(),
                2,
                budget,
                assignment=streaming.assignment,
                config=config,
            )
            _assert_cluster_equals_reference(
                streaming, reference, tmp_path, f"prefix{index}"
            )

    def test_partial_refresh_order_is_path_independent(self, stream_setup, tmp_path):
        """Refreshing arbitrary machine subsets mid-stream never changes
        the final refreshed state."""
        _, base, stream = stream_setup
        config = PegasusConfig(seed=7, t_max=5)
        budget = 0.5 * base.size_in_bits()
        chunks = np.array_split(stream, 3)

        scrambled = StreamingSummarizer(
            base, 3, budget, config=config, seed=7, drift_threshold=1e9
        )
        scrambled.ingest(chunks[0], refresh="none")
        scrambled.refresh([0])
        scrambled.ingest(chunks[1], refresh="none")
        scrambled.refresh([2, 1])
        scrambled.ingest(chunks[2], refresh="none")
        scrambled.refresh([1])
        scrambled.refresh()

        direct = StreamingSummarizer(
            base, 3, budget, config=config, seed=7, drift_threshold=1e9
        )
        for chunk in chunks:
            direct.ingest(chunk, refresh="none")
        direct.refresh()

        nodes = _probe_nodes(base)
        assert _answers(scrambled.cluster, nodes) == _answers(direct.cluster, nodes)
        reference = build_summary_cluster(
            direct.delta.materialize(),
            3,
            budget,
            assignment=direct.assignment,
            config=config,
        )
        _assert_cluster_equals_reference(scrambled, reference, tmp_path, "scrambled")


class TestDeterminism:
    def test_residual_answers_identical_across_runs_and_workers(self, stream_setup):
        """Between refreshes (the residual-corrected regime) answers are a
        pure function of the stream prefix: same bytes at any worker
        count, twice in a row."""
        _, base, stream = stream_setup
        config = PegasusConfig(seed=5, t_max=4)
        budget = 0.5 * base.size_in_bits()
        nodes = _probe_nodes(base, count=5)

        def run(workers):
            streaming = StreamingSummarizer(
                base, 2, budget, config=config, seed=5,
                workers=workers, drift_threshold=0.08,
            )
            trace = []
            for lo in range(0, stream.shape[0], 50):
                streaming.ingest(stream[lo : lo + 50])
                trace.append(_answers(streaming.cluster, nodes))
            return trace

        first = run(1)
        again = run(1)
        parallel = run(4)
        assert first == again
        assert first == parallel


class TestHotSwapServing:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_served_answers_track_swaps_byte_identically(self, stream_setup, workers):
        """Queries served between arbitrary ingest/refresh points match
        the synchronous cluster.answer path, request for request."""
        _, base, stream = stream_setup
        config = PegasusConfig(seed=8, t_max=4)
        budget = 0.5 * base.size_in_bits()
        streaming = StreamingSummarizer(
            base, 3, budget, config=config, seed=8, drift_threshold=0.05
        )
        nodes = _probe_nodes(base, count=4)
        chunks = np.array_split(stream, 3)

        async def run():
            async with QueryServer(
                streaming.cluster,
                workers=workers,
                max_batch=4,
                max_wait_ms=1.0,
            ) as server:
                streaming.attach(server)
                try:
                    for chunk in chunks:
                        served = await asyncio.gather(
                            *(
                                server.submit(node, qt)
                                for node in nodes
                                for qt in QUERY_TYPES
                            )
                        )
                        expected = [
                            streaming.cluster.answer(node, qt)
                            for node in nodes
                            for qt in QUERY_TYPES
                        ]
                        for got, want in zip(served, expected):
                            assert got.tobytes() == want.tobytes()
                        streaming.ingest(chunk)
                    # Post-stream: served answers reflect the final swaps.
                    served = await asyncio.gather(
                        *(server.submit(node, "rwr") for node in nodes)
                    )
                    for node, got in zip(nodes, served):
                        assert (
                            got.tobytes()
                            == streaming.cluster.answer(node, "rwr").tobytes()
                        )
                    return server.stats
                finally:
                    streaming.detach()

        stats = asyncio.run(run())
        assert stats.swaps > 0, "the stream never hot-swapped a machine"
        assert stats.failed == 0 and stats.cancelled == 0
        assert stats.admitted == stats.answered
        streaming.cluster.assert_communication_free()

    def test_inflight_requests_survive_a_swap(self, stream_setup):
        """Requests admitted before a swap complete with valid answers —
        nothing is dropped or errored by the hot swap."""
        _, base, stream = stream_setup
        config = PegasusConfig(seed=9, t_max=4)
        budget = 0.5 * base.size_in_bits()
        streaming = StreamingSummarizer(
            base, 2, budget, config=config, seed=9, drift_threshold=0.0
        )
        nodes = _probe_nodes(base, count=6)

        async def run():
            async with QueryServer(
                streaming.cluster, workers=2, max_batch=64, max_wait_ms=30.0
            ) as server:
                streaming.attach(server)
                try:
                    # Admitted but still batching when the swap lands.
                    futures = [server.submit_nowait(node, "hop") for node in nodes]
                    streaming.ingest(stream[:50])
                    answers = await asyncio.gather(*futures)
                    return answers, server.stats
                finally:
                    streaming.detach()

        answers, stats = asyncio.run(run())
        assert len(answers) == len(nodes)
        assert stats.failed == 0
        for answer in answers:
            assert isinstance(answer, np.ndarray) and answer.size == base.num_nodes

    @pytest.mark.parametrize("host", ["server", "tenant-host"])
    def test_worker_holdings_stay_bounded_across_a_long_swap_stream(
        self, stream_setup, host
    ):
        """Over 100+ residual swaps with reads between, each lane worker
        keeps at most one source generation per machine of the session:
        superseded generations are dropped, not accumulated."""
        _, base, stream = stream_setup
        config = PegasusConfig(seed=11, t_max=4)
        budget = 0.5 * base.size_in_bits()
        streaming = StreamingSummarizer(
            base, 4, budget, config=config, seed=11, drift_threshold=1e9
        )
        nodes = [int(machine.part_nodes[0]) for machine in streaming.cluster.machines]

        async def run():
            async with contextlib.AsyncExitStack() as stack:
                if host == "server":
                    server = await stack.enter_async_context(
                        QueryServer(streaming.cluster, workers=2)
                    )
                else:
                    tenants = await stack.enter_async_context(TenantHost(workers=2))
                    server = await tenants.add_tenant("stream", streaming.cluster)
                streaming.attach(server)
                try:
                    for chunk in np.array_split(stream, 30):
                        streaming.ingest(chunk)
                        served = await asyncio.gather(
                            *(server.submit(node, "hop") for node in nodes)
                        )
                        for node, answer in zip(nodes, served):
                            want = streaming.cluster.answer(node, "hop")
                            assert answer.tobytes() == want.tobytes()
                    executor = server.executor
                    holdings = [
                        await asyncio.wrap_future(
                            executor.submit(_held, server._blueprint.token, lane=lane)
                        )
                        for lane in range(executor.lanes)
                    ]
                    return holdings, server.stats.swaps
                finally:
                    streaming.detach()

        holdings, swaps = asyncio.run(run())
        assert swaps >= 100
        for versions, built in holdings:
            # Two lanes, machine m on lane m % 2: two machines each.
            assert len(versions) == 2 and all(v > 0 for v in versions.values())
            assert built <= streaming.num_machines

    def test_sessions_released_after_swapped_serving(self, stream_setup):
        """Hot-swapped serving must not leak parent-side sessions across
        server lifecycles."""
        from repro.serving import blueprint

        _, base, stream = stream_setup
        config = PegasusConfig(seed=10, t_max=4)
        budget = 0.5 * base.size_in_bits()
        streaming = StreamingSummarizer(
            base, 2, budget, config=config, seed=10, drift_threshold=0.0
        )
        sessions_before = set(blueprint._SESSIONS)

        async def run():
            async with QueryServer(streaming.cluster, workers=1) as server:
                streaming.attach(server)
                try:
                    await server.submit(0, "rwr")
                    streaming.ingest(stream[:40])
                    await server.submit(0, "rwr")
                finally:
                    streaming.detach()

        for _ in range(2):
            asyncio.run(run())
        assert set(blueprint._SESSIONS) == sessions_before


def _held(shared, token):
    """Lane task: the source generation this worker holds per machine of
    the session, and how many worker-rebuilt machines are alive (routing
    stays in the parent, so a rebuilt machine has no part nodes)."""
    import gc

    from repro.distributed.cluster import Machine
    from repro.serving import blueprint

    session = blueprint._SESSIONS[token]
    gc.collect()
    built = sum(
        1
        for value in gc.get_objects()
        if isinstance(value, Machine) and value.part_nodes.size == 0
    )
    return {machine_id: cached[0] for machine_id, cached in session._machines.items()}, built


def _usable_cpus(monkeypatch, count):
    """Pin the CPU count the refresh split sees (its affinity mask)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _lane_tasks(monkeypatch, executor):
    """Record the task function of every submit to *executor*."""
    sent = []
    submit = executor.submit

    def spy(fn, task, **kwargs):
        sent.append(fn)
        return submit(fn, task, **kwargs)

    monkeypatch.setattr(executor, "submit", spy)
    return sent


def _reference(streaming, budget, config):
    return build_summary_cluster(
        streaming.delta.materialize(),
        streaming.num_machines,
        budget,
        assignment=streaming.assignment,
        config=config,
    )


def _ledger_balances(stats):
    return stats.admitted == stats.answered + stats.failed + stats.cancelled + stats.shed


class TestRefreshOnWarmLanes:
    """Refreshes attached to a pooled server: the parent computes the
    first share, lanes ``0 .. k-1`` one share each, where ``k = min(lanes,
    usable CPUs - 1, machines - 1)``."""

    @pytest.mark.parametrize("host", ["server", "tenant-host"])
    def test_every_refresh_equals_from_scratch(self, stream_setup, tmp_path, monkeypatch, host):
        _, base, stream = stream_setup
        _usable_cpus(monkeypatch, 2)
        config = PegasusConfig(seed=12, t_max=4)
        budget = 0.5 * base.size_in_bits()
        streaming = StreamingSummarizer(
            base, 4, budget, config=config, seed=12, drift_threshold=0.0
        )
        chunks = np.array_split(stream, 4)

        async def run():
            async with contextlib.AsyncExitStack() as stack:
                if host == "server":
                    server = await stack.enter_async_context(
                        QueryServer(streaming.cluster, workers=2)
                    )
                else:
                    tenants = await stack.enter_async_context(TenantHost(workers=2))
                    await tenants.add_tenant("stream", streaming.cluster)
                    server = tenants.server("stream")
                streaming.attach(server)
                try:
                    for index, chunk in enumerate(chunks[:-1]):
                        report = streaming.ingest(chunk)
                        assert report.refreshed == [0, 1, 2, 3]
                        _assert_cluster_equals_reference(
                            streaming, _reference(streaming, budget, config), tmp_path, f"p{index}"
                        )
                    streaming.ingest(chunks[-1], refresh="none")
                    report = streaming.refresh()
                    nodes = _probe_nodes(base, count=4)
                    served = await asyncio.gather(
                        *(server.submit(node, qt) for node in nodes for qt in QUERY_TYPES)
                    )
                    return report, [answer.tobytes() for answer in served], server.stats
                finally:
                    streaming.detach()

        report, served, stats = asyncio.run(run())
        # Two CPUs: one lane takes the second half of the machines.
        assert report.machine_ids == [0, 1, 2, 3]
        assert report.on_lanes == [2, 3]
        reference = _reference(streaming, budget, config)
        _assert_cluster_equals_reference(streaming, reference, tmp_path, "final")
        assert served == _answers(reference, _probe_nodes(base, count=4))
        assert stats.failed == 0 and _ledger_balances(stats)

    def test_three_cpus_use_both_lanes_and_count_where(self, stream_setup, tmp_path, monkeypatch):
        _, base, stream = stream_setup
        _usable_cpus(monkeypatch, 3)
        config = PegasusConfig(seed=13, t_max=4)
        budget = 0.5 * base.size_in_bits()
        streaming = StreamingSummarizer(
            base, 4, budget, config=config, seed=13, drift_threshold=1e9
        )
        registry = MetricsRegistry()

        async def run():
            async with QueryServer(streaming.cluster, workers=2) as server:
                streaming.attach(server)
                try:
                    streaming.ingest(stream[:60], refresh="none")
                    enable_profiling(registry)
                    try:
                        return streaming.refresh()
                    finally:
                        disable_profiling()
                finally:
                    streaming.detach()

        report = asyncio.run(run())
        # Shares [0, 1] | [2] | [3]: the parent and both lanes.
        assert report.on_lanes == [2, 3]
        counted = {
            sample["labels"]["where"]: sample["value"]
            for sample in samples_for(registry.snapshot(), "repro_stream_refresh_machines_total")
        }
        assert counted == {"parent": 2.0, "lane": 2.0}
        _assert_cluster_equals_reference(
            streaming, _reference(streaming, budget, config), tmp_path, "three"
        )

    @pytest.mark.parametrize("case", ["one-cpu", "one-machine"])
    def test_no_lane_task_without_a_split(self, stream_setup, tmp_path, monkeypatch, case):
        _, base, stream = stream_setup
        _usable_cpus(monkeypatch, 1 if case == "one-cpu" else 2)
        config = PegasusConfig(seed=14, t_max=4)
        budget = 0.5 * base.size_in_bits()
        streaming = StreamingSummarizer(
            base, 3, budget, config=config, seed=14, drift_threshold=1e9
        )

        async def run():
            async with QueryServer(streaming.cluster, workers=2) as server:
                streaming.attach(server)
                sent = _lane_tasks(monkeypatch, server.executor)
                try:
                    streaming.ingest(stream, refresh="none")
                    report = streaming.refresh(None if case == "one-cpu" else [1])
                    answer = await server.submit(0, "rwr")
                    return report, sent, answer
                finally:
                    streaming.detach()

        report, sent, answer = asyncio.run(run())
        assert report.on_lanes == []
        assert sent and set(sent) == {serve_batch_task}  # reads only
        assert answer.tobytes() == streaming.cluster.answer(0, "rwr").tobytes()
        if case == "one-cpu":
            _assert_cluster_equals_reference(
                streaming, _reference(streaming, budget, config), tmp_path, case
            )

    def test_lane_killed_holding_its_share_hands_it_back(
        self, stream_setup, tmp_path, monkeypatch
    ):
        """SIGKILL the refresh lane's worker once it holds its share: the
        parent computes that share too, the lane re-spawns for the next
        read, and serving never notices."""
        import repro.streaming.summarizer as summarizer_module

        _, base, stream = stream_setup
        _usable_cpus(monkeypatch, 2)
        config = PegasusConfig(seed=15, t_max=4)
        budget = 0.5 * base.size_in_bits()
        streaming = StreamingSummarizer(
            base, 4, budget, config=config, seed=15, drift_threshold=1e9
        )
        nodes = [int(machine.part_nodes[0]) for machine in streaming.cluster.machines]

        async def run():
            async with QueryServer(streaming.cluster, workers=2) as server:
                streaming.attach(server)
                try:
                    await asyncio.gather(*(server.submit(node, "hop") for node in nodes))
                    victim = server.executor.lane_pids()[0][0]
                    built = []
                    task_fn = summarizer_module._summary_machine_task

                    def parent_task(shared, task):
                        # The lane task went out before the parent's own
                        # share, so the worker holds it now.
                        if not built:
                            os.kill(victim, signal.SIGKILL)
                        built.append(task[0])
                        return task_fn(shared, task)

                    monkeypatch.setattr(summarizer_module, "_summary_machine_task", parent_task)
                    streaming.ingest(stream, refresh="none")
                    report = streaming.refresh()
                    served = await asyncio.gather(
                        *(server.submit(node, qt) for node in nodes for qt in QUERY_TYPES)
                    )
                    expected = [
                        streaming.cluster.answer(node, qt).tobytes()
                        for node in nodes
                        for qt in QUERY_TYPES
                    ]
                    assert [answer.tobytes() for answer in served] == expected
                    assert all(server.executor.lane_health())
                    assert server.executor.lane_pids()[0][0] != victim
                    return report, built, server.executor.respawns, server.stats
                finally:
                    streaming.detach()

        report, built, respawns, stats = asyncio.run(run())
        assert report.machine_ids == [0, 1, 2, 3]
        assert report.on_lanes == []
        assert built == [0, 1, 2, 3]  # the lane's share, handed back
        assert respawns == 1
        assert stats.failed == 0 and stats.redispatches == 0
        assert _ledger_balances(stats) and stats.admitted == stats.answered
        _assert_cluster_equals_reference(
            streaming, _reference(streaming, budget, config), tmp_path, "killed"
        )

    def test_read_in_the_lane_pipe_is_answered_during_the_refresh(
        self, stream_setup, tmp_path, monkeypatch
    ):
        """A read batch already in the refresh lane's pipe when the
        refresh starts: the parent reads its reply while it waits for the
        lane's share, and the answer is the one from the generation the
        batch was flushed against."""
        _, base, stream = stream_setup
        _usable_cpus(monkeypatch, 2)
        config = PegasusConfig(seed=16, t_max=4)
        budget = 0.5 * base.size_in_bits()
        streaming = StreamingSummarizer(
            base, 4, budget, config=config, seed=16, drift_threshold=1e9
        )
        node = int(streaming.cluster.machines[0].part_nodes[0])  # machine 0 → lane 0
        slow = {"hook": "repro.serving.blueprint:chaos_delay", "machine": 0, "delay_s": 0.2}

        async def run():
            async with QueryServer(streaming.cluster, workers=2, chaos=slow) as server:
                streaming.attach(server)
                try:
                    before = streaming.cluster.answer(node, "rwr").tobytes()
                    pending = server.submit_nowait(node, "rwr")

                    async def flushed():
                        while not server._busy:
                            await asyncio.sleep(0)

                    await asyncio.wait_for(flushed(), 10.0)
                    assert server._busy == {0: 1}  # the batch is in lane 0's pipe
                    streaming.ingest(stream, refresh="none")
                    report = streaming.refresh()
                    # Resolved on lane 0 inside the refresh, before the
                    # event loop ran again.
                    assert server._busy == {}
                    answered = (await pending).tobytes()
                    after = (await server.submit(node, "rwr")).tobytes()
                    return report, before, answered, after, server.stats
                finally:
                    streaming.detach()

        report, before, answered, after, stats = asyncio.run(run())
        assert report.on_lanes == [2, 3]
        assert answered == before
        assert after == streaming.cluster.answer(node, "rwr").tobytes()
        assert stats.failed == 0 and _ledger_balances(stats)
        _assert_cluster_equals_reference(
            streaming, _reference(streaming, budget, config), tmp_path, "pipe"
        )
