"""The serving determinism contract: async == synchronous, byte for byte.

Pins the PR-3 guarantees: (a) every answer served by ``QueryServer`` is
byte-identical to ``DistributedCluster.answer(node, query_type)`` for any
arrival interleaving, worker count, batch window, and machine storage
(in RAM or spilled to memory-mapped store files);
(b) duplicate query nodes get one answer per *request* (unlike the
dict-returning batch APIs); (c) admission control bounds memory —
``submit`` backpressures and ``submit_nowait`` sheds load; (d) serving
stays communication-free; (e) the server starts and stops cleanly,
worker-side session caches included.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import PegasusConfig
from repro.distributed import build_subgraph_cluster, build_summary_cluster
from repro.errors import QueryError, ServingError
from repro.graph import planted_partition
from repro.obs import MetricsRegistry, ObsConfig
from repro.serving import QUERY_TYPES, QueryServer, serve_queries
from repro.store import MappedSummary

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


@pytest.fixture(scope="module")
def graph():
    return planted_partition(160, 4, avg_degree_in=8.0, avg_degree_out=1.0, seed=2)


@pytest.fixture(scope="module", params=["ram", "spilled"])
def summary_cluster(request, graph, tmp_path_factory):
    """Machine summaries held in RAM, or spilled to store files that the
    serving workers memory-map themselves."""
    config = PegasusConfig(seed=1, t_max=8)
    spill_dir = tmp_path_factory.mktemp("spill") if request.param == "spilled" else None
    return build_summary_cluster(
        graph, 4, 0.5 * graph.size_in_bits(), config=config, spill_dir=spill_dir
    )


@pytest.fixture(scope="module")
def subgraph_cluster(graph):
    return build_subgraph_cluster(graph, 4, 0.4 * graph.size_in_bits())


def _stream(graph, count=18, seed=5):
    """A deterministic mixed stream with duplicates and all query types."""
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, graph.num_nodes, size=count).tolist()
    nodes[3] = nodes[0]  # guaranteed duplicates, different positions
    if count > 11:
        nodes[11] = nodes[0]
    return [(node, QUERY_TYPES[i % len(QUERY_TYPES)]) for i, node in enumerate(nodes)]


def _assert_byte_identical(cluster, queries, answers):
    assert len(answers) == len(queries)
    for (node, query_type), answer in zip(queries, answers):
        expected = cluster.answer(node, query_type)
        assert answer.dtype == expected.dtype
        assert answer.tobytes() == expected.tobytes(), (node, query_type)


class TestServedAnswerEquivalence:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_summary_cluster_byte_identical(self, summary_cluster, workers):
        queries = _stream(summary_cluster.graph)
        answers = serve_queries(
            summary_cluster, queries, workers=workers, max_batch=4, max_wait_ms=1.0
        )
        _assert_byte_identical(summary_cluster, queries, answers)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_subgraph_cluster_byte_identical(self, subgraph_cluster, workers):
        queries = _stream(subgraph_cluster.graph)
        answers = serve_queries(subgraph_cluster, queries, workers=workers)
        _assert_byte_identical(subgraph_cluster, queries, answers)

    @pytest.mark.parametrize("max_batch,max_wait_ms", [(1, 0.0), (3, 0.0), (64, 25.0)])
    def test_batch_window_never_changes_answers(self, summary_cluster, max_batch, max_wait_ms):
        queries = _stream(summary_cluster.graph, count=12)
        answers = serve_queries(
            summary_cluster, queries, workers=2, max_batch=max_batch, max_wait_ms=max_wait_ms
        )
        _assert_byte_identical(summary_cluster, queries, answers)

    def test_out_of_order_arrivals(self, summary_cluster):
        """Requests submitted in bursts with event-loop yields in between
        (arbitrary interleaving) still each get their own exact answer."""
        queries = _stream(summary_cluster.graph, count=15)

        async def _run():
            async with QueryServer(
                summary_cluster, workers=2, max_batch=5, max_wait_ms=1.0
            ) as server:
                futures = []
                for burst_start in range(0, len(queries), 4):
                    for node, query_type in queries[burst_start : burst_start + 4]:
                        futures.append(server.submit_nowait(node, query_type))
                    await asyncio.sleep(0.003)
                return await asyncio.gather(*futures)

        answers = asyncio.run(_run())
        _assert_byte_identical(summary_cluster, queries, answers)

    def test_communication_free(self, summary_cluster):
        serve_queries(summary_cluster, _stream(summary_cluster.graph, count=9), workers=2)
        summary_cluster.assert_communication_free()


class TestPerRequestSemantics:
    def test_duplicates_get_one_answer_each(self, summary_cluster):
        node = 7
        queries = [(node, "rwr"), (node, "rwr"), (node, "rwr")]
        answers = serve_queries(summary_cluster, queries, workers=1)
        assert len(answers) == 3  # answer_many would collapse these to one
        expected = summary_cluster.answer(node, "rwr")
        for answer in answers:
            assert answer.tobytes() == expected.tobytes()
            assert answer is not expected

    def test_mixed_types_share_one_batch(self, summary_cluster):
        """One machine batch can mix rwr/hop/php; answers stay exact."""
        machine = summary_cluster.machines[0]
        node = int(machine.part_nodes[0])
        queries = [(node, "rwr"), (node, "hop"), (node, "php")]

        async def _run():
            async with QueryServer(
                summary_cluster, workers=2, max_batch=8, max_wait_ms=20.0
            ) as server:
                futures = [server.submit_nowait(n, t) for n, t in queries]
                answers = await asyncio.gather(*futures)
                return answers, server.stats

        answers, stats = asyncio.run(_run())
        assert stats.batches == 1 and stats.max_batch_size == 3
        _assert_byte_identical(summary_cluster, queries, answers)


def _machine_nodes(cluster, machine_id: int = 0):
    return [n for n in range(cluster.graph.num_nodes) if cluster.machine_for(n).machine_id == machine_id]


def _stall(tmp_path, delay_s: float):
    """Chaos spec: the first machine-0 batch sleeps *delay_s* in its lane."""
    return {
        "hook": "_chaos:delay_machine",
        "machine": 0,
        "delay_s": delay_s,
        "token": str(tmp_path / "stall.token"),
    }


class TestWorkConservingDispatch:
    """A batch goes out at once on an idle lane; behind a busy lane it
    waits for the lane's reply, a full batch, or the ``max_wait_ms`` cap."""

    def test_lone_request_on_an_idle_lane_is_answered_promptly(self, summary_cluster):
        async def _run():
            async with QueryServer(summary_cluster, workers=2, max_wait_ms=60_000.0) as server:
                return await asyncio.wait_for(server.submit(3, "rwr"), timeout=10.0)

        answer = asyncio.run(_run())
        assert answer.tobytes() == summary_cluster.answer(3, "rwr").tobytes()

    def test_arrivals_behind_a_busy_lane_go_out_as_one_batch(self, summary_cluster, tmp_path):
        nodes = _machine_nodes(summary_cluster)[:4]
        queries = [(node, "php") for node in nodes]

        async def _run():
            async with QueryServer(
                summary_cluster,
                workers=2,
                max_batch=8,
                max_wait_ms=60_000.0,
                chaos=_stall(tmp_path, 0.4),
            ) as server:
                first = server.submit_nowait(*queries[0])
                await asyncio.sleep(0.05)  # flushed to the idle lane, stalled there
                rest = [server.submit_nowait(n, t) for n, t in queries[1:]]
                await asyncio.sleep(0.1)
                assert server.stats.batches == 1  # parked behind the busy lane
                answers = await asyncio.wait_for(asyncio.gather(first, *rest), 10.0)
                return answers, server.stats

        answers, stats = asyncio.run(_run())
        assert stats.batches == 2 and stats.max_batch_size == 3
        _assert_byte_identical(summary_cluster, queries, answers)

    def test_cap_still_flushes_into_a_busy_lane(self, summary_cluster, tmp_path):
        nodes = _machine_nodes(summary_cluster)[:2]

        async def _run():
            async with QueryServer(
                summary_cluster, workers=2, max_wait_ms=20.0, chaos=_stall(tmp_path, 0.5)
            ) as server:
                first = server.submit_nowait(nodes[0], "rwr")
                await asyncio.sleep(0.05)
                second = server.submit_nowait(nodes[1], "rwr")
                await asyncio.sleep(0.15)
                # The cap fired while the first batch still stalls.
                assert not first.done() and server.stats.batches == 2
                return await asyncio.wait_for(asyncio.gather(first, second), 10.0)

        answers = asyncio.run(_run())
        _assert_byte_identical(summary_cluster, [(n, "rwr") for n in nodes], answers)

    def test_cancelled_hedge_loser_keeps_its_lane_busy_until_it_replies(
        self, summary_cluster, tmp_path
    ):
        nodes = _machine_nodes(summary_cluster)[:2]

        async def _run():
            loop = asyncio.get_running_loop()
            async with QueryServer(
                summary_cluster,
                workers=2,
                hedge_ms=30.0,
                max_wait_ms=60_000.0,
                chaos=_stall(tmp_path, 0.6),
            ) as server:
                start = loop.time()
                # The primary stalls on lane 0; the hedge on lane 1 wins.
                hedged = await asyncio.wait_for(server.submit(nodes[0], "hop"), 10.0)
                assert server.stats.hedge_wins == 1
                assert loop.time() - start < 0.5
                # The cancelled primary still occupies lane 0, so the next
                # machine-0 request waits for its reply, not for the cap.
                follower = server.submit_nowait(nodes[1], "hop")
                await asyncio.sleep(0.1)
                assert server.stats.batches == 1 and not follower.done()
                answer = await asyncio.wait_for(follower, 10.0)
                assert loop.time() - start >= 0.55
                return hedged, answer, server.stats

        hedged, answer, stats = asyncio.run(_run())
        assert stats.batches == 2
        _assert_byte_identical(summary_cluster, [(n, "hop") for n in nodes], [hedged, answer])

    def test_inline_path_groups_a_burst_per_machine(self, summary_cluster):
        queries = [(node, "hop") for node in range(12)]
        machines = {summary_cluster.machine_for(node).machine_id for node, _ in queries}

        async def _run():
            async with QueryServer(summary_cluster, workers=1, max_batch=64) as server:
                answers = await asyncio.gather(*(server.submit(n, t) for n, t in queries))
                return answers, server.stats

        answers, stats = asyncio.run(_run())
        assert stats.batches == len(machines)
        _assert_byte_identical(summary_cluster, queries, answers)


class TestAdmissionControl:
    def test_invalid_inputs_rejected_synchronously(self, summary_cluster):
        async def _run():
            async with QueryServer(summary_cluster) as server:
                with pytest.raises(QueryError):
                    server.submit_nowait(10_000, "rwr")
                with pytest.raises(QueryError):
                    server.submit_nowait(0, "pagerank")

        asyncio.run(_run())

    def test_submit_nowait_sheds_load_when_full(self, summary_cluster):
        async def _run():
            async with QueryServer(summary_cluster, max_pending=2) as server:
                # No awaits between admissions: the dispatcher cannot drain,
                # so the third submission must hit the bound.
                server.submit_nowait(0, "rwr")
                server.submit_nowait(1, "rwr")
                with pytest.raises(ServingError, match="admission queue full"):
                    server.submit_nowait(2, "rwr")
                assert server.stats.rejected == 1

        asyncio.run(_run())

    def test_submit_backpressures_instead_of_failing(self, summary_cluster):
        queries = _stream(summary_cluster.graph, count=12)
        answers = serve_queries(summary_cluster, queries, workers=1, max_pending=1)
        _assert_byte_identical(summary_cluster, queries, answers)

    def test_queue_depth_is_tracked(self, summary_cluster):
        async def _run():
            async with QueryServer(summary_cluster, max_pending=8) as server:
                futures = [server.submit_nowait(i, "hop") for i in range(5)]
                await asyncio.gather(*futures)
                return server.stats

        stats = asyncio.run(_run())
        assert stats.admitted == 5
        assert stats.answered == 5
        assert 1 <= stats.max_queue_depth <= 5


class TestLifecycle:
    def test_stop_rejects_new_submissions(self, summary_cluster):
        async def _run():
            server = QueryServer(summary_cluster)
            await server.start()
            await server.stop()
            assert not server.running
            with pytest.raises(ServingError, match="not accepting"):
                server.submit_nowait(0, "rwr")
            with pytest.raises(ServingError, match="not accepting"):
                await server.submit(0, "rwr")

        asyncio.run(_run())

    def test_double_start_rejected(self, summary_cluster):
        async def _run():
            async with QueryServer(summary_cluster) as server:
                with pytest.raises(ServingError, match="already started"):
                    await server.start()

        asyncio.run(_run())

    def test_restart_after_stop(self, summary_cluster):
        """Each session answers alike and keeps its own ledger, which
        starts from zero with a private registry and a shared one."""
        queries = _stream(summary_cluster.graph, count=6)

        async def _session(server):
            async with server:
                answers = await asyncio.gather(
                    *(server.submit(n, t) for n, t in queries)
                )
            return answers, server.stats

        for obs in (None, ObsConfig(registry=MetricsRegistry())):
            server = QueryServer(summary_cluster, workers=2, obs=obs)
            first, first_stats = asyncio.run(_session(server))
            second, second_stats = asyncio.run(_session(server))
            for a, b in zip(first, second):
                assert a.tobytes() == b.tobytes()
            _assert_byte_identical(summary_cluster, queries, first)
            for stats in (first_stats, second_stats):
                assert stats.admitted == stats.answered == len(queries)
                assert 1 <= stats.max_batch_size <= len(queries)

    def test_stop_drains_pending_work(self, summary_cluster):
        """Everything admitted before stop() is answered, not dropped."""

        async def _run():
            server = QueryServer(summary_cluster, workers=2, max_wait_ms=50.0, max_batch=64)
            await server.start()
            futures = [server.submit_nowait(i, "hop") for i in range(8)]
            await server.stop()  # well before the 50ms window elapses
            return await asyncio.gather(*futures), server.stats

        answers, stats = asyncio.run(_run())
        assert stats.answered == 8
        _assert_byte_identical(
            summary_cluster, [(i, "hop") for i in range(8)], answers
        )

    def test_inline_session_caches_evicted_on_stop(self, summary_cluster):
        """workers=1 answers in the parent process; stopping must evict
        the parent-side session cache, or repeated start/stop cycles leak
        a rebuilt cluster per session."""
        from repro.serving import blueprint

        sessions_before = set(blueprint._SESSIONS)
        for _ in range(3):
            serve_queries(summary_cluster, [(0, "rwr")], workers=1)
        assert set(blueprint._SESSIONS) == sessions_before

    def test_broken_pool_fails_requests_instead_of_hanging(self, summary_cluster):
        """If the pool dies mid-session, pending requests get the error
        delivered to their futures; clients never hang and stop() still
        tears the server down."""

        async def _run():
            server = QueryServer(summary_cluster, workers=2, max_wait_ms=0.0)
            await server.start()
            answer = await server.submit(0, "rwr")
            server._executor.shutdown(wait=True)  # simulate pool death
            with pytest.raises(RuntimeError):
                await server.submit(1, "rwr")
            await server.stop()
            assert not server.running
            return answer

        answer = asyncio.run(_run())
        assert answer.tobytes() == summary_cluster.answer(0, "rwr").tobytes()

    def test_stop_completes_with_crashed_dispatcher_and_full_queue(self, summary_cluster):
        """Regression: stop() used to ``await queue.put(_STOP)`` — with the
        dispatcher dead and the admission queue full, nothing ever drains
        the queue, so teardown deadlocked forever."""

        async def _run():
            server = QueryServer(summary_cluster, max_pending=3, max_wait_ms=0.0)
            await server.start()

            def _boom(*args, **kwargs):
                raise RuntimeError("injected dispatcher crash")

            server._flush = _boom
            doomed = server.submit_nowait(0, "rwr")
            # Let the dispatcher pick the request up and die on the flush.
            for _ in range(50):
                if server._dispatcher.done():
                    break
                await asyncio.sleep(0.005)
            assert server._dispatcher.done(), "dispatcher did not crash"
            # Saturate the admission queue; nobody is draining it now.
            stranded = [server.submit_nowait(i, "rwr") for i in range(1, 4)]
            with pytest.raises(ServingError, match="admission queue full"):
                server.submit_nowait(9, "rwr")
            # The regression: this used to hang forever.
            await asyncio.wait_for(server.stop(), timeout=5.0)
            assert not server.running
            results = await asyncio.gather(
                doomed, *stranded, return_exceptions=True
            )
            assert all(isinstance(r, Exception) for r in results)
            return server.stats

        stats = asyncio.run(_run())
        # Every admitted request was resolved (failed), none left hanging.
        assert stats.admitted == stats.failed == 4

    def test_stats_count_only_real_resolutions(self, summary_cluster):
        """Regression: ``answered`` used to increment even when the client
        had already cancelled the request's future, so the admission
        ledger drifted away from answers actually delivered."""

        async def _run():
            async with QueryServer(
                summary_cluster, workers=1, max_batch=64, max_wait_ms=20.0
            ) as server:
                futures = [server.submit_nowait(i, "hop") for i in range(6)]
                futures[1].cancel()
                futures[4].cancel()
                kept = [f for i, f in enumerate(futures) if i not in (1, 4)]
                answers = await asyncio.gather(*kept)
                return answers, server.stats

        answers, stats = asyncio.run(_run())
        assert len(answers) == 4
        assert stats.admitted == 6
        assert stats.answered == 4  # pre-fix this counted all 6
        assert stats.cancelled == 2
        assert stats.failed == 0
        # The ledger balances: nothing is pending after the drain.
        assert stats.admitted == stats.answered + stats.failed + stats.cancelled

    def test_ledger_balances_mid_session(self, summary_cluster):
        """admitted == answered + failed + cancelled + still-pending holds
        at any instant, not just after a drain."""

        async def _run():
            async with QueryServer(
                summary_cluster, workers=1, max_batch=64, max_wait_ms=50.0
            ) as server:
                futures = [server.submit_nowait(i, "hop") for i in range(5)]
                still_pending = sum(1 for f in futures if not f.done())
                stats = server.stats
                assert stats.admitted == (
                    stats.answered + stats.failed + stats.cancelled + still_pending
                )
                await asyncio.gather(*futures)

        asyncio.run(_run())

    def test_worker_pool_active_and_spilled_machines_ship_paths(self, summary_cluster):
        """With workers > 1 a persistent pool is up, and stopping releases
        it.  Spilled machines ship only their store paths, so the session
        carries no arrays."""
        spilled = all(isinstance(m.source, MappedSummary) for m in summary_cluster.machines)

        async def _probe():
            async with QueryServer(summary_cluster, workers=2) as server:
                assert server._executor.started and not server._executor.inline
                assert (not server._blueprint.payload["arrays"]) == spilled
                return await server.submit(0, "rwr")

        answer = asyncio.run(_probe())
        assert answer.tobytes() == summary_cluster.answer(0, "rwr").tobytes()
