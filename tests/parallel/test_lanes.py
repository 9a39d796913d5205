"""Unit coverage for the sticky-affinity lane executor.

The serving tiers above (`TenantHost`, `QueryServer` failover) treat
`LaneExecutor` as a primitive; this suite pins the primitive itself:
placement arithmetic, inline equivalence, lifecycle rules, lanes that
heal on their own EOF (with no fork loop and nothing re-spawned at
shutdown), the pipe lanes' invariants (no parent thread, one task in a
pipe, death fails every future of the lane, workers never outlive their
parent), and parcels crossing a lane's pipe once per worker.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from pathlib import Path
from typing import NamedTuple

import pytest
from concurrent.futures.process import BrokenProcessPool

from _chaos import surviving
from repro.parallel import LaneExecutor, Parcel

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _echo_pid(shared, task):
    return os.getpid(), shared, task


def _boom(shared, task):
    raise ValueError(f"boom:{task}")


def _sleep(shared, seconds):
    time.sleep(seconds)
    return seconds


def _blob(shared, size):
    return b"x" * size


def _lock(shared, task):
    return threading.Lock()


def _received(shared, task):
    """What arrived: the data of the shared parcel and of the task's."""
    return getattr(shared, "value", None), getattr(getattr(task, "parcel", None), "value", None)


def _refuse(shared, task):
    raise LookupError("the task failed after its parcels arrived")


class _Task(NamedTuple):
    name: str
    parcel: Parcel


async def _until(predicate, timeout_s: float = 10.0) -> None:
    """Let the running loop work until *predicate* holds."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        await asyncio.sleep(0.005)


class TestLifecycle:
    def test_submit_before_start_raises(self):
        executor = LaneExecutor(1)
        with pytest.raises(RuntimeError, match="not started"):
            executor.submit(_echo_pid, 1)

    def test_double_start_raises_and_shutdown_is_idempotent(self):
        executor = LaneExecutor(1).start()
        with pytest.raises(RuntimeError, match="already started"):
            executor.start()
        executor.shutdown()
        executor.shutdown()
        assert not executor.started

    def test_context_manager_round_trip(self):
        with LaneExecutor(1) as executor:
            assert executor.started and executor.inline
        assert not executor.started


class TestInlinePath:
    def test_inline_resolves_immediately(self):
        with LaneExecutor(1) as executor:
            future = executor.submit(_echo_pid, "task", shared={"k": 7})
            assert future.done()
            pid, shared, task = future.result()
            assert pid == os.getpid()
            assert shared == {"k": 7} and task == "task"

    def test_inline_parcels_arrive_whole(self):
        parcel = Parcel("s", 1, "data")
        with LaneExecutor(1) as executor:
            for _ in range(2):
                assert executor.submit(_received, None, shared=parcel).result() == ("data", None)

    def test_inline_exceptions_mirror_into_the_future(self):
        with LaneExecutor(1) as executor:
            future = executor.submit(_boom, 3)
            assert future.done()
            with pytest.raises(ValueError, match="boom:3"):
                future.result()

    def test_inline_shape_properties(self):
        with LaneExecutor(None) as executor:
            assert executor.inline and executor.lanes == 1
            assert executor.lane_pids() == []


class TestPlacement:
    def test_sticky_lanes_are_distinct_processes_and_lane_wraps(self):
        with LaneExecutor(2) as executor:
            pid_a = executor.submit(_echo_pid, 0, lane=0).result(timeout=30)[0]
            pid_b = executor.submit(_echo_pid, 0, lane=1).result(timeout=30)[0]
            assert pid_a != pid_b
            # Same lane again -> same worker (the affinity contract)...
            assert executor.submit(_echo_pid, 0, lane=0).result(timeout=30)[0] == pid_a
            # ...and lane keys wrap modulo the lane count.
            assert executor.submit(_echo_pid, 0, lane=2).result(timeout=30)[0] == pid_a
            assert [len(lane) for lane in executor.lane_pids()] == [1, 1]

    def test_worker_exceptions_do_not_break_the_lane(self):
        with LaneExecutor(2) as executor:
            with pytest.raises(ValueError, match="boom:1"):
                executor.submit(_boom, 1, lane=0).result(timeout=30)
            assert executor.submit(_echo_pid, 2, lane=0).result(timeout=30)[2] == 2
            assert executor.respawns == 0


class TestDeathAndRespawn:
    def test_sigkilled_lane_is_respawned_on_next_submit(self):
        parcel = Parcel("session", 0, "payload")
        with LaneExecutor(2) as executor:
            victim = executor.submit(_echo_pid, 0, lane=0, shared=parcel).result(timeout=30)[0]
            os.kill(victim, signal.SIGKILL)
            # The in-flight-free lane heals transparently, and the fresh
            # worker is sent the parcel's data again.
            done = False
            for _ in range(3):
                try:
                    pid, shared, _ = executor.submit(
                        _echo_pid, 0, lane=0, shared=parcel
                    ).result(timeout=30)
                    done = True
                    break
                except BrokenProcessPool:
                    continue  # death surfaced mid-submit; caller retries
            assert done
            assert pid != victim and shared == parcel
            assert executor.respawns >= 1
            # The other lane never noticed.
            assert executor.submit(_echo_pid, 9, lane=1).result(timeout=30)[2] == 9

    def test_submit_from_a_failing_future_lands_on_the_replacement(self):
        """A SIGKILLed worker's EOF installs the replacement before it
        fails the old futures, so a done callback that submits to the same
        lane at once lands there, not on a second worker nobody tracks."""
        before = {child.pid for child in multiprocessing.active_children()}
        with LaneExecutor(2) as executor:
            victim = executor.lane_pids()[0][0]
            running = executor.submit(_sleep, 30.0, lane=0)
            resubmitted = []
            running.add_done_callback(
                lambda _f: resubmitted.append(executor.submit(_echo_pid, 4, lane=0))
            )
            os.kill(victim, signal.SIGKILL)
            with pytest.raises(BrokenProcessPool):
                running.result(timeout=30)
            assert executor.respawns == 1
            pid, _, task = resubmitted[0].result(timeout=30)
            assert task == 4 and pid == executor.lane_pids()[0][0] != victim
            children = {child.pid for child in multiprocessing.active_children()} - before
            assert children == {pids[0] for pids in executor.lane_pids()}

    def test_inline_executor_never_respawns(self):
        async def _run():
            with LaneExecutor(1) as executor:
                with pytest.raises(ValueError, match="boom:0"):
                    executor.submit(_boom, 0).result()
                assert executor.submit(_echo_pid, 1).result()[2] == 1
                await asyncio.sleep(0.01)
                assert executor.lane_health() == [True]
                assert executor.lane_pids() == [] and executor.respawns == 0

        asyncio.run(_run())


class TestHealingOnEof:
    """Inside a running loop a lane's EOF is the one signal that heals it."""

    def test_idle_death_heals_without_traffic(self):
        async def _run():
            with LaneExecutor(2) as executor:
                victim = executor.lane_pids()[0][0]
                os.kill(victim, signal.SIGKILL)
                os.waitpid(victim, 0)  # reaped here, its EOF still heals the lane
                await _until(lambda: executor.respawns == 1)
                healed = executor.lane_pids()[0][0]
                assert healed != victim and executor.lane_health() == [True, True]
                pid, _, task = await asyncio.wrap_future(executor.submit(_echo_pid, 7, lane=0))
                assert (pid, task) == (healed, 7) and executor.respawns == 1
            return victim

        victim = asyncio.run(_run())
        assert victim not in {child.pid for child in multiprocessing.active_children()}

    def test_replacement_dead_before_its_first_reply_waits_for_a_submit(self):
        """No fork loop: a healed-in worker that dies before it ever
        replied is left dead until a submit needs its lane."""

        async def _run():
            with LaneExecutor(2) as executor:
                os.kill(executor.lane_pids()[0][0], signal.SIGKILL)
                await _until(lambda: executor.respawns == 1)
                lane = executor._lanes[0]
                os.kill(lane.process.pid, signal.SIGKILL)
                await _until(lambda: lane.dead)
                await asyncio.sleep(0.05)
                assert executor.respawns == 1 and executor._lanes[0] is lane
                assert executor.lane_health() == [False, True]
                pid, _, _ = await asyncio.wrap_future(executor.submit(_echo_pid, 1, lane=0))
                assert pid != lane.process.pid and executor.respawns == 2

        asyncio.run(_run())

    def test_a_replacement_that_replied_heals_on_its_own_eof(self):
        """Its first reply makes a healed-in worker a full lane: its idle
        death then heals without traffic, like a lane forked at start."""

        async def _run():
            with LaneExecutor(2) as executor:
                os.kill(executor.lane_pids()[0][0], signal.SIGKILL)
                await _until(lambda: executor.respawns == 1)
                replacement = executor.lane_pids()[0][0]
                await asyncio.wrap_future(executor.submit(_echo_pid, 0, lane=0))
                os.kill(replacement, signal.SIGKILL)
                await _until(lambda: executor.respawns == 2)
                healed = executor.lane_pids()[0][0]
                assert healed != replacement and executor.lane_health() == [True, True]
                pid, _, _ = await asyncio.wrap_future(executor.submit(_echo_pid, 1, lane=0))
                assert pid == healed and executor.respawns == 2

        asyncio.run(_run())

    def test_eof_read_without_a_loop_heals_at_once(self):
        """Outside a loop the EOF surfaces where a result is awaited, and
        the lane is re-spawned right there, before any further submit."""
        with LaneExecutor(2) as executor:
            victim = executor.lane_pids()[0][0]
            running = executor.submit(_sleep, 30.0, lane=0)
            os.kill(victim, signal.SIGKILL)
            with pytest.raises(BrokenProcessPool):
                running.result(timeout=30)
            assert executor.respawns == 1 and executor.lane_health() == [True, True]
            healed = executor.lane_pids()[0][0]
            assert healed != victim
            assert executor.submit(_echo_pid, 2, lane=0).result(timeout=30)[0] == healed
            assert executor.respawns == 1

    def test_shutdown_heals_nothing(self):
        before = {child.pid for child in multiprocessing.active_children()}

        async def _run():
            executor = LaneExecutor(2).start()
            running = executor.submit(_sleep, 30.0, lane=0)
            for pids in executor.lane_pids():
                os.kill(pids[0], signal.SIGKILL)
            executor.shutdown()  # reads lane 0's EOF while it drains
            await asyncio.sleep(0.05)
            with pytest.raises(BrokenProcessPool):
                running.result(timeout=0)
            assert executor.respawns == 0 and executor.lane_pids() == []

        asyncio.run(_run())
        assert {child.pid for child in multiprocessing.active_children()} == before


class TestPipeLanes:
    def test_start_adds_no_thread_in_the_parent(self):
        before = threading.active_count()
        with LaneExecutor(2) as executor:
            assert executor.submit(_echo_pid, 1, lane=1).result(timeout=30)[2] == 1
            assert threading.active_count() == before

    def test_one_task_in_the_pipe_the_rest_in_a_fifo(self):
        with LaneExecutor(2) as executor:
            first = executor.submit(_sleep, 0.3, lane=0)
            queued = [executor.submit(_echo_pid, i, lane=0) for i in range(2)]
            lane = executor._lanes[0]
            assert lane.running is first
            assert [future for future, _ in lane.backlog] == queued
            assert [f.result(timeout=30)[2] for f in queued] == [0, 1]
            assert first.done() and lane.running is None and not lane.backlog

    def test_sync_result_without_a_loop_honours_its_timeout(self):
        with pytest.raises(RuntimeError):
            asyncio.get_running_loop()
        with LaneExecutor(2) as executor:
            future = executor.submit(_sleep, 0.5, lane=0)
            with pytest.raises(FutureTimeout):
                future.result(timeout=0.05)
            assert future.result(timeout=30) == 0.5

    def test_fifo_order_holds_behind_a_multi_mb_reply(self):
        size = 8 * 1024 * 1024

        async def _run():
            with LaneExecutor(2) as executor:
                order = []
                futures = [executor.submit(_blob, size, lane=0)]
                futures += [executor.submit(_echo_pid, i, lane=0) for i in range(3)]
                for index, future in enumerate(futures):
                    future.add_done_callback(lambda _f, index=index: order.append(index))
                results = await asyncio.wait_for(
                    asyncio.gather(*(asyncio.wrap_future(f) for f in futures)), 30
                )
                return order, results

        order, results = asyncio.run(_run())
        assert order == [0, 1, 2, 3]
        assert len(results[0]) == size
        assert [r[2] for r in results[1:]] == [0, 1, 2]

    def test_unpicklable_result_raises_instead_of_hanging(self):
        with LaneExecutor(2) as executor:
            with pytest.raises(pickle.PicklingError, match="could not be pickled"):
                executor.submit(_lock, None, lane=0).result(timeout=30)
            assert executor.submit(_echo_pid, 5, lane=0).result(timeout=30)[2] == 5
            assert executor.respawns == 0

    def test_sigkill_fails_running_and_queued_futures(self):
        with LaneExecutor(2) as executor:
            victim = executor.lane_pids()[0][0]
            running = executor.submit(_sleep, 30.0, lane=0)
            queued = executor.submit(_echo_pid, 1, lane=0)
            assert executor._lanes[0].running is running
            os.kill(victim, signal.SIGKILL)
            for future in (running, queued):
                with pytest.raises(BrokenProcessPool):
                    future.result(timeout=30)
            pid, _, _ = executor.submit(_echo_pid, 2, lane=0).result(timeout=30)
            assert pid != victim and executor.respawns == 1

    def test_worker_reaped_elsewhere_reads_as_dead(self):
        with LaneExecutor(2) as executor:
            victim = executor.lane_pids()[0][0]
            os.kill(victim, signal.SIGKILL)
            os.waitpid(victim, 0)
            assert executor.lane_health() == [False, True]
            assert executor.submit(_echo_pid, 3, lane=0).result(timeout=30)[0] != victim
            assert executor.lane_health() == [True, True]
        # Forgotten, so multiprocessing never signals that pid at exit.
        assert victim not in {child.pid for child in multiprocessing.active_children()}

    def test_killed_parent_leaves_no_worker_alive(self):
        script = (
            "from repro.parallel import LaneExecutor\n"
            "import time\n"
            "executor = LaneExecutor(3).start()\n"
            "print(*[p for lane in executor.lane_pids() for p in lane], flush=True)\n"
            "time.sleep(120)\n"
        )
        env = dict(os.environ, PYTHONPATH=_SRC)
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(workers) == 3
        finally:
            parent.kill()
            parent.wait(timeout=10)
            parent.stdout.close()
        assert surviving(workers, timeout_s=5.0) == []

    def test_pool_runs_under_spawn(self, monkeypatch):
        import repro.parallel.executor as executor_module

        monkeypatch.setattr(
            executor_module.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with LaneExecutor(2) as executor:
            replies = [
                executor.submit(_echo_pid, i, lane=i, shared="payload").result(timeout=60)
                for i in (0, 1)
            ]
            processes = [lane.process for lane in executor._lanes]
        assert len({pid for pid, _, _ in replies} | {os.getpid()}) == 3
        assert [(shared, task) for _, shared, task in replies] == [("payload", 0), ("payload", 1)]
        assert not any(process.is_alive() for process in processes)


class TestParcels:
    """A parcel's data crosses a lane's pipe once per worker; the lane's
    record follows what the worker replied, not what was submitted."""

    def test_data_crosses_each_lane_once_per_version(self):
        first, second = Parcel("s", 1, "one"), Parcel("s", 2, "two")
        with LaneExecutor(2) as executor:
            got = [
                executor.submit(_received, None, lane=lane, shared=parcel).result(timeout=30)[0]
                for lane, parcel in [(0, first), (0, first), (1, first), (0, second), (0, second)]
            ]
            assert got == ["one", None, "one", "two", None]
            assert executor._lanes[0].holds == {"s": 2}

    def test_a_named_tuple_task_field_ships_once_too(self):
        parcel = Parcel(("t", 0), 3, b"x" * 4096)
        with LaneExecutor(2) as executor:
            got = [
                executor.submit(_received, _Task("a", parcel), shared=None).result(timeout=30)
                for _ in range(2)
            ]
        assert [task_value for _, task_value in got] == [b"x" * 4096, None]

    def test_cancelled_while_queued_records_nothing(self):
        parcel = Parcel("s", 1, "data")
        with LaneExecutor(2) as executor:
            busy = executor.submit(_sleep, 0.3, lane=0)
            queued = executor.submit(_received, None, lane=0, shared=parcel)
            assert queued.cancel()
            busy.result(timeout=30)
            assert "s" not in executor._lanes[0].holds
            got = executor.submit(_received, None, lane=0, shared=parcel).result(timeout=30)
            assert got[0] == "data"

    def test_an_error_reply_drops_the_record(self):
        parcel = Parcel("s", 1, "data")
        with LaneExecutor(2) as executor:
            assert executor.submit(_received, None, shared=parcel).result(timeout=30)[0] == "data"
            with pytest.raises(LookupError):
                executor.submit(_refuse, None, shared=parcel).result(timeout=30)
            assert "s" not in executor._lanes[0].holds
            assert executor.submit(_received, None, shared=parcel).result(timeout=30)[0] == "data"
