"""Supervised self-healing lanes: heartbeats, proactive respawn, standby."""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

from repro.obs import MetricsRegistry
from repro.parallel.lanes import LaneExecutor
from repro.resilience import LaneSupervisor


def _kill_first_worker(executor) -> int:
    pids = [p for lane in executor.lane_pids() for p in lane]
    assert pids, "pooled lanes must expose worker pids"
    os.kill(pids[0], signal.SIGKILL)
    try:
        os.waitpid(pids[0], 0)  # reaped here, it must still read as dead
    except ChildProcessError:
        pass  # already reaped
    return pids[0]


class TestLaneSupervisor:
    def test_rejects_nonpositive_interval(self):
        with LaneExecutor(1) as executor:
            with pytest.raises(ValueError):
                LaneSupervisor(executor, interval_ms=0)

    def test_check_once_respawns_a_dead_lane(self):
        with LaneExecutor(2) as executor:
            supervisor = LaneSupervisor(executor)
            assert supervisor.check_once() == [True, True]
            _kill_first_worker(executor)
            health = supervisor.check_once()
            assert health == [True, True]  # already healed in the same pass
            assert supervisor.proactive_respawns == 1
            assert executor.respawns >= 1
            # The healed lane actually works.
            assert executor.submit(_double, 21, lane=0, shared=None).result() == 42

    def test_inline_executor_is_observed_not_respawned(self):
        with LaneExecutor(1) as executor:
            supervisor = LaneSupervisor(executor)
            assert supervisor.check_once() == [True]
            assert supervisor.proactive_respawns == 0

    def test_heartbeat_loop_heals_without_traffic(self):
        async def _run():
            with LaneExecutor(2) as executor:
                supervisor = LaneSupervisor(executor, interval_ms=20.0)
                await supervisor.start()
                try:
                    _kill_first_worker(executor)
                    deadline = asyncio.get_running_loop().time() + 5.0
                    while supervisor.proactive_respawns < 1:
                        if asyncio.get_running_loop().time() > deadline:
                            raise AssertionError("supervisor never respawned the lane")
                        await asyncio.sleep(0.01)
                    assert all(executor.lane_health())
                finally:
                    await supervisor.stop()
                assert not supervisor.running
                assert supervisor.ticks >= 1

        asyncio.run(_run())

    def test_standby_lane_promotes_on_respawn(self):
        with LaneExecutor(2, standby=True) as executor:
            supervisor = LaneSupervisor(executor)
            _kill_first_worker(executor)
            supervisor.check_once()
            assert executor.standby_promotions == 1
            assert executor.submit(_double, 4, lane=0, shared=None).result() == 8

    def test_metrics_export_lane_state_and_respawn_counter(self):
        registry = MetricsRegistry()
        with LaneExecutor(2) as executor:
            supervisor = LaneSupervisor(executor, metrics=registry)
            supervisor.check_once()
            _kill_first_worker(executor)
            supervisor.check_once()
        rendered = registry.render_prometheus()
        assert 'repro_lane_state{lane="0"} 1' in rendered
        assert 'repro_lane_respawns_total{reason="proactive"} 1' in rendered

    def test_snapshot_names_every_surface(self):
        with LaneExecutor(2) as executor:
            supervisor = LaneSupervisor(executor, interval_ms=50.0)
            supervisor.check_once()
            snap = supervisor.snapshot()
        assert snap["running"] is False
        assert snap["interval_ms"] == 50.0
        assert snap["ticks"] == 1
        assert snap["lanes"] == [True, True]
        assert len(snap["lane_pids"]) == 2
        assert snap["inline"] is False
        assert snap["proactive_respawns"] == 0
        assert "standby_promotions" in snap


def _double(shared, x):
    return 2 * x
