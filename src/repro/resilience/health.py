"""Lane supervision: heartbeat lane workers, respawn proactively.

PR 7's lane executor heals *lazily*: a dead lane is only replaced when
the next batch submit trips over it, so the first request after a
worker death always pays the failure.  :class:`LaneSupervisor` closes
that gap: an asyncio loop heartbeats every lane's worker (its process
sentinel, which also reads a zombie or a worker reaped elsewhere as
dead) on a short interval and respawns unhealthy lanes *before* traffic
finds them.
Combined with the executor's warm standby (``LaneExecutor(standby=True)``)
a respawn promotes an already-forked worker, so failover leaves no
cold-start gap at all.

Health is exported three ways: ``repro_lane_state{lane}`` gauges plus a
``repro_lane_respawns_total{reason="proactive"}`` counter in the obs
registry, the :meth:`snapshot` dict behind the ``health`` wire op, and
the supervisor's own counters for tests.
"""

from __future__ import annotations

import asyncio
from typing import Optional

LANE_UP = 1.0
LANE_DOWN = 0.0


class LaneSupervisor:
    """Heartbeat + proactive respawn for a :class:`~repro.parallel.lanes.LaneExecutor`.

    Parameters
    ----------
    executor:
        The lane executor to supervise (started by the caller).
    interval_ms:
        Heartbeat period.  Each tick checks every lane; unhealthy lanes
        are respawned immediately.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` for the
        ``repro_lane_state`` / ``repro_lane_respawns_total`` families.
    """

    def __init__(self, executor, *, interval_ms: float = 100.0, metrics=None):
        if interval_ms <= 0:
            raise ValueError(f"interval_ms must be positive, got {interval_ms}")
        self._executor = executor
        self._interval = interval_ms / 1000.0
        self._metrics = metrics
        self._task: "Optional[asyncio.Task]" = None
        self._running = False
        self.ticks = 0
        self.proactive_respawns = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    async def start(self) -> "LaneSupervisor":
        """Start the heartbeat loop (idempotent)."""
        if self._running:
            return self
        self._running = True
        self._task = asyncio.get_running_loop().create_task(self._loop())
        return self

    async def stop(self) -> None:
        """Stop the heartbeat loop (idempotent)."""
        self._running = False
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def _loop(self) -> None:
        while self._running:
            self.check_once()
            await asyncio.sleep(self._interval)

    # ------------------------------------------------------------------
    # the heartbeat itself (callable synchronously from tests)
    # ------------------------------------------------------------------
    def check_once(self) -> "list[bool]":
        """One heartbeat pass: probe, respawn the dead, export gauges."""
        self.ticks += 1
        health = self._executor.lane_health()
        for lane, healthy in enumerate(health):
            if not healthy and not self._executor.inline:
                self._executor.respawn_lane(lane)
                self.proactive_respawns += 1
                if self._metrics is not None:
                    self._metrics.counter(
                        "repro_lane_respawns_total",
                        "Lane worker respawns, by trigger.",
                        reason="proactive",
                    ).inc()
                health[lane] = True
            if self._metrics is not None:
                self._metrics.gauge(
                    "repro_lane_state",
                    "Lane liveness (1 = worker process running, 0 = down).",
                    lane=str(lane),
                ).set(LANE_UP if health[lane] else LANE_DOWN)
        return health

    def snapshot(self) -> dict:
        """Health summary for the ``health`` wire op."""
        executor = self._executor
        return {
            "running": self._running,
            "interval_ms": self._interval * 1000.0,
            "ticks": self.ticks,
            "lanes": executor.lane_health(),
            "lane_pids": executor.lane_pids(),
            "inline": executor.inline,
            "respawns": executor.respawns,
            "proactive_respawns": self.proactive_respawns,
            "standby_promotions": getattr(executor, "standby_promotions", 0),
        }
