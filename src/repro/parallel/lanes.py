"""Sticky-affinity worker lanes: one pre-forked worker per lane, one pipe each.

Serving pins each machine's batches to one lane (``lane = machine_id %
lanes``), so a machine's reconstruction operator is built once, on the
worker that owns it, and a worker death breaks exactly one lane.

**Lanes.**  Each lane is one worker process started at :meth:`~LaneExecutor.start`
that loops recv → run → send on its own duplex :func:`multiprocessing.Pipe`.
Forking eagerly matters in a serving process: a worker forked later would
inherit the accepted sockets open at that moment.

**Parcels: ship once per worker.**  A :class:`Parcel` is data a worker
keeps once it has it (a serving session, one machine's source
generation).  A parcel passed as a task's ``shared`` value, or as a field
of a named-tuple task, crosses a lane's pipe with its ``value`` only
until that lane's worker holds its ``(slot, version)``; after that it goes
empty.  The lane decides when it writes the task to the pipe, and it
keeps the record: a successful reply adds the parcels the task named, an
error reply drops them, and a task cancelled before it reached the pipe
changes nothing; :meth:`LaneExecutor.forget` drops slots whose data the
workers have released.  A re-spawned worker is a new lane, so it starts
with an empty record and is sent everything again.  Resolving an empty
parcel against what the worker holds (and refusing one it does not hold)
is the task function's business.

**Replies.**  The parent starts no threads.  A running event loop reads
each lane's pipe with ``loop.add_reader``, registered when a task is
submitted inside that loop; the loop's own thread then resolves the
futures.  Without a loop, ``future.result(timeout)`` and
``future.exception(timeout)`` read the lane's pipe themselves.
Nothing else completes a future: ``concurrent.futures.wait`` does not.
The executor is not thread-safe; submit and wait from one thread.

**One task in the pipe.**  A lane holds at most one task in its pipe;
later tasks wait in a parent-side FIFO and go out as the previous reply
arrives.  The worker is therefore reading whenever the parent writes, so
the parent never blocks on a send while the worker blocks sending a
large reply.

**Death.**  EOF on a lane's pipe means its worker died, and while the
executor is started that EOF heals the lane at once: a fresh worker
takes the lane, then every future of the dead one, queued ones
included, fails with :class:`~concurrent.futures.process.BrokenProcessPool`
(so a retry from their callbacks lands on the fresh worker).  The lanes
that :meth:`~LaneExecutor.start` and a re-spawn fork are watched by the
running event loop, if any, so a worker that dies idle is replaced
without traffic.  A replacement that dies before its first reply is
left dead for the next :meth:`~LaneExecutor.submit` to re-spawn: a
worker that cannot stay up costs at most one fork per submit, never a
fork loop on the event loop.  The caller re-dispatches; this class owns
placement and lifecycle, not retry policy.  EOF seen by a worker means
its parent died, and the worker exits.  That EOF arrives only because
each forked worker closes every lane's parent end it inherited.

``workers=1`` (or ``None``) is the inline reference path: no processes,
tasks run immediately in the caller with their parcels whole, and
submitted futures come back already resolved — byte-identical to the
pooled lanes by the same argument as
:class:`~repro.parallel.executor.ParallelExecutor`.
"""

from __future__ import annotations

import asyncio
import multiprocessing.process
import pickle
import select
import time
import traceback
import weakref
from collections import deque
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Deque, Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple

from repro.parallel.executor import TaskFn, default_context, resolve_workers


class Parcel(NamedTuple):
    """Data a lane worker keeps once it has received it.

    ``slot`` names where the worker keeps it, ``version`` which data the
    slot holds (a worker keeps one version per slot).  A lane sends
    ``value`` until its worker holds ``(slot, version)``, and the parcel
    with ``value=None`` after that.
    """

    slot: Hashable
    version: Hashable = 0
    value: Any = None


#: The parent end of every lane pipe opened in this process, by any
#: executor.  A forked worker closes them all: a sibling holding one open
#: would keep that lane's worker from ever seeing its parent's death.
_PARENT_ENDS: "weakref.WeakSet" = weakref.WeakSet()


def _lane_main(conn) -> None:
    """A lane worker: run tasks from *conn* until the parent hangs up."""
    for end in list(_PARENT_ENDS):
        end.close()
    while True:
        try:
            fn, shared, task = conn.recv()
        except (EOFError, OSError):
            return  # the parent closed the pipe, or died
        try:
            reply = (True, fn(shared, task))
        except BaseException as exc:  # noqa: BLE001 - shipped to the caller's future
            exc.add_note("".join(traceback.format_exception(exc)).rstrip())
            reply = (False, exc)
        try:
            conn.send(reply)
        except (EOFError, OSError):
            return
        except Exception as exc:  # noqa: BLE001 - the reply does not pickle
            conn.send((False, pickle.PicklingError(f"lane reply could not be pickled: {exc!r}")))


class _Lane:
    """One worker process, the parent end of its pipe, and its task FIFO.

    *on_eof* is called with the lane when its pipe reports the worker's
    death; it must end in :meth:`die`.  *heals* says whether that death
    re-spawns the lane at once; a lane sets it itself on its first reply.
    """

    def __init__(self, context, on_eof: "Callable[[_Lane], None]", *, heals: bool):
        conn, child_end = context.Pipe(duplex=True)
        _PARENT_ENDS.add(conn)
        try:
            # Daemonic: at interpreter exit, multiprocessing terminates a
            # worker whose executor was never shut down instead of joining
            # it forever (the parent still holds its pipe open then).
            self.process = context.Process(
                target=_lane_main, args=(child_end,), name="repro-lane", daemon=True
            )
            self.process.start()
        except BaseException:
            conn.close()
            raise
        finally:
            child_end.close()
        self.conn = conn
        self.fd = conn.fileno()
        self._readable = select.poll()
        self._readable.register(self.fd, select.POLLIN)
        self._exited = select.poll()
        self._exited.register(self.process.sentinel, select.POLLIN)
        #: The future whose task is in the pipe (at most one).
        self.running: "Optional[Future]" = None
        #: Tasks waiting for the pipe, oldest first.
        self.backlog: "Deque[Tuple[Future, Any]]" = deque()
        #: What this lane's worker holds: parcel slot -> version.
        self.holds: "Dict[Hashable, Hashable]" = {}
        #: The ``(slot, version)`` parcels the task in the pipe names.
        self._naming: "List[Tuple[Hashable, Hashable]]" = []
        self.loop: "Optional[asyncio.AbstractEventLoop]" = None
        self.dead = False
        self.heals = heals
        self._on_eof = on_eof

    def alive(self) -> bool:
        """Whether the lane can take work.  Reads the process sentinel, so
        a worker reaped elsewhere (``os.waitpid``) still reads as dead."""
        return not self.dead and not self._exited.poll(0)

    def watch(self) -> None:
        """Let the running event loop, if any, read this lane's replies."""
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return
        if loop is self.loop or self.dead:
            return
        self._unwatch()
        loop.add_reader(self.fd, self.on_readable)
        self.loop = loop

    def _unwatch(self) -> None:
        if self.loop is not None and not self.loop.is_closed():
            self.loop.remove_reader(self.fd)
        self.loop = None

    def put(self, future: Future, item: Any) -> None:
        self.backlog.append((future, item))
        self._feed()

    def _feed(self) -> None:
        """Send the oldest waiting task if the pipe is free."""
        while self.running is None and self.backlog and not self.dead:
            future, (fn, shared, task) = self.backlog.popleft()
            if not future.set_running_or_notify_cancel():
                continue  # cancelled while it waited: sent nothing, records nothing
            self.running = future
            self._naming = []
            try:
                self.conn.send((fn, self._unheld(shared), self._unheld(task)))
            except OSError:
                self._on_eof(self)
            except Exception as exc:  # noqa: BLE001 - the task does not pickle
                self.running = None
                future.set_exception(exc)

    def _unheld(self, value: Any) -> Any:
        """*value* as this lane's worker needs it: each parcel in it (the
        value itself, or a field of a named tuple) that the worker already
        holds goes without its data."""
        if isinstance(value, Parcel):
            self._naming.append((value.slot, value.version))
            if value.value is not None and self.holds.get(value.slot) == value.version:
                return value._replace(value=None)
            return value
        if hasattr(value, "_fields") and any(isinstance(field, Parcel) for field in value):
            return value._make(
                self._unheld(field) if isinstance(field, Parcel) else field for field in value
            )
        return value

    def _settle(self, ok: bool) -> None:
        """The task in the pipe replied: its worker now holds the parcels
        it named (*ok*), or may not (an error reply)."""
        for slot, version in self._naming:
            if ok:
                self.holds[slot] = version
            else:
                self.holds.pop(slot, None)
        self._naming = []

    def on_readable(self) -> None:
        """Event-loop reader: take the reply (or EOF) off the pipe."""
        if not self.dead and self._readable.poll(0):
            self._receive()

    def _receive(self) -> None:
        try:
            data = self.conn.recv_bytes()
        except (EOFError, OSError):
            self._on_eof(self)
            return
        self.heals = True
        try:
            ok, value = pickle.loads(data)
        except Exception as exc:  # noqa: BLE001 - a reply that does not unpickle
            ok, value = False, exc
        self._settle(ok)
        future, self.running = self.running, None
        self._feed()  # the worker starts the next task while callbacks run
        if ok:
            future.set_result(value)
        else:
            future.set_exception(value)

    def wait_for(self, future: Future, timeout: "float | None") -> None:
        """Read this lane's pipe until *future* is done or *timeout* passes."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not future.done() and not self.dead:
            wait_ms = None
            if deadline is not None:
                wait_ms = max(0.0, deadline - time.monotonic()) * 1000.0
            if self._readable.poll(wait_ms):
                self._receive()
            elif wait_ms is not None:
                return

    def die(self) -> None:
        """Fail every future of this lane and close its pipe (idempotent)."""
        if self.dead:
            return
        self.dead = True
        self._unwatch()
        self.conn.close()
        futures = [future for future, _ in self.backlog]
        if self.running is not None:
            futures.insert(0, self.running)
        self.running = None
        self.backlog.clear()
        error = BrokenProcessPool("a lane worker died before its tasks completed")
        for future in futures:
            if not future.done():
                future.set_exception(error)

    def stop(self, *, drain: bool) -> None:
        """Retire the lane: finish (*drain*) or fail its tasks, end the
        worker, and reap it."""
        if drain:
            while self.running is not None:
                self.wait_for(self.running, None)
        self.die()  # closing the pipe ends an idle worker
        if not drain and not self._exited.poll(0):
            self.process.kill()
        self.process.join()
        if self.process.exitcode is None and self._exited.poll(0):
            # Reaped elsewhere (``os.waitpid``): its return code is gone,
            # so multiprocessing would list it for good, and signal its
            # pid at exit, whoever owns that pid by then.
            multiprocessing.process._children.discard(self.process)


class _LaneFuture(Future):
    """A pooled task's future; waiting on it outside a loop reads its lane."""

    def __init__(self, lane: _Lane):
        super().__init__()
        self._lane = lane

    def result(self, timeout=None):
        self._lane.wait_for(self, timeout)
        return super().result(timeout=0)

    def exception(self, timeout=None):
        self._lane.wait_for(self, timeout)
        return super().exception(timeout=0)


class LaneExecutor:
    """``n`` single-worker lanes with caller-controlled task placement.

    Parameters
    ----------
    workers:
        Number of lanes, normalized by
        :func:`~repro.parallel.executor.resolve_workers` (``1``/``None``
        = inline, ``0``/negative = one lane per core).  Workers fork
        where the platform can, and spawn elsewhere.

    Use :meth:`start` / :meth:`shutdown` (or a ``with`` block) around a
    serving session.  :meth:`submit` places one task on one lane.
    ``respawns`` counts the workers forked to replace dead ones.
    """

    def __init__(self, workers: "int | None" = 1):
        self.workers = resolve_workers(workers)
        self._lanes: "List[_Lane]" = []
        self._started = False
        self.respawns = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether the lanes are up (or the inline shell is active)."""
        return self._started

    @property
    def inline(self) -> bool:
        """``True`` when tasks run in the calling process (``workers=1``)."""
        return self.workers <= 1

    @property
    def lanes(self) -> int:
        """Number of placement lanes (1 when inline)."""
        return max(1, self.workers)

    def _spawn(self, *, heals: bool) -> _Lane:
        """Fork one lane's worker, watched by the running loop if any."""
        lane = _Lane(default_context(), self._on_eof, heals=heals)
        lane.watch()
        return lane

    def start(self) -> "LaneExecutor":
        """Fork every lane's worker (none when inline); raises if started."""
        if self._started:
            raise RuntimeError("LaneExecutor already started")
        if not self.inline:
            try:
                for _ in range(self.workers):
                    self._lanes.append(self._spawn(heals=True))
            except BaseException:
                self.shutdown(wait=False)
                raise
        self._started = True
        return self

    def shutdown(self, *, wait: bool = True) -> None:
        """Tear every lane down (idempotent); nothing is re-spawned.

        ``wait=True`` lets queued and running tasks finish first;
        ``wait=False`` fails them with ``BrokenProcessPool`` and kills
        the workers.  Either way every worker is reaped before return.
        """
        lanes, self._lanes = self._lanes, []
        self._started = False
        for lane in lanes:
            lane.stop(drain=wait)

    def __enter__(self) -> "LaneExecutor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _live_lane(self, lane: int) -> _Lane:
        """The lane's worker, re-spawned first if it died."""
        index = lane % self.lanes
        if not self._lanes[index].alive():
            self._replace(index)
        return self._lanes[index]

    def _replace(self, index: int) -> None:
        """Fork a fresh worker for lane *index*; the old worker's tasks
        fail with ``BrokenProcessPool``."""
        old = self._lanes[index]
        try:
            self._lanes[index] = self._spawn(heals=False)
            self.respawns += 1
        finally:
            # Last: failing the old futures runs their callbacks, and a
            # callback that submits again must find the new worker here.
            old.stop(drain=False)

    def _on_eof(self, lane: _Lane) -> None:
        """A lane's pipe reported its worker's death: re-spawn the lane
        at once while started, unless it is a replacement that never
        replied (the next submit re-spawns that one)."""
        if self._started and lane.heals:
            self._replace(self._lanes.index(lane))
        else:
            lane.die()

    def forget(self, slots: "Iterable[Hashable]") -> None:
        """Drop *slots* from every lane's record, once no worker keeps
        their data (a released serving session)."""
        slots = list(slots)
        for lane in self._lanes:
            for slot in slots:
                lane.holds.pop(slot, None)

    def lane_health(self) -> "List[bool]":
        """Liveness per lane, read from each worker's process sentinel.

        What the ``health`` wire op reports.  Inline mode reports a
        single healthy lane (the caller itself).  A worker that died, or
        was reaped elsewhere, reads as dead here before its lane's EOF
        is handled.
        """
        if self.inline:
            return [True]
        return [lane.alive() for lane in self._lanes]

    def lane_pids(self) -> "List[List[int]]":
        """Worker pid per lane, one-element lists (empty when inline).

        Exposed for fault injection and resource accounting: chaos tests
        SIGKILL a real worker process and assert the tier above recovers.
        """
        return [[lane.process.pid] for lane in self._lanes]

    def submit(self, fn: TaskFn, task: Any, *, lane: int = 0, shared: Any = None) -> "Future":
        """Run ``fn(shared, task)`` on one lane; returns its future.

        *lane* is taken modulo the lane count, so callers can pass a
        stable key (a machine id) directly.  *shared* and *task* are
        pickled per task, except the data of a :class:`Parcel` the lane's
        worker already holds (see the module docstring).  A lane found
        dead at submission is re-spawned first; a worker dying *after*
        submission surfaces as ``BrokenProcessPool`` on the returned
        future, and re-dispatching is the caller's call.
        """
        if not self._started:
            raise RuntimeError("LaneExecutor is not started")
        if self.inline:
            future: "Future" = Future()
            try:
                future.set_result(fn(shared, task))
            except BaseException as exc:  # noqa: BLE001 - mirrored into the future
                future.set_exception(exc)
            return future
        worker = self._live_lane(lane)
        future = _LaneFuture(worker)
        worker.watch()
        worker.put(future, (fn, shared, task))
        return future
