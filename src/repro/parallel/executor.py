"""A seed-stable process pool for embarrassingly parallel stages.

The reproduction's biggest runtime sinks — the per-machine personalized
summaries of Alg. 3, batch query serving, and the experiment sweeps behind
Figs. 5–12 — are all fan-outs of *independent, deterministic* tasks.
:class:`ParallelExecutor` runs such a fan-out over a ``multiprocessing``
pool under one contract:

**Determinism.**  ``executor.map(fn, tasks, shared=...)`` returns results
in task order, and each task sees only ``(shared, task)`` — no global
mutable state, no pool-scheduling dependence.  Provided ``fn`` itself is
deterministic (every summarizer here is, given a seed), the output list is
*byte-identical at any worker count*, including ``workers=1``, which runs
the tasks inline in the calling process without touching
``multiprocessing`` at all.

**Graph shipping.**  The *shared* payload (typically the input graph plus
a config) is shipped to each worker **once**, through the pool
initializer, instead of once per task.  Under the ``fork`` start method
the payload is inherited copy-on-write and never pickled; under ``spawn``
it is pickled exactly ``workers`` times.  Task payloads and results are
pickled per task, so keep them small (node arrays, configs, summaries).

**RNG derivation.**  Tasks that need their own randomness derive it with
:func:`derive_seed`, which folds ``(base_seed, task_index)`` through
:class:`numpy.random.SeedSequence` — stable across worker counts, Python
processes, and platforms, and decorrelated across indices.

**Pool lifetime.**  A bare ``executor.map(...)`` builds a throwaway pool
per call — fine for the one-shot fan-outs of the experiment sweeps, fatal
for serving, where fork/spawn cost would dominate every micro-batch.
Entering the executor as a context manager switches it to *session mode*:
one persistent pool, started once, reused by every :meth:`map` /
:meth:`submit` until exit.  The session payload (``shared=`` at
construction) is installed in each worker exactly once, at pool start;
per-call work then ships only the task function (pickled by reference)
and the task payload.  ``repro.serving.QueryServer`` is the canonical
session-mode consumer.

Worker functions must be module-level (picklable by reference) so the
pool works under both ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Sequence

import numpy as np

#: A task function: ``fn(shared, task) -> result``.  Must be defined at
#: module level so it pickles by reference under the spawn start method.
TaskFn = Callable[[Any, Any], Any]

# Per-worker-process state installed by the pool initializer.  Plain
# module globals: each worker process has its own copy of this module.
_WORKER_FN: "TaskFn | None" = None
_WORKER_SHARED: Any = None

# Session-mode worker state: the session payload, installed once at pool
# start; task functions arrive per task (pickled by reference, tiny).
_SESSION_SHARED: Any = None

#: Sentinel distinguishing "no shared= argument" from an explicit ``None``.
_UNSET = object()

#: Seconds between a session worker's checks that its parent is alive.
_PARENT_POLL_S = 0.5


def resolve_workers(workers: "int | None") -> int:
    """Normalize a ``workers`` knob to a concrete pool size.

    ``None`` or ``1`` mean *sequential* (run inline, spawn nothing);
    ``0`` or any negative value mean *all cores* (``os.cpu_count()``);
    any other positive integer is taken literally.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


def derive_seed(base_seed: "int | None", task_index: int) -> "int | None":
    """A per-task seed that is stable at any worker count.

    Folds ``(base_seed, task_index)`` through
    :class:`numpy.random.SeedSequence`, so consecutive task indices get
    decorrelated streams (unlike ``base_seed + index``, whose nearby
    states can correlate under some bit-generators).  ``None`` stays
    ``None`` (fresh entropy per task, explicitly non-reproducible).
    """
    if base_seed is None:
        return None
    sequence = np.random.SeedSequence([int(base_seed) & 0xFFFFFFFF, int(task_index)])
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def _init_worker(fn: TaskFn, shared: Any) -> None:
    """Pool initializer: install the task function and shared payload."""
    global _WORKER_FN, _WORKER_SHARED
    _WORKER_FN = fn
    _WORKER_SHARED = shared


def _run_task(task: Any) -> Any:
    """Top-level trampoline executed in the worker for each task."""
    return _WORKER_FN(_WORKER_SHARED, task)


def _exit_when_orphaned(parent: int) -> None:
    """Exit this worker once its parent process is gone.

    A pool worker whose parent is SIGKILLed never sees EOF on the call
    queue — it inherited that pipe's write end — so it would sleep on it
    forever.  Re-parenting changes ``getppid()``, which this loop polls.
    """
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _init_session_worker(shared: Any) -> None:
    """Session-pool initializer: install the session payload once, and
    start the watchdog that ends the worker if its parent dies."""
    global _SESSION_SHARED
    _SESSION_SHARED = shared
    threading.Thread(
        target=_exit_when_orphaned, args=(os.getppid(),), name="orphan-watchdog", daemon=True
    ).start()


def _run_session_task(item: Any) -> Any:
    """Session-pool trampoline: ``(fn, use_session, shared, task)``."""
    fn, use_session, shared, task = item
    return fn(_SESSION_SHARED if use_session else shared, task)


class ParallelExecutor:
    """Ordered fan-out of independent tasks over a process pool.

    Parameters
    ----------
    workers:
        Pool size, normalized by :func:`resolve_workers` (``1``/``None``
        = inline sequential, ``0``/negative = all cores).
    mp_context:
        Optional :mod:`multiprocessing` context.  Defaults to ``fork``
        where available (cheap, inherits the graph copy-on-write) and
        ``spawn`` elsewhere; everything shipped is spawn-safe either way.
    shared:
        Optional *session payload*: the default ``shared`` value for every
        :meth:`map` / :meth:`submit` call that does not pass its own.  In
        session mode (see below) it is installed in each worker exactly
        once, when the pool starts — the natural place for large
        read-only state such as shared-memory descriptors.

    Session mode
    ------------
    Used as a context manager, the executor keeps **one persistent pool**
    alive across calls instead of building a throwaway pool per
    :meth:`map`::

        with ParallelExecutor(workers=4, shared=payload) as executor:
            executor.map(fn_a, tasks)      # both calls reuse the same
            executor.map(fn_b, more_tasks) # worker processes

    A task that raises propagates its exception to the caller and leaves
    the pool usable for subsequent calls.  With ``workers=1`` the session
    is a no-op shell around the inline reference path.  :meth:`shutdown`
    (or leaving the ``with`` block) returns the executor to one-shot
    mode; it can be started again afterwards.

    Example
    -------
    >>> from repro.parallel import ParallelExecutor
    >>> def square(shared, task):
    ...     return shared * task * task
    >>> ParallelExecutor(workers=1).map(square, [1, 2, 3], shared=10)
    [10, 40, 90]
    """

    def __init__(self, workers: "int | None" = 1, *, mp_context=None, shared: Any = _UNSET):
        self.workers = resolve_workers(workers)
        self._mp_context = mp_context
        self._session_shared = None if shared is _UNSET else shared
        self._pool: "ProcessPoolExecutor | None" = None
        self._started = False

    def _context(self):
        if self._mp_context is not None:
            return self._mp_context
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        return multiprocessing.get_context(method)

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether a session is active (persistent pool or inline shell)."""
        return self._started

    def start(self) -> "ParallelExecutor":
        """Start session mode: one persistent pool reused across calls.

        Idempotent-hostile by design: starting an already started session
        raises, so lifetime bugs surface instead of leaking pools.  With
        ``workers=1`` no processes are spawned; the session is purely the
        inline reference path.
        """
        if self._started:
            raise RuntimeError("ParallelExecutor session already started")
        if self.workers > 1:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._context(),
                initializer=_init_session_worker,
                initargs=(self._session_shared,),
            )
        self._started = True
        return self

    def shutdown(self, *, wait: bool = True) -> None:
        """End the session and release the pool (no-op when not started)."""
        pool, self._pool = self._pool, None
        self._started = False
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "ParallelExecutor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _resolve_shared(self, shared: Any) -> Any:
        return self._session_shared if shared is _UNSET else shared

    def map(
        self,
        fn: TaskFn,
        tasks: "Iterable[Any] | Sequence[Any]",
        *,
        shared: Any = _UNSET,
    ) -> List[Any]:
        """Run ``fn(shared, task)`` for every task; results in task order.

        With an effective pool size of 1 (or, outside a session, a single
        task) the tasks run inline — no processes, no pickling — which is
        also the reference path the parallel path must match byte for
        byte.  A task that raises propagates its exception to the caller
        either way.  Omitting *shared* falls back to the session payload;
        inside a session, an explicit per-call *shared* is shipped with
        every task, so keep it small there.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if self._pool is not None:
            use_session = shared is _UNSET
            payload = None if use_session else shared
            items = [(fn, use_session, payload, task) for task in tasks]
            return list(self._pool.map(_run_session_task, items))
        resolved = self._resolve_shared(shared)
        workers = min(self.workers, len(tasks))
        if workers <= 1:
            return [fn(resolved, task) for task in tasks]
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=self._context(),
            initializer=_init_worker,
            initargs=(fn, resolved),
        ) as pool:
            return list(pool.map(_run_task, tasks))

    def submit(self, fn: TaskFn, task: Any, *, shared: Any = _UNSET) -> "Future":
        """Run one task asynchronously; returns a :class:`~concurrent.futures.Future`.

        In a session with ``workers > 1`` the task is dispatched to the
        persistent pool.  Otherwise it runs inline, immediately, and the
        returned future is already resolved — same code path, same bytes,
        as the pooled variant.  This is the serving layer's primitive:
        micro-batches overlap in the pool while the event loop keeps
        admitting queries.
        """
        if self._pool is not None:
            use_session = shared is _UNSET
            payload = None if use_session else shared
            return self._pool.submit(_run_session_task, (fn, use_session, payload, task))
        future: "Future" = Future()
        try:
            future.set_result(fn(self._resolve_shared(shared), task))
        except BaseException as exc:  # noqa: BLE001 - mirrored into the future
            future.set_exception(exc)
        return future
