"""Fault injectors for the serving-tier chaos suite.

Worker-side hooks (``kill_worker``, ``delay_machine``) are named in a
blueprint payload's ``chaos`` spec as ``"_chaos:<name>"`` and invoked by
:func:`repro.serving.blueprint.serve_batch_task` *inside* the real
execution path — in a lane worker for pooled serving, in the event loop
for the ``workers=1`` inline reference path.  Client-side injectors
(``corrupt_frame``, drop-connection via ``NetClient.abort``) live with
the network tests.

Fire-once gating: a hook that killed the worker on *every* attempt would
make recovery untestable, so faults are armed with a filesystem
**token** — ``os.open(O_CREAT | O_EXCL)`` is atomic across processes, so
exactly one attempt (first come) consumes the token and suffers the
fault; every retry, hedge duplicate, and re-dispatched copy after it
runs clean.  Tests create the token path under ``tmp_path`` and pass it
in the spec.  A spec without a token fires on every attempt — the shape
that exhausts a retry policy.
"""

from __future__ import annotations

import os
import time
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import current_process
from typing import Any, Dict, List


def consume_token(path: str) -> bool:
    """Atomically claim a fire-once token; True for exactly one caller."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _targets(spec: Dict[str, Any], machine_id: int) -> bool:
    machine = spec.get("machine")
    return machine is None or int(machine) == machine_id


def kill_worker(spec: Dict[str, Any], machine_id: int) -> None:
    """Die mid-batch on the targeted machine's lane.

    With a ``token`` in the spec the death hits exactly one attempt;
    without one, every attempt dies.  In a real lane worker the process
    exits hard (``os._exit``); the parent reads EOF on the lane's pipe
    and fails the batch future with ``BrokenProcessPool``.  On the inline
    path (no worker to kill) the same exception is raised directly so the
    failover logic above sees the identical signal.
    """
    if not _targets(spec, machine_id):
        return
    token = spec.get("token")
    if token is not None and not consume_token(str(token)):
        return
    if current_process().name == "MainProcess":
        raise BrokenProcessPool("chaos: injected worker death (inline)")
    os._exit(1)


def delay_machine(spec: Dict[str, Any], machine_id: int) -> None:
    """Stall the targeted machine's batch (optionally fire-once).

    With a ``token`` in the spec the delay hits exactly one attempt —
    the shape hedging exists for: the duplicate dispatched after
    ``hedge_ms`` lands on a clean lane and wins.
    """
    if not _targets(spec, machine_id):
        return
    token = spec.get("token")
    if token is not None and not consume_token(str(token)):
        return
    time.sleep(float(spec.get("delay_s", 0.2)))


def slow_lane(spec: Dict[str, Any], machine_id: int) -> None:
    """Stall *every* batch on the targeted machine (no fire-once token).

    Sustained pressure rather than a one-shot fault: the shape deadlines
    and hedging exist for.
    """
    if not _targets(spec, machine_id):
        return
    time.sleep(float(spec.get("delay_s", 0.05)))


async def trickle_frame(
    port: int,
    *,
    host: str = "127.0.0.1",
    header_bytes: int = 16 * 1024 * 1024,
    dribbles: int = 4,
    interval_s: float = 0.02,
    read_timeout_s: float = 10.0,
) -> str:
    """Slow-loris a serving port: announce a huge frame, trickle bytes.

    Opens a raw connection, sends a length header announcing
    *header_bytes*, then dribbles single payload bytes — never enough
    for a complete frame.  Returns what the server did once the trickle
    stops: ``"error-frame"`` (typed error frame then close — the
    bounded-decoder contract), ``"closed"`` (bare EOF), or ``"reset"``
    (connection torn down mid-trickle).
    """
    import asyncio
    import struct

    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(struct.pack(">I", header_bytes))
        await writer.drain()
        try:
            for _ in range(dribbles):
                writer.write(b"\0")
                await writer.drain()
                await asyncio.sleep(interval_s)
        except (ConnectionError, OSError):
            pass  # server already gave up on us — go read its last word
        try:
            data = await asyncio.wait_for(reader.read(65536), read_timeout_s)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            return "reset"
        return "error-frame" if data else "closed"
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


_PORT_RE = None


def spawn_server(argv, *, timeout_s: float = 180.0):
    """Launch a serving subprocess; wait for its port line.

    *argv* is the python argument list (e.g. ``["-m", "repro.cli",
    "serve-net", ...]`` or a test-owned server script).  The child runs
    with ``src`` on ``PYTHONPATH`` and must print either
    ``PORT <n>`` or ``listening host:<n>`` on stdout once accepting.
    Returns ``(proc, port)``; the caller owns the process (see
    :func:`kill_server`).
    """
    import re
    import subprocess
    import sys

    global _PORT_RE
    if _PORT_RE is None:
        _PORT_RE = re.compile(r"(?:PORT\s+|listening\s+[\d.]+:)(\d+)")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=root,
    )
    deadline = time.monotonic() + timeout_s
    lines = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        match = _PORT_RE.search(line)
        if match:
            return proc, int(match.group(1))
    proc.kill()
    proc.wait(timeout=10)
    raise RuntimeError(f"server subprocess never reported a port:\n{''.join(lines)}")


def kill_server(proc) -> None:
    """SIGKILL a spawned serving process — no goodbye frame, no cleanup.

    Note the orphaned lane workers: forked lane workers hold dup'd
    accepted-socket fds, so the TCP connections do NOT see EOF when the
    parent dies — exactly the mid-frame hang the client-side request
    timeout exists for.  Each worker does see EOF on its own lane pipe
    (every forked worker closes the parent ends it inherited), and
    exits (:mod:`repro.parallel.lanes`).
    """
    proc.kill()
    proc.wait(timeout=10)
    if proc.stdout is not None:
        proc.stdout.close()


def _proc_field(pid: int, field: str) -> "str | None":
    """One field of ``/proc/<pid>/status``, or ``None`` if *pid* is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return line.split()[1]
    except (FileNotFoundError, ProcessLookupError):
        return None
    return None


def child_pids(proc) -> List[int]:
    """Pids of the direct children of a spawned server (its lane workers)."""
    parent = str(proc.pid)
    return [
        int(entry)
        for entry in os.listdir("/proc")
        if entry.isdigit() and _proc_field(int(entry), "PPid") == parent
    ]


def surviving(pids: List[int], *, timeout_s: float = 5.0) -> List[int]:
    """Wait up to *timeout_s* for *pids* to exit; return those still running.

    A pid counts as exited once it is gone or a zombie (``State: Z``): an
    orphan re-parented to an init that does not reap keeps its zombie
    entry after exiting.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        alive = [pid for pid in pids if _proc_field(pid, "State") not in (None, "Z")]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)
