"""The benchmark of record: run one workload under a supervisor.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream-mixed --seed 1 --seconds 20 --trace 0

The workload runs in a child process (``perfbench/workload.py``) in a
session of its own, with this process as the subreaper of everything it
starts.  However the child ends - normally, with an error, at the
timeout, or because this process was interrupted - the supervisor then

* gives stray descendants a short grace period to exit, kills and reaps
  whatever is left, and fails the run if anything was still alive;
* fails the run if a ``/dev/shm`` segment created during the run is left
  behind (and removes it).

Only a clean run relays the child's output, whose last line is the JSON
result.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Set

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("summarize-sparse", "serve-open", "stream-mixed")
#: The child's wall-clock cap; the whole run must end within 180 s.
TIMEOUT_S = 165.0
#: How long the workload may take to unwind after SIGTERM.
STOP_S = 10.0
#: How long descendants may take to exit on their own after the child.
GRACE_S = 3.0
SHM = Path("/dev/shm")
PR_SET_CHILD_SUBREAPER = 36


class Interrupted(Exception):
    """SIGTERM/SIGHUP/SIGINT arrived: clean up, then fail the run."""


def _interrupt(signum, frame):
    raise Interrupted(signal.Signals(signum).name)


def become_subreaper() -> bool:
    """Make orphaned descendants re-parent to this process (Linux)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def shm_segments() -> Set[str]:
    """Names of the /dev/shm segments this user owns."""
    uid = os.getuid()
    try:
        return {p.name for p in SHM.iterdir() if p.stat().st_uid == uid}
    except OSError:
        return set()


def _proc_table():
    """pid -> (ppid, session id, state) for every visible process."""
    table = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        table[int(entry.name)] = (int(fields[1]), int(fields[3]), fields[0])
    return table


def live_descendants(session: int) -> List[int]:
    """Live processes below this one, or in the child's session."""
    me = os.getpid()
    table = _proc_table()
    out = []
    for pid, (ppid, sid, state) in table.items():
        if pid == me or state == "Z":
            continue
        ancestor, hops = ppid, 0
        while ancestor in table and ancestor != me and hops < 64:
            ancestor, hops = table[ancestor][0], hops + 1
        if ancestor == me or sid == session:
            out.append(pid)
    return out


def reap() -> None:
    """Collect every exited child (orphans included, as subreaper)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_tree(child: subprocess.Popen) -> List[int]:
    """End the child and its descendants; returns those that outlived it."""
    if child.poll() is None:
        # SIGTERM unwinds the workload like Ctrl-C, so its context
        # managers shut the lanes down; whatever is left gets SIGKILL.
        child.terminate()
        try:
            child.wait(timeout=STOP_S)
        except subprocess.TimeoutExpired:
            with contextlib.suppress(OSError):
                os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    deadline = time.monotonic() + GRACE_S
    stray = live_descendants(child.pid)
    while stray and time.monotonic() < deadline:
        time.sleep(0.05)
        reap()
        stray = live_descendants(child.pid)
    for pid in stray:
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
    while live_descendants(child.pid):
        time.sleep(0.05)
        reap()
    reap()
    return stray


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    for signum in (signal.SIGTERM, signal.SIGHUP, signal.SIGINT):
        signal.signal(signum, _interrupt)
    become_subreaper()
    segments_before = shm_segments()
    command = [
        sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    output, failure = "", ""
    try:
        output, _ = child.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        failure = f"workload exceeded {TIMEOUT_S:g} s"
    except Interrupted as signame:
        failure = f"interrupted by {signame}"
    finally:
        stray = stop_tree(child)
        if child.stdout is not None and not output:
            output = child.stdout.read() or ""
            child.stdout.close()
        leaked = shm_segments() - segments_before
        for name in leaked:
            with contextlib.suppress(OSError):
                (SHM / name).unlink(missing_ok=True)

    if stray:
        failure = failure or f"processes outlived the workload: {sorted(stray)}"
    if leaked:
        failure = failure or f"shared-memory segments left behind: {sorted(leaked)}"
    if failure:
        sys.stdout.write("".join(f"# {line}\n" for line in output.splitlines()))
        print(f"error: {failure}", file=sys.stderr)
        return 3
    sys.stdout.write(output)
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
