"""The acceptance e2e: SIGKILL a serving process mid-stream, recover, verify.

A real subprocess (``tests/resilience/_server.py fresh``) serves a
streaming tenant while durably ingesting stream batches.  The test
queries it under load, SIGKILLs it with work in flight, then:

* reads the generation the crashed server *durably* logged from
  ``doctor_report`` — recovery's dry run, which must call the dir
  recoverable,
* independently recovers the state dir with ``recover_host``,
* restarts a server from the same state dir and requires every answered
  query to be byte-identical to the independently recovered cluster —
  and the restarted server's replayed generation to match the durable
  one.
"""

from __future__ import annotations

import asyncio
import os
import re
import time

import pytest

from _chaos import kill_server, spawn_server
from repro.errors import ProtocolError, ReproError
from repro.resilience import doctor_report, recover_host
from repro.serving import NetClient

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")

_SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_server.py")
_INGESTED = re.compile(r"INGESTED (\d+) GEN (\d+)")
_GENERATION = re.compile(r"GENERATION (\S+) (\d+)")


def _read_ingests(proc, *, want: int, timeout_s: float = 120.0):
    """Collect ``(offset, generation)`` pairs until *want* arrive."""
    seen = []
    deadline = time.monotonic() + timeout_s
    while len(seen) < want and time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = _INGESTED.search(line)
        if match:
            seen.append((int(match.group(1)), int(match.group(2))))
    assert len(seen) >= want, f"server never streamed enough batches: {seen}"
    return seen


def test_crash_restart_recovers_byte_identical_state(tmp_path):
    state_dir = str(tmp_path / "state")
    proc, port = spawn_server([_SERVER, "fresh", state_dir])
    try:
        ingests = _read_ingests(proc, want=3)

        async def _load_then_kill():
            client = await NetClient.connect(
                "127.0.0.1", port, request_timeout_ms=2000.0
            )
            async with client:
                # Under load: answers flowing while the stream ingests.
                for node in range(6):
                    answer = await client.query("stream", node, "rwr")
                    assert answer.size
                # Kill with requests in flight — their errors must be
                # typed and bounded, not hangs.
                doomed = [
                    asyncio.ensure_future(client.query("stream", n, "rwr"))
                    for n in range(8)
                ]
                kill_server(proc)
                results = await asyncio.gather(*doomed, return_exceptions=True)
                for result in results:
                    assert not isinstance(result, BaseException) or isinstance(
                        result, (ProtocolError, ConnectionError, OSError, ReproError)
                    ), result

        asyncio.run(_load_then_kill())

        ingested_offsets = [offset for offset, _ in ingests]
        assert ingested_offsets == sorted(ingested_offsets)

        # What the crashed server durably logged, read without serving.
        report = doctor_report(state_dir)
        assert report["recoverable"], report
        described = report["tenants"]["stream"]["delta"]
        assert described["logged_offset"] >= ingests[-1][0]
        assert described["generation"] >= ingests[-1][1]

        # Independent recovery in-process: the reference answers.
        reference = recover_host(state_dir)["stream"]
        assert reference.generation == described["generation"]

        # Restart a server from the same durable state.
        restarted, new_port = spawn_server([_SERVER, "recover", state_dir])
        try:
            line = restarted.stdout.readline()
            match = _GENERATION.search(line)
            assert match, f"no generation line: {line!r}"
            assert match.group(1) == "stream"
            assert int(match.group(2)) == described["generation"]

            async def _verify():
                client = await NetClient.connect(
                    "127.0.0.1", new_port, request_timeout_ms=5000.0
                )
                async with client:
                    for node in range(16):
                        for query_type in ("rwr", "hop", "php"):
                            served = await client.query("stream", node, query_type)
                            expected = reference.cluster.answer(node, query_type)
                            assert served.tobytes() == expected.tobytes(), (
                                node,
                                query_type,
                            )

            asyncio.run(_verify())
        finally:
            kill_server(restarted)
    finally:
        if proc.poll() is None:
            kill_server(proc)
