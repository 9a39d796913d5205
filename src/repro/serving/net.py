"""The network-facing serving tier: asyncio TCP in front of the tenants.

:class:`NetServer` binds a TCP socket and speaks the length-prefixed
protocol of :mod:`repro.serving.protocol` in front of a
:class:`~repro.serving.tenancy.TenantHost`:

* **Handshake** — the first frame of every connection is a JSON hello
  ``{"op": "hello", "encodings": [...]}``; the server picks the message
  encoding (msgpack when both sides have it, JSON otherwise), answers
  with the chosen encoding and the tenant directory, and the connection
  switches to it.
* **Pipelining** — query frames carry a client-chosen ``id`` and are
  answered concurrently, possibly out of order; the client matches
  replies by id.  One slow query never blocks the connection.
* **Faults** — a *corrupt frame* gets a typed error reply (best effort)
  and the connection is closed (the stream position is unrecoverable);
  other connections and tenants are unaffected.  A *dropped connection*
  cancels that connection's in-flight requests — the per-tenant ledger
  counts them under ``cancelled`` and still balances.  Worker deaths
  and slow machines are handled below the wire by the tenant servers'
  failover and hedging, invisibly to the client.

Replies are byte-exact: answers cross the wire via
:func:`~repro.serving.protocol.pack_array`, so a
:class:`NetClient` receives arrays byte-identical to
``cluster.answer(node, query_type)`` on the server — the same contract
as in-process serving, now pinned under injected faults by the chaos
suite in ``tests/serving/``.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import time
from typing import Any, Dict, List, Set

import numpy as np

from repro import errors as _errors
from repro.errors import CodecError, ProtocolError, ReproError, ServingError
from repro.obs import ObsConfig
from repro.queries.operator import query_node_id
from repro.resilience.policy import Deadline, RetryPolicy
from repro.serving.protocol import (
    FrameDecoder,
    MAX_FRAME_BYTES,
    MessageCodec,
    PROTOCOL_VERSION,
    available_encodings,
    decode_hello,
    encode_frame,
    negotiate_encoding,
    pack_array,
    unpack_array,
)
from repro.serving.tenancy import TenantHost

_READ_CHUNK = 65536


class _Connection:
    """Server-side per-connection state: codec, writer lock, live tasks."""

    def __init__(self, writer: asyncio.StreamWriter, max_frame: int):
        self.writer = writer
        self.codec = MessageCodec("json")
        self.decoder = FrameDecoder(max_frame=max_frame)
        self.max_frame = max_frame
        self.lock = asyncio.Lock()
        self.tasks: "Set[asyncio.Task]" = set()
        self.greeted = False

    async def send(self, message: Dict[str, Any]) -> None:
        frame = encode_frame(self.codec.encode(message), max_frame=self.max_frame)
        async with self.lock:
            self.writer.write(frame)
            await self.writer.drain()


class NetServer:
    """Serve a :class:`TenantHost` over TCP (loopback by default).

    Parameters
    ----------
    host_tenants:
        The started tenant host to answer from.  The server never owns
        it: start/stop it yourself (or let the CLI do both).
    host / port:
        Bind address; port ``0`` picks a free one (read :attr:`port`
        after :meth:`start`).
    max_frame:
        Per-frame byte cap enforced on both directions.
    deadline_ms:
        Default per-query deadline budget minted **here, at ingress**,
        and tightened by the client's optional per-query ``deadline_ms``
        field (neither side can extend the other).  The budget travels
        with the request through the tenant host into the batch payload;
        expired work is shed with a typed ``DeadlineExceeded`` error
        frame instead of computed.  ``None`` = unbounded.
    idle_timeout_ms:
        Per-connection mid-frame read deadline (the slow-loris bound).
        The clock arms when a partial frame starts buffering and re-arms
        only when a **complete frame** arrives — a peer trickling one
        byte at a time through a 16 MiB header never resets it and is
        closed with a typed fatal error frame; other connections are
        unaffected.  A connection idling *between* frames (a quiescent
        pipelined client) is never touched: holding an empty-buffered
        connection open costs nothing, holding megabytes of a
        never-finished frame does.  ``None`` (default) disables the
        bound.
    obs:
        Optional :class:`~repro.obs.ObsConfig`.  With a tracer, this is
        the **ingress edge**: every query frame mints a trace here, the
        id follows the request through the tenant host, the lanes, and
        the worker compute, and the answer-frame write is recorded as
        the ``reply`` span before the trace's ``total`` closes.  With a
        registry, the ``metrics`` wire op exposes it (Prometheus text or
        JSON snapshot) beside the ``stats`` op.  Normally the same
        config object the tenant host was built with.

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly.
    """

    def __init__(
        self,
        host_tenants: TenantHost,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame: int = MAX_FRAME_BYTES,
        deadline_ms: "float | None" = None,
        idle_timeout_ms: "float | None" = None,
        obs: "ObsConfig | None" = None,
    ):
        self._tenants = host_tenants
        self._host = host
        self._requested_port = int(port)
        self._max_frame = int(max_frame)
        if deadline_ms is not None and deadline_ms <= 0:
            raise ServingError(f"deadline_ms must be positive, got {deadline_ms}")
        if idle_timeout_ms is not None and idle_timeout_ms <= 0:
            raise ServingError(
                f"idle_timeout_ms must be positive, got {idle_timeout_ms}"
            )
        self._deadline_ms = None if deadline_ms is None else float(deadline_ms)
        self._idle_timeout = (
            None if idle_timeout_ms is None else float(idle_timeout_ms) / 1000.0
        )
        self._obs = obs if obs is not None and obs.enabled else None
        self._tracer = self._obs.tracer if self._obs is not None else None
        self._server: "asyncio.AbstractServer | None" = None
        self._connections: "Set[_Connection]" = set()
        #: Connections that ever completed a handshake (monotone).
        self.connections_accepted = 0
        #: Connections torn down because of a protocol violation.
        self.protocol_errors = 0

    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServingError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    @property
    def serving(self) -> bool:
        """Whether the TCP listener is up."""
        return self._server is not None

    async def start(self) -> "NetServer":
        if self._server is not None:
            raise ServingError("net server already started")
        if not self._tenants.started:
            raise ServingError("start the tenant host before the net server")
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._requested_port
        )
        return self

    async def stop(self) -> None:
        """Close the listener and every live connection."""
        server, self._server = self._server, None
        if server is None:
            return
        server.close()
        await server.wait_closed()
        for connection in tuple(self._connections):
            await self._close_connection(connection)

    async def __aenter__(self) -> "NetServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _close_connection(self, connection: _Connection) -> None:
        self._connections.discard(connection)
        for task in tuple(connection.tasks):
            # Cancelling the task cancels the request future it awaits,
            # so the tenant ledger counts the request as cancelled.
            task.cancel()
        if connection.tasks:
            await asyncio.gather(*tuple(connection.tasks), return_exceptions=True)
        try:
            connection.writer.close()
            await connection.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(writer, self._max_frame)
        self._connections.add(connection)
        loop = asyncio.get_running_loop()
        idle = self._idle_timeout
        read_deadline: "float | None" = None  # armed only mid-frame
        try:
            while True:
                if read_deadline is None:
                    data = await reader.read(_READ_CHUNK)
                else:
                    try:
                        data = await asyncio.wait_for(
                            reader.read(_READ_CHUNK),
                            max(0.0, read_deadline - loop.time()),
                        )
                    except asyncio.TimeoutError:
                        raise ProtocolError(
                            f"connection stalled mid-frame "
                            f"({connection.decoder.pending_bytes} byte(s) buffered, "
                            f"no complete frame in {idle * 1000:.0f} ms)"
                        ) from None
                if not data:
                    connection.decoder.assert_drained()
                    break
                frames = connection.decoder.feed(data)
                if idle is not None:
                    if connection.decoder.pending_bytes == 0:
                        read_deadline = None  # between frames: no clock
                    elif frames or read_deadline is None:
                        # A partial frame just started (or real progress
                        # — a completed frame — was made): (re-)arm.
                        # Mere trickled bytes never reach this branch.
                        read_deadline = loop.time() + idle
                for payload in frames:
                    await self._handle_frame(connection, payload)
        except ProtocolError as error:
            self.protocol_errors += 1
            await self._send_protocol_error(connection, error)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # client went away; request cancellation happens below
        finally:
            await self._close_connection(connection)

    async def _send_protocol_error(self, connection: _Connection, error: ProtocolError) -> None:
        """Best-effort typed error before closing a corrupted connection."""
        try:
            await connection.send(
                {
                    "op": "error",
                    "id": None,
                    "kind": type(error).__name__,
                    "message": str(error),
                    "fatal": True,
                }
            )
        except (ConnectionError, OSError, ProtocolError):
            pass

    async def _handle_frame(self, connection: _Connection, payload: bytes) -> None:
        if not connection.greeted:
            await self._handshake(connection, payload)
            return
        message = connection.codec.decode(payload)
        op = message.get("op")
        if op == "query":
            task = asyncio.create_task(self._serve_query(connection, message))
            connection.tasks.add(task)
            task.add_done_callback(connection.tasks.discard)
        elif op == "stats":
            await self._reply_stats(connection, message)
        elif op == "metrics":
            await self._reply_metrics(connection, message)
        elif op == "tenants":
            await connection.send(
                {"op": "tenants", "id": message.get("id"), "tenants": self._tenants.tenants()}
            )
        elif op == "health":
            await self._reply_health(connection, message)
        elif op == "ping":
            await connection.send({"op": "pong", "id": message.get("id")})
        else:
            raise CodecError(f"unknown or missing op {op!r}")

    async def _handshake(self, connection: _Connection, payload: bytes) -> None:
        hello = decode_hello(payload)
        if hello.get("op") != "hello":
            raise CodecError(f"first frame must be a hello, got op {hello.get('op')!r}")
        offered = hello.get("encodings", ["json"])
        if not isinstance(offered, list):
            raise CodecError("hello 'encodings' must be a list")
        encoding = negotiate_encoding(offered)
        # The hello reply is still JSON (the client only switches after
        # reading it); every later frame uses the negotiated codec.
        await connection.send(
            {
                "op": "hello",
                "protocol": PROTOCOL_VERSION,
                "encoding": encoding,
                "tenants": self._tenants.tenants(),
            }
        )
        connection.codec = MessageCodec(encoding)
        connection.greeted = True
        self.connections_accepted += 1

    async def _reply_stats(self, connection: _Connection, message: Dict[str, Any]) -> None:
        """Ledger snapshots over the wire (fields: ``STATS_FIELDS``).

        ``tenant`` picks one tenant's full ledger — every
        :class:`~repro.serving.server.ServingStats` field, hedging,
        failover and host-level ``inflight`` / rejection counts included.
        ``tenant: "*"`` answers the host-wide
        aggregate (:meth:`~repro.serving.tenancy.TenantHost.aggregate_stats`);
        omitting it answers every tenant keyed by name.
        """
        name = message.get("tenant")
        try:
            if name is None:
                stats: Any = self._tenants.all_stats()
            elif name == "*":
                stats = self._tenants.aggregate_stats()
            else:
                stats = self._tenants.all_stats()[str(name)]
        except KeyError:
            await self._reply_error(
                connection, message, _errors.TenantError(f"unknown tenant {name!r}")
            )
            return
        await connection.send({"op": "stats", "id": message.get("id"), "stats": stats})

    async def _reply_metrics(self, connection: _Connection, message: Dict[str, Any]) -> None:
        """The ``metrics`` wire op: the server's registry, rendered.

        ``format: "json"`` (default) ships the mergeable snapshot dict;
        ``format: "prometheus"`` ships the text exposition.  A server
        running without a metrics registry answers a non-fatal error.
        """
        registry = self._obs.registry if self._obs is not None else None
        if registry is None:
            await self._reply_error(
                connection,
                message,
                ServingError("metrics are not enabled on this server"),
            )
            return
        fmt = message.get("format", "json")
        if fmt == "prometheus":
            await connection.send(
                {
                    "op": "metrics",
                    "id": message.get("id"),
                    "format": "prometheus",
                    "text": registry.render_prometheus(),
                }
            )
        elif fmt == "json":
            await connection.send(
                {
                    "op": "metrics",
                    "id": message.get("id"),
                    "format": "json",
                    "snapshot": registry.snapshot(),
                }
            )
        else:
            await self._reply_error(
                connection,
                message,
                _errors.CodecError(f"unknown metrics format {fmt!r}"),
            )

    async def _reply_health(self, connection: _Connection, message: Dict[str, Any]) -> None:
        """The ``health`` wire op: lane liveness and respawns, breakers.

        The payload is :meth:`~repro.serving.tenancy.TenantHost.health`
        — per-lane liveness, worker pids and the executor's respawn
        count, and every tenant's deadline-burn breaker — plus this
        server's connection count.
        """
        payload = dict(self._tenants.health())
        payload["connections"] = len(self._connections)
        await connection.send(
            {"op": "health", "id": message.get("id"), "health": payload}
        )

    async def _reply_error(
        self, connection: _Connection, message: Dict[str, Any], error: BaseException
    ) -> None:
        reply = {
            "op": "error",
            "id": message.get("id"),
            "kind": type(error).__name__,
            "message": str(error),
            "fatal": False,
        }
        # Overloaded / CircuitOpen sheds carry their cooldown hint so a
        # resilient client backs off for the right amount of time.
        hint = getattr(error, "retry_after_ms", None)
        if hint:
            reply["retry_after_ms"] = float(hint)
        await connection.send(reply)

    async def _serve_query(self, connection: _Connection, message: Dict[str, Any]) -> None:
        handle = None
        try:
            tenant = message.get("tenant")
            node = message.get("node")
            query_type = message.get("type")
            if not isinstance(tenant, str) or not isinstance(node, int) or isinstance(node, bool):
                raise _errors.QueryError(
                    "query needs a string 'tenant' and an integer 'node'"
                )
            if not isinstance(query_type, str):
                raise _errors.QueryError("query needs a string 'type'")
            budget = message.get("deadline_ms")
            if budget is not None and (
                not isinstance(budget, (int, float)) or isinstance(budget, bool)
            ):
                raise _errors.QueryError("query 'deadline_ms' must be a number")
            deadline = None
            if self._deadline_ms is not None or budget is not None:
                # Ingress minting: the server's default budget tightened
                # by the client's hint — neither side can extend the other.
                deadline = Deadline.after_ms(self._deadline_ms).tighten(
                    None if budget is None else float(budget)
                )
            if self._tracer is not None:
                # The ingress edge: the trace is minted here and its id
                # follows the request through the tenant host, the lane
                # dispatch, and the worker's compute span.
                handle = self._tracer.begin(
                    "query",
                    tenant=tenant,
                    node=node,
                    query_type=query_type,
                    transport="tcp",
                )
            answer = await self._tenants.submit(
                tenant, node, query_type, trace=handle, deadline=deadline
            )
        except asyncio.CancelledError:
            if handle is not None:
                handle.finish(status="cancelled")
            raise
        except ReproError as error:
            if handle is not None:
                handle.finish(status=type(error).__name__)
            try:
                await self._reply_error(connection, message, error)
            except (ConnectionError, OSError):
                pass
            return
        try:
            t_reply = time.perf_counter()
            await connection.send(
                {"op": "answer", "id": message.get("id"), "answer": pack_array(answer)}
            )
            if handle is not None:
                self._tracer.record(
                    handle.trace_id,
                    "reply",
                    time.perf_counter() - t_reply,
                    values=int(answer.size),
                )
                handle.finish(status="ok")
        except (ConnectionError, OSError):
            # Client disconnected between answer and delivery.
            if handle is not None:
                handle.finish(status="lost")


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
class NetClient:
    """Asyncio client for :class:`NetServer` (pipelined, id-matched).

    Build with :meth:`connect`; use as an async context manager or call
    :meth:`close` explicitly.  Error frames raise the server-side
    exception type re-mapped locally (``kind`` → :mod:`repro.errors`),
    so ``QueryError`` over the wire is ``QueryError`` here.

    ``request_timeout_ms`` bounds every request's wait for a reply *on
    the client's own clock*.  This matters beyond slow servers: when a
    serving process forked lane workers after accepting this connection,
    the workers hold duplicates of the socket fd — SIGKILL the server
    and the TCP connection stays open, so the read loop never sees EOF
    and an unbounded ``await`` would hang forever.  The local bound
    turns that into a typed :class:`~repro.errors.ProtocolError` (and a
    per-query ``deadline_ms`` bounds that query at its budget plus a
    small grace for the server's own shed reply to arrive first).
    """

    #: Extra client-side wait beyond a query's deadline budget, so the
    #: server's typed DeadlineExceeded reply wins the race against the
    #: local timeout when both fire.
    DEADLINE_GRACE_MS = 250.0

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_frame: int = MAX_FRAME_BYTES,
        request_timeout_ms: "float | None" = None,
    ):
        self._reader = reader
        self._writer = writer
        self._max_frame = int(max_frame)
        if request_timeout_ms is not None and request_timeout_ms <= 0:
            raise ServingError(
                f"request_timeout_ms must be positive, got {request_timeout_ms}"
            )
        self._request_timeout_ms = (
            None if request_timeout_ms is None else float(request_timeout_ms)
        )
        self._codec = MessageCodec("json")
        self._decoder = FrameDecoder(max_frame=max_frame)
        self._ids = itertools.count(1)
        self._replies: "Dict[Any, asyncio.Future]" = {}
        self._reader_task: "asyncio.Task | None" = None
        self._closed = False
        self._broken: "BaseException | None" = None
        self.encoding = "json"
        self.tenants: List[str] = []

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        encodings: "List[str] | None" = None,
        max_frame: int = MAX_FRAME_BYTES,
        request_timeout_ms: "float | None" = None,
    ) -> "NetClient":
        """Open a connection and complete the hello handshake."""
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(
            reader, writer, max_frame=max_frame, request_timeout_ms=request_timeout_ms
        )
        try:
            await client._handshake(encodings or list(available_encodings()))
        except BaseException:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            raise
        return client

    async def _handshake(self, encodings: List[str]) -> None:
        await self._send(
            {"op": "hello", "protocol": PROTOCOL_VERSION, "encodings": encodings}
        )
        reply = await self._read_message()
        if reply.get("op") == "error":
            raise self._map_error(reply)
        if reply.get("op") != "hello":
            raise ProtocolError(f"expected hello reply, got op {reply.get('op')!r}")
        encoding = reply.get("encoding")
        self._codec = MessageCodec(str(encoding))
        self.encoding = str(encoding)
        self.tenants = [str(t) for t in reply.get("tenants", [])]
        self._reader_task = asyncio.create_task(self._read_loop())

    async def _send(self, message: Dict[str, Any]) -> None:
        self._writer.write(
            encode_frame(self._codec.encode(message), max_frame=self._max_frame)
        )
        await self._writer.drain()

    async def _read_message(self) -> Dict[str, Any]:
        """One decoded message, for the pre-pipelining handshake phase."""
        while True:
            frames = self._decoder.feed(b"")
            if not frames:
                data = await self._reader.read(_READ_CHUNK)
                if not data:
                    raise ProtocolError("connection closed during handshake")
                frames = self._decoder.feed(data)
            if frames:
                message = self._codec.decode(frames[0])
                for extra in frames[1:]:
                    self._dispatch(self._codec.decode(extra))
                return message

    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self._reader.read(_READ_CHUNK)
                if not data:
                    break
                for payload in self._decoder.feed(data):
                    self._dispatch(self._codec.decode(payload))
        except (ConnectionError, OSError, ProtocolError) as error:
            self._fail_all(error)
            return
        self._fail_all(ProtocolError("server closed the connection"))

    def _dispatch(self, message: Dict[str, Any]) -> None:
        message_id = message.get("id")
        future = self._replies.pop(message_id, None)
        if future is None or future.done():
            if message.get("op") == "error" and message.get("fatal"):
                self._fail_all(self._map_error(message))
            return
        future.set_result(message)

    def _fail_all(self, error: BaseException) -> None:
        # Once the connection is dead, later requests must fail fast
        # instead of registering reply futures nothing will resolve.
        if self._broken is None:
            self._broken = error
        replies, self._replies = self._replies, {}
        for future in replies.values():
            if not future.done():
                future.set_exception(error)

    @staticmethod
    def _map_error(message: Dict[str, Any]) -> ReproError:
        kind = str(message.get("kind", "ServingError"))
        text = str(message.get("message", "remote error"))
        exc_type = getattr(_errors, kind, None)
        if isinstance(exc_type, type) and issubclass(exc_type, ReproError):
            hint = message.get("retry_after_ms")
            if hint is not None:
                try:
                    return exc_type(text, retry_after_ms=float(hint))
                except TypeError:
                    pass  # error type without a retry_after_ms keyword
            return exc_type(text)
        return ServingError(f"{kind}: {text}")

    async def _request(
        self, message: Dict[str, Any], *, timeout_ms: "float | None" = None
    ) -> Dict[str, Any]:
        if self._closed:
            raise ServingError("client is closed")
        if self._broken is not None:
            raise self._broken
        if timeout_ms is None:
            timeout_ms = self._request_timeout_ms
        message_id = next(self._ids)
        message["id"] = message_id
        future: "asyncio.Future[Dict[str, Any]]" = asyncio.get_running_loop().create_future()
        self._replies[message_id] = future
        try:
            await self._send(message)
        except BaseException:
            self._replies.pop(message_id, None)
            raise
        if timeout_ms is None:
            reply = await future
        else:
            try:
                reply = await asyncio.wait_for(future, timeout_ms / 1000.0)
            except asyncio.TimeoutError:
                # The reply may never come (dead server behind a TCP
                # connection kept open by forked-worker fd duplicates):
                # surface a typed local error instead of hanging.
                self._replies.pop(message_id, None)
                raise ProtocolError(
                    f"no reply to request {message_id} within {timeout_ms:.0f} ms"
                ) from None
        if reply.get("op") == "error":
            raise self._map_error(reply)
        return reply

    async def query(
        self,
        tenant: str,
        node: int,
        query_type: str,
        *,
        deadline_ms: "float | None" = None,
    ) -> np.ndarray:
        """Answer one query over the wire; byte-identical to the cluster's.

        A non-integral or boolean *node* raises
        :class:`~repro.errors.QueryError` before anything is sent.
        *deadline_ms* ships with the request — the server tightens its
        own budget with it and sheds expired work with a typed
        ``DeadlineExceeded`` — and also bounds the local wait at the
        budget plus :data:`DEADLINE_GRACE_MS`.
        """
        message: "Dict[str, Any]" = {
            "op": "query",
            "tenant": tenant,
            "node": query_node_id(node),
            "type": query_type,
        }
        timeout_ms = None
        if deadline_ms is not None:
            message["deadline_ms"] = float(deadline_ms)
            timeout_ms = float(deadline_ms) + self.DEADLINE_GRACE_MS
            if self._request_timeout_ms is not None:
                timeout_ms = min(timeout_ms, self._request_timeout_ms)
        reply = await self._request(message, timeout_ms=timeout_ms)
        if reply.get("op") != "answer":
            raise ProtocolError(f"expected an answer, got op {reply.get('op')!r}")
        return unpack_array(reply.get("answer"))

    async def stats(self, tenant: "str | None" = None) -> Dict[str, Any]:
        """One tenant's ledger snapshot, or every tenant's when ``None``.

        ``tenant="*"`` answers the host-wide aggregate instead.  Field
        meanings: :data:`~repro.serving.server.STATS_FIELDS`.
        """
        reply = await self._request({"op": "stats", "tenant": tenant})
        stats = reply.get("stats")
        if not isinstance(stats, dict):
            raise ProtocolError("malformed stats reply")
        return stats

    async def aggregate_stats(self) -> Dict[str, Any]:
        """The host-wide ledger: every tenant's counters folded together."""
        return await self.stats("*")

    async def metrics(self, format: str = "json") -> Any:
        """The server's metrics registry, rendered.

        ``format="json"`` returns the snapshot dict (mergeable via
        :meth:`~repro.obs.MetricsRegistry.merge_snapshot`);
        ``format="prometheus"`` returns the text exposition as a string.
        Raises :class:`~repro.errors.ServingError` when the server runs
        without a registry.
        """
        reply = await self._request({"op": "metrics", "format": format})
        if reply.get("op") != "metrics":
            raise ProtocolError(f"expected a metrics reply, got op {reply.get('op')!r}")
        if format == "prometheus":
            return str(reply.get("text", ""))
        snapshot = reply.get("snapshot")
        if not isinstance(snapshot, dict):
            raise ProtocolError("malformed metrics reply")
        return snapshot

    async def health(self) -> Dict[str, Any]:
        """The server's resilience snapshot (the ``health`` wire op).

        Per-lane liveness (``lanes``), worker pids (``lane_pids``) and
        the count of replaced workers (``respawns``), every tenant's
        deadline-burn breaker (``tenant_breakers``), and the live
        connection count.
        """
        reply = await self._request({"op": "health"})
        payload = reply.get("health")
        if not isinstance(payload, dict):
            raise ProtocolError("malformed health reply")
        return payload

    async def list_tenants(self) -> List[str]:
        """The server's current tenant directory."""
        reply = await self._request({"op": "tenants"})
        return [str(t) for t in reply.get("tenants", [])]

    async def ping(self) -> bool:
        """Round-trip liveness probe."""
        reply = await self._request({"op": "ping"})
        return reply.get("op") == "pong"

    async def send_raw(self, data: bytes) -> None:
        """Ship raw bytes down the socket (chaos harness: corrupt frames)."""
        self._writer.write(data)
        await self._writer.drain()

    def _shutdown_socket(self) -> None:
        # OS-level shutdown, not just fd close: if this process forked
        # (e.g. serving-lane workers) after connecting, children hold
        # duplicates of this fd and a plain close would leave the TCP
        # connection alive — the server would never see the disconnect.
        # shutdown() tears the connection down regardless of dup'd fds.
        sock = self._writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def abort(self) -> None:
        """Hard-drop the connection without a goodbye (chaos harness)."""
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
        self._fail_all(ServingError("connection aborted"))
        self._shutdown_socket()
        self._writer.transport.abort()

    async def close(self) -> None:
        """Graceful shutdown: stop reading, close the socket."""
        if self._closed:
            return
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            await asyncio.gather(self._reader_task, return_exceptions=True)
        self._fail_all(ServingError("client closed"))
        self._shutdown_socket()
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "NetClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()


class ResilientClient:
    """A :class:`NetClient` that reconnects and retries under faults.

    Queries are idempotent (pure reads against an immutable-at-answer
    cluster state) and replies are id-matched, so a query that died with
    its connection can safely be re-sent on a fresh one.  The retry loop
    is driven by a :class:`~repro.resilience.policy.RetryPolicy`
    (deterministic capped backoff):

    * **connection-level faults** — refused connects, dropped
      connections, local request timeouts (``ProtocolError`` /
      ``ConnectionError`` / ``OSError``) — drop the connection,
      back off, reconnect, and re-send;
    * **server sheds** — :class:`~repro.errors.Overloaded` /
      :class:`~repro.errors.CircuitOpen` error frames — back off by at
      least the server's ``retry_after_ms`` hint, on the same
      connection;
    * everything else (``QueryError``, ``TenantError``,
      ``DeadlineExceeded``, …) is not retried: the request itself is
      wrong or its budget is spent, and a retry would just repeat that.

    Build with :meth:`connect`; use as an async context manager.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        retry: "RetryPolicy | None" = None,
        request_timeout_ms: "float | None" = None,
        encodings: "List[str] | None" = None,
        max_frame: int = MAX_FRAME_BYTES,
    ):
        self._host = host
        self._port = int(port)
        self._retry = retry if retry is not None else RetryPolicy()
        self._request_timeout_ms = request_timeout_ms
        self._encodings = encodings
        self._max_frame = int(max_frame)
        self._client: "NetClient | None" = None
        self._closed = False
        #: Fresh connections established (first connect included).
        self.connects = 0
        #: Requests re-sent after a fault or shed.
        self.retries = 0

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        retry: "RetryPolicy | None" = None,
        request_timeout_ms: "float | None" = None,
        encodings: "List[str] | None" = None,
        max_frame: int = MAX_FRAME_BYTES,
    ) -> "ResilientClient":
        """Open the first connection (retried under the policy) and return."""
        client = cls(
            host,
            port,
            retry=retry,
            request_timeout_ms=request_timeout_ms,
            encodings=encodings,
            max_frame=max_frame,
        )
        await client._ensure_connected(attempt=1)
        return client

    @property
    def client(self) -> "NetClient | None":
        """The live underlying :class:`NetClient` (``None`` when down)."""
        return self._client

    async def _ensure_connected(self, *, attempt: int) -> NetClient:
        """The live client, (re)connecting with backoff as needed."""
        if self._closed:
            raise ServingError("client is closed")
        if self._client is not None and self._client._broken is None:
            return self._client
        await self._drop_connection()
        last: "BaseException | None" = None
        while True:
            try:
                self._client = await NetClient.connect(
                    self._host,
                    self._port,
                    encodings=self._encodings,
                    max_frame=self._max_frame,
                    request_timeout_ms=self._request_timeout_ms,
                )
                self.connects += 1
                return self._client
            except (ConnectionError, OSError, ProtocolError) as error:
                last = error
                if not self._retry.should_retry(attempt):
                    raise ProtocolError(
                        f"could not connect to {self._host}:{self._port} "
                        f"after {attempt} attempt(s): {last}"
                    ) from last
                await asyncio.sleep(
                    self._retry.backoff_ms(attempt, key="connect") / 1000.0
                )
                attempt += 1

    async def _drop_connection(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            await client.close()

    async def _call(self, op: str, method: str, *args, **kwargs):
        """Run one idempotent client method under the retry policy."""
        attempt = 1
        while True:
            try:
                client = await self._ensure_connected(attempt=attempt)
                return await getattr(client, method)(*args, **kwargs)
            except (_errors.Overloaded, _errors.CircuitOpen) as error:
                # Explicit shed: the connection is fine, the server just
                # wants us to wait — honor its hint over our own backoff.
                if not self._retry.should_retry(attempt):
                    raise
                delay_ms = max(
                    self._retry.backoff_ms(attempt, key=op), error.retry_after_ms
                )
                self.retries += 1
                attempt += 1
                await asyncio.sleep(delay_ms / 1000.0)
            except (ConnectionError, OSError, ProtocolError):
                await self._drop_connection()
                if not self._retry.should_retry(attempt):
                    raise
                delay_ms = self._retry.backoff_ms(attempt, key=op)
                self.retries += 1
                attempt += 1
                await asyncio.sleep(delay_ms / 1000.0)

    async def query(
        self,
        tenant: str,
        node: int,
        query_type: str,
        *,
        deadline_ms: "float | None" = None,
    ) -> np.ndarray:
        """One query, retried across reconnects; byte-identical answers."""
        return await self._call(
            f"query:{tenant}:{node}",
            "query",
            tenant,
            query_node_id(node),
            query_type,
            deadline_ms=deadline_ms,
        )

    async def stats(self, tenant: "str | None" = None) -> Dict[str, Any]:
        """Ledger snapshot(s), retried across reconnects."""
        return await self._call("stats", "stats", tenant)

    async def health(self) -> Dict[str, Any]:
        """The server's resilience snapshot, retried across reconnects."""
        return await self._call("health", "health")

    async def ping(self) -> bool:
        """Liveness probe, retried across reconnects."""
        return await self._call("ping", "ping")

    async def close(self) -> None:
        """Close the underlying connection and refuse further requests."""
        self._closed = True
        await self._drop_connection()

    async def __aenter__(self) -> "ResilientClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()
