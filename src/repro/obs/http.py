"""A tiny asyncio HTTP endpoint exposing a registry to scrapers.

``GET /metrics`` answers the Prometheus text exposition format and
``GET /metrics.json`` the JSON snapshot — enough surface for a
Prometheus scrape job, a ``curl``, or the CI smoke step, without
pulling an HTTP framework into the dependency set.  The server shares
the event loop with the serving tier (``repro serve-net
--metrics-port``), so a scrape never blocks query traffic and vice
versa; rendering a snapshot is a pure read of the registry.

Only ``GET``/``HEAD`` on the two known paths are served; anything else
gets a 404/405 and the connection closes after every response
(``Connection: close`` — scrapers reconnect per scrape anyway).
"""

from __future__ import annotations

import asyncio
import json

from repro.errors import ServingError
from repro.obs.registry import MetricsRegistry

__all__ = ["MetricsHTTPServer"]

_MAX_REQUEST_BYTES = 8192


class MetricsHTTPServer:
    """Serve one :class:`~repro.obs.registry.MetricsRegistry` over HTTP.

    Use as an async context manager, or :meth:`start` / :meth:`stop`;
    bind ``port=0`` for an ephemeral port and read :attr:`port` after
    :meth:`start`.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._registry = registry
        self._host = host
        self._requested_port = int(port)
        self._server: "asyncio.AbstractServer | None" = None
        #: Scrapes answered with a 200 (monotone).
        self.scrapes = 0

    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServingError("metrics server is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "MetricsHTTPServer":
        if self._server is not None:
            raise ServingError("metrics server already started")
        self._server = await asyncio.start_server(
            self._handle, self._host, self._requested_port
        )
        return self

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is None:
            return
        server.close()
        await server.wait_closed()

    async def __aenter__(self) -> "MetricsHTTPServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def _respond(self, path: str) -> "tuple[int, str, str]":
        if path in ("/metrics", "/"):
            return 200, "text/plain; version=0.0.4; charset=utf-8", self._registry.render_prometheus()
        if path == "/metrics.json":
            return 200, "application/json", json.dumps(self._registry.snapshot()) + "\n"
        return 404, "text/plain; charset=utf-8", "not found\n"

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=10.0
                )
            except asyncio.LimitOverrunError:
                return
            except asyncio.IncompleteReadError as partial:
                head = partial.partial
                if b"\r\n" not in head and b"\n" not in head:
                    return
            if len(head) > _MAX_REQUEST_BYTES:
                return
            request_line = head.split(b"\r\n", 1)[0].split(b"\n", 1)[0]
            parts = request_line.decode("latin-1", "replace").split()
            if len(parts) < 2:
                return
            method, target = parts[0].upper(), parts[1]
            if method not in ("GET", "HEAD"):
                status, content_type, body = 405, "text/plain; charset=utf-8", "method not allowed\n"
            else:
                status, content_type, body = self._respond(target.split("?", 1)[0])
            if status == 200:
                self.scrapes += 1
            payload = body.encode("utf-8")
            reason = {200: "OK", 404: "Not Found", 405: "Method Not Allowed"}[status]
            writer.write(
                (
                    f"HTTP/1.1 {status} {reason}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
            )
            if method != "HEAD":
                writer.write(payload)
            await writer.drain()
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
