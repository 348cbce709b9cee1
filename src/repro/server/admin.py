"""HTTP admin endpoint: health, readiness, metrics, events, slow queries.

A deliberately tiny HTTP/1.1 server (asyncio streams on the service's
existing event loop, no dependencies) bound to a *side port* so that
operational probes never compete with query traffic on the wire-protocol
listener.  GET routes:

* ``/healthz`` — liveness: ``200 ok`` while the event loop is alive;
* ``/readyz`` — readiness: ``200`` once the default database is mounted
  and the service is not draining, ``503`` otherwise; the JSON body says
  which (``{"ready": ..., "draining": ..., "databases": [...]}``);
* ``/metrics`` — the shared registry in Prometheus text exposition
  format (scrape this);
* ``/events?type=T&after=N&limit=N`` — the structured event ring as a
  JSON array (``after`` resumes from a sequence number);
* ``/slow-queries?limit=N`` — captured slow-query records as JSON;
* ``/views`` — one row per materialized view across mounted databases
  (name, definition, pattern count, change version, scoped recomputes).

Anything else is ``404``; non-GET methods are ``405``.  Responses are
``Connection: close`` — every probe is one short-lived connection, which
keeps the implementation honest (no keep-alive state) and is exactly how
``curl``/Kubernetes probes behave anyway.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.server.service import QueryService

__all__ = ["AdminServer"]

_MAX_REQUEST_BYTES = 8192

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    503: "Service Unavailable",
}


class AdminServer:
    """The admin side-port of one :class:`~repro.server.service.QueryService`."""

    def __init__(self, service: "QueryService") -> None:
        self.service = service
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None

    async def start(self, host: str, port: int) -> None:
        """Bind the admin listener; ``self.port`` holds the actual port."""
        self._server = await asyncio.start_server(self._handle, host, port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listener (in-flight probe responses finish on close)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            raw = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=10.0
            )
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            asyncio.TimeoutError,
            ConnectionError,
        ):
            writer.close()
            return
        if len(raw) > _MAX_REQUEST_BYTES:
            await self._respond(writer, 400, "text/plain", "request too large\n")
            return
        request_line = raw.split(b"\r\n", 1)[0].decode("latin-1", "replace")
        parts = request_line.split()
        if len(parts) != 3:
            await self._respond(writer, 400, "text/plain", "malformed request\n")
            return
        method, target, _version = parts
        if method != "GET":
            await self._respond(writer, 405, "text/plain", "GET only\n")
            return
        status, content_type, body = self._route(target)
        await self._respond(writer, status, content_type, body)

    def _route(self, target: str) -> tuple[int, str, str]:
        """Dispatch one GET target to ``(status, content-type, body)``."""
        url = urlsplit(target)
        params = parse_qs(url.query)

        def _int_param(name: str) -> int | None:
            values = params.get(name)
            if not values:
                return None
            try:
                return int(values[0])
            except ValueError:
                return None

        path = url.path.rstrip("/") or "/"
        if path == "/healthz":
            return 200, "text/plain; charset=utf-8", "ok\n"
        if path == "/readyz":
            snapshot = self.service.readiness()
            status = 200 if snapshot["ready"] else 503
            return (
                status,
                "application/json",
                json.dumps(snapshot, sort_keys=True) + "\n",
            )
        if path == "/metrics":
            from repro.obs.export import metrics_to_prometheus

            return (
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                metrics_to_prometheus(self.service.metrics),
            )
        if path == "/events":
            type_values = params.get("type")
            events = self.service.events.events(
                type=type_values[0] if type_values else None,
                after=_int_param("after"),
                limit=_int_param("limit"),
            )
            body = json.dumps(
                [event.to_dict() for event in events], sort_keys=True, default=str
            )
            return 200, "application/json", body + "\n"
        if path == "/views":
            body = json.dumps(self.service.view_rows(), sort_keys=True, default=str)
            return 200, "application/json", body + "\n"
        if path == "/slow-queries":
            records = self.service.slow_queries.records(limit=_int_param("limit"))
            body = json.dumps(records, sort_keys=True, default=str)
            return 200, "application/json", body + "\n"
        return 404, "text/plain; charset=utf-8", f"no route {url.path}\n"

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, content_type: str, body: str
    ) -> None:
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        try:
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    def __str__(self) -> str:
        return f"AdminServer(port={self.port})"
