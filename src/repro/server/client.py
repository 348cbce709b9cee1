"""Blocking client for the concurrent query service.

:class:`ServerClient` speaks the length-prefixed JSON protocol of
:mod:`repro.server.protocol` over one TCP connection (= one server-side
session).  It is deliberately synchronous — tests, benchmarks and the
``repro client`` CLI all want a plain call-and-return surface::

    from repro.server import ServerClient

    with ServerClient("127.0.0.1", 7411) as client:
        client.open("university")
        result = client.query("pi(TA * Grad)[TA]", values_of=["TA"])
        result.count          # 2
        result.values["TA"]   # the TA values (here: none carried)
        print(client.metrics())  # Prometheus snapshot over the wire

Error frames raise the matching :class:`~repro.server.protocol.ServerError`
subclass (``timeout`` → :class:`~repro.server.protocol.QueryTimeoutError`,
``overloaded`` → :class:`~repro.server.protocol.ServerOverloadedError`,
...), so callers handle structured failures as exceptions.

Cross-process tracing: ``query(trace=True)`` stamps a fresh trace
context (``trace_id`` + the client root's span id) into the request,
reconstructs the span tree the server returns
(:func:`~repro.obs.export.spans_from_wire`), rebases it onto this
process's ``perf_counter`` timeline, and mounts it under a local
``client.call`` root — :attr:`RemoteResult.tracer` then holds one
stitched end-to-end tree (client call → ``server.request`` →
``server.queue_wait`` + engine operator spans) ready for
:func:`~repro.obs.export.spans_to_tree` or a Chrome ``trace_event``
export.
"""

from __future__ import annotations

import select
import socket
import time
import uuid
from collections import deque
from typing import Any

from repro.obs.export import spans_from_wire
from repro.obs.span import Tracer
from repro.server.protocol import (
    ProtocolError,
    ServerError,
    error_to_exception,
    recv_frame,
    send_frame,
    wire_to_labels,
)

__all__ = ["RemoteResult", "ServerClient"]


def _rebase(span, offset: float) -> None:
    """Shift a reconstructed span tree onto this process's timeline.

    Server spans carry the *server's* ``perf_counter`` values; adding
    ``send_time - server_root_start`` places the server root exactly at
    the moment the client sent the request, preserving every relative
    duration.  On loopback the true clock skew is negligible, so the
    stitched tree nests correctly; across hosts it is still the honest
    best effort (relative durations stay exact, absolute placement is
    approximate).
    """
    for node, _ in span.walk():
        node.start += offset
        if node.end is not None:
            node.end += offset


class RemoteResult:
    """One query's response, materialized client-side.

    ``patterns`` holds the wire-encoded patterns of every page (the
    client follows ``cursor`` chains transparently unless told not to);
    ``values`` maps class name → sorted value list for each requested
    ``values_of`` class; ``explain``/``trace`` are present when requested.
    """

    def __init__(self, response: dict[str, Any]) -> None:
        self.count: int = int(response.get("count", 0))
        self.patterns: list[dict[str, Any]] = list(response.get("patterns", ()))
        self.values: dict[str, list[Any]] = dict(response.get("values", {}))
        self.explain: str | None = response.get("explain")
        self.trace: list[dict[str, Any]] | None = response.get("trace")
        self.strategy: str | None = response.get("strategy")
        self.elapsed_ms: float | None = response.get("elapsed_ms")
        self.queue_wait_ms: float | None = response.get("queue_wait_ms")
        self.cursor: str | None = response.get("cursor")
        #: Stamped trace id (``query(trace=True)`` / ``trace_stamp=True``).
        self.trace_id: str | None = response.get("trace_id")
        #: The stitched client+server span tree (``trace=True`` only).
        self.tracer: "Tracer | None" = None

    def labels(self) -> list[str]:
        """Human renderings of the patterns (``(ta1 grad1)``-style)."""
        return [wire_to_labels(p) for p in self.patterns]

    def __len__(self) -> int:
        return self.count

    def __str__(self) -> str:
        return f"RemoteResult({self.count} pattern(s), strategy={self.strategy})"


class ServerClient:
    """One blocking connection (= one session) to a query service."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ServerError(
                f"cannot connect to {host}:{port}: {exc}", "connection"
            ) from exc
        #: Notification frames (``view.delta``/``view.resync``/...) read
        #: off the wire while waiting for a response; drained in arrival
        #: order by :meth:`next_notification`.
        self._notifications: deque = deque()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _rpc(self, request: dict[str, Any]) -> dict[str, Any]:
        """One request/response round trip; error frames raise.

        The server may interleave subscription push frames ahead of the
        response (a session's own mutate delivers the view delta before
        the ack); anything carrying ``notify`` is buffered, the first
        non-notification frame is the response.
        """
        try:
            send_frame(self._sock, request)
            while True:
                response = recv_frame(self._sock)
                if response is None or "notify" not in response:
                    break
                self._notifications.append(response)
        except OSError as exc:
            raise ServerError(f"connection failed: {exc}", "connection") from exc
        if response is None:
            raise ProtocolError("server closed the connection")
        if not response.get("ok"):
            raise error_to_exception(response.get("error", {}))
        return response

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        """Round-trip liveness check; returns the session id and version."""
        return self._rpc({"op": "ping"})

    def open(self, database: str) -> dict[str, Any]:
        """Mount a server-side database for this session."""
        return self._rpc({"op": "open", "database": database})

    def query(
        self,
        q: str,
        *,
        values_of: "list[str] | tuple[str, ...]" = (),
        explain: bool = False,
        trace: bool = False,
        trace_stamp: bool = False,
        use_cache: bool = True,
        timeout: float | None = None,
        page_size: int | None = None,
        fetch_all: bool = True,
    ) -> RemoteResult:
        """Evaluate OQL text server-side and return a :class:`RemoteResult`.

        ``timeout`` is the *server-side* deadline (queue wait included);
        ``page_size`` bounds patterns per frame, and ``fetch_all=True``
        (default) follows the cursor until every page has arrived.

        ``trace=True`` stamps a trace context, asks the server for its
        span tree, and stitches it under a local ``client.call`` root
        (:attr:`RemoteResult.tracer`); ``trace_stamp=True`` stamps the
        context *without* span collection — the cheap mode that still
        correlates the server's event log by ``trace_id``.
        """
        request: dict[str, Any] = {
            "op": "query",
            "q": q,
            "explain": explain,
            "trace": trace,
            "use_cache": use_cache,
        }
        if values_of:
            request["values_of"] = list(values_of)
        if timeout is not None:
            request["timeout"] = timeout
        if page_size is not None:
            request["page_size"] = page_size

        tracer: Tracer | None = None
        root = None
        if trace or trace_stamp:
            trace_id = uuid.uuid4().hex
            span_id = uuid.uuid4().hex[:16]
            request["trace_ctx"] = {"trace_id": trace_id, "parent_span_id": span_id}
        if trace:
            tracer = Tracer()
            root = tracer.begin(
                "client.call",
                op="query",
                server=f"{self.host}:{self.port}",
                trace_id=trace_id,
                span_id=span_id,
            )
        sent_at = time.perf_counter()
        try:
            response = self._rpc(request)
        except BaseException as exc:
            if tracer is not None and root is not None:
                tracer.finish(root, error=type(exc).__name__)
            raise
        result = RemoteResult(response)
        while fetch_all and result.cursor is not None:
            page = self._rpc({"op": "fetch", "cursor": result.cursor})
            result.patterns.extend(page.get("patterns", ()))
            result.cursor = page.get("cursor")
        if tracer is not None and root is not None:
            for remote_root in spans_from_wire(result.trace or ()):
                _rebase(remote_root, sent_at - remote_root.start)
                root.children.append(remote_root)
            tracer.finish(root, output=result.count)
            result.tracer = tracer
        return result

    def mutate(
        self,
        mutations: "list[dict[str, Any]] | tuple[dict[str, Any], ...]",
        *,
        durable: bool = True,
    ) -> dict[str, Any]:
        """Apply a batch of mutations to the session's database.

        Each mutation is a dict with an ``action`` key::

            {"action": "insert",       "classes": ["TA", "Grad"], "value": None}
            {"action": "insert_value", "cls": "GPA", "value": 3.8}
            {"action": "link",   "a": ["TA", 3], "b": ["Grad", 3],
                                 "assoc": "isa_TA_Grad"}   # assoc optional
            {"action": "unlink", "a": [...], "b": [...]}
            {"action": "delete", "instance": ["GPA", 41]}
            {"action": "update", "instance": ["GPA", 41], "value": 3.9}

        With ``durable`` (the default) the server acknowledges only
        after its storage engine flushed the WAL — a returned response
        means the batch survives ``kill -9``.  The response carries
        ``applied``, per-action ``results`` (created OIDs for inserts)
        and the engine's ``durable_seq``.
        """
        return self._rpc(
            {"op": "mutate", "mutations": list(mutations), "durable": durable}
        )

    def fetch(self, cursor: str) -> dict[str, Any]:
        """One explicit page of a paged result (``patterns`` + ``cursor``)."""
        return self._rpc({"op": "fetch", "cursor": cursor})

    def metrics(self) -> str:
        """The server's Prometheus metrics snapshot, over the wire."""
        return str(self._rpc({"op": "metrics"})["prometheus"])

    def events(
        self,
        *,
        type: str | None = None,
        after: int | None = None,
        limit: int | None = None,
    ) -> dict[str, Any]:
        """The server's structured event ring (``events`` + ``last_seq``).

        ``after`` resumes from a sequence number — remember the returned
        ``last_seq`` and pass it back to tail-follow without replays.
        """
        request: dict[str, Any] = {"op": "events"}
        if type is not None:
            request["type"] = type
        if after is not None:
            request["after"] = after
        if limit is not None:
            request["limit"] = limit
        return self._rpc(request)

    # ------------------------------------------------------------------
    # materialized views
    # ------------------------------------------------------------------

    def views(self) -> list[dict[str, Any]]:
        """Info rows for the session database's materialized views."""
        return list(self._rpc({"op": "views"}).get("views", ()))

    def create_view(self, name: str, q: str) -> dict[str, Any]:
        """Define and materialize a server-side view from OQL text."""
        return self._rpc({"op": "create_view", "name": name, "q": q})

    def drop_view(self, name: str) -> dict[str, Any]:
        return self._rpc({"op": "drop_view", "name": name})

    def subscribe(self, view: str) -> dict[str, Any]:
        """Open a live delta feed on ``view``; returns the initial snapshot.

        The response carries ``version`` and the full ``patterns``
        snapshot; subsequent changes arrive as ``view.delta`` /
        ``view.resync`` notification frames — read them with
        :meth:`next_notification`.  Apply a delta only when its
        ``version`` exceeds the last one seen (the snapshot's included);
        on ``view.resync`` replace the local copy wholesale.
        """
        return self._rpc({"op": "subscribe", "view": view})

    def unsubscribe(self, view: str) -> dict[str, Any]:
        return self._rpc({"op": "unsubscribe", "view": view})

    def next_notification(
        self, timeout: float | None = None
    ) -> dict[str, Any] | None:
        """The next buffered or wire notification frame, else ``None``.

        Waits up to ``timeout`` seconds for a frame to *begin* arriving
        (``None`` = the connection's default timeout; ``0`` = poll), then
        reads it whole under the connection's default timeout — a short
        or zero ``timeout`` can therefore never abandon a frame half
        read.  Returns ``None`` on timeout; raises :class:`ProtocolError`
        if the server closes the connection or sends a non-notification
        frame while no request is in flight.
        """
        if self._notifications:
            return self._notifications.popleft()
        try:
            if timeout is not None and not select.select(
                [self._sock], [], [], timeout
            )[0]:
                return None
            frame = recv_frame(self._sock)
        except socket.timeout:
            return None
        except OSError as exc:
            raise ServerError(f"connection failed: {exc}", "connection") from exc
        if frame is None:
            raise ProtocolError(
                "server closed the connection while waiting for a notification"
            )
        if "notify" not in frame:
            raise ProtocolError(f"unexpected non-notification frame: {frame!r}")
        return frame

    def slow_queries(self, *, limit: int | None = None) -> dict[str, Any]:
        """Captured slow-query records (``slow_queries`` + ``total``)."""
        request: dict[str, Any] = {"op": "slow_queries"}
        if limit is not None:
            request["limit"] = limit
        return self._rpc(request)

    def close(self) -> None:
        """Polite goodbye (``close`` frame), then drop the socket."""
        try:
            self._rpc({"op": "close"})
        except (ServerError, ProtocolError):
            pass  # closing anyway
        finally:
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __str__(self) -> str:
        return f"ServerClient({self.host}:{self.port})"
