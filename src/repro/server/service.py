"""The concurrent query service: asyncio TCP server over ``Database.query``.

One :class:`QueryService` owns

* a catalog of named, lazily mounted :class:`~repro.engine.database.Database`
  instances — the bundled datasets plus an optional JSON snapshot — shared
  by every session (queries are read-only; concurrent readers are safe,
  see ``tests/test_thread_safety.py``);
* a per-connection :class:`Session` (current database, open paging
  cursors, request counter);
* a bounded admission pipeline: at most ``max_concurrency`` queries
  execute at once on a worker thread pool (the asyncio loop never blocks
  on engine work), at most ``queue_limit`` more may wait for a slot, and
  anything beyond that is *shed* with a structured ``overloaded`` error
  instead of a dropped connection;
* per-request deadlines: a request carries its own ``timeout`` (capped
  by ``max_deadline``); the budget covers queue wait plus execution, and
  an expiry returns a structured ``timeout`` error while other in-flight
  requests keep running (the abandoned engine call finishes on its worker
  thread and releases its slot then — cancellation is cooperative at the
  await point, best-effort at the engine);
* graceful drain: :meth:`stop` closes the listener, lets in-flight
  requests finish (up to ``drain_timeout``), answers anything newly read
  with ``shutting_down``, then closes the connections.

Observability: the service registers
``repro_server_requests_total{op,status}``, ``repro_server_inflight``,
``repro_server_queue_depth``, ``repro_server_request_seconds``,
``repro_server_queue_wait_seconds`` and ``repro_server_shed_total`` in
its :class:`~repro.obs.metrics.MetricsRegistry`, which is shared with
every mounted database — one ``metrics`` frame returns the whole
engine's Prometheus snapshot over the wire.  Beyond metrics, the live
observability pipeline has three more pieces (``docs/observability.md``,
"Operating the service"):

* a **structured event log** (:class:`~repro.obs.events.EventLog`)
  shared with every mounted database: request start/finish, admission
  sheds, timeouts, mutation batches, plan-cache invalidations and stats
  refreshes all land in one bounded ring, drained by the
  ``events`` wire op / ``/events`` admin route / ``repro events`` CLI;
* **cross-process trace propagation**: a request may carry a
  ``trace_ctx`` (``trace_id`` + ``parent_span_id``); the service stamps
  both into its events and — when ``trace`` is requested — stitches a
  ``server.request`` span above the engine's span tree with an explicit
  ``server.queue_wait`` child covering admission wait, so the client can
  mount the returned tree under its own ``client.call`` root;
* a **slow-query log** (:class:`~repro.obs.events.SlowQueryLog`):
  queries over ``slow_query_threshold`` seconds (or whose EXPLAIN run
  shows a q-error over ``slow_query_q_error``) capture query text, the
  physical plan with strategy annotations, per-node est/actual
  cardinalities and q-errors, stats version and admission state.

With ``admin_port`` configured, an HTTP side port
(:class:`~repro.server.admin.AdminServer`) serves ``/healthz``,
``/readyz``, ``/metrics``, ``/events``, ``/slow-queries`` and ``/views``.

**Live view subscriptions** (``docs/views.md``): a session may
``subscribe`` to a materialized view of its current database.  The
service registers one :class:`~repro.views.registry.ViewRegistry`
listener per mounted database; view deltas are built into wire frames on
the mutating worker thread and handed to the event loop, which fans them
out into a bounded per-subscription queue (``subscription_queue``).  A
full queue drops the backlog and marks the subscription for **resync** —
the next flush sends one ``view.resync`` frame carrying the complete
current materialization instead of the lost deltas, so a subscriber
never sees a gap it cannot detect.  Push frames are written under a
per-session write lock, and every response write first flushes the
session's pending pushes — a client that mutates a view it subscribes to
receives the ``view.delta`` frame *before* the mutate acknowledgement.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import uuid
import weakref
from collections import deque
from dataclasses import dataclass, field
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.core.identity import IID
from repro.engine.database import Database
from repro.errors import ReproError, ViewError
from repro.obs.events import EventLog, SlowQueryLog
from repro.obs.export import metrics_to_prometheus, spans_to_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Span, Tracer
from repro.server.admin import AdminServer
from repro.server.protocol import (
    PROTOCOL_VERSION,
    EncodedPatterns,
    ProtocolError,
    encode_frame,
    encode_patterns,
    error_response,
    read_frame,
    write_frame,
)

__all__ = ["ServerConfig", "Session", "QueryService", "ServerHandle", "start_server"]

#: Dataset names sessions may ``open`` (mirrors the CLI's ``--dataset``).
DATASET_NAMES = ("university", "figure7", "supplier_parts", "parts_explosion")


def _trace_id_of(request: dict[str, Any]) -> str | None:
    """The client-stamped trace id of a request frame, if any."""
    ctx = request.get("trace_ctx")
    if isinstance(ctx, dict) and ctx.get("trace_id"):
        return str(ctx["trace_id"])
    return None


@dataclass
class ServerConfig:
    """Knobs of one :class:`QueryService` (see ``docs/server.md``)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands on service.port
    default_database: str = "university"
    snapshot_path: str | None = None  # mounted under the name "snapshot"
    max_concurrency: int = 4  # engine executions running at once
    queue_limit: int = 16  # requests allowed to wait for a slot
    default_deadline: float = 30.0  # seconds, when the request names none
    max_deadline: float = 300.0  # hard cap on requested deadlines
    drain_timeout: float = 10.0  # seconds stop() waits for in-flight work
    page_size: int = 500  # patterns per response page
    admin_port: int | None = None  # HTTP admin side port (None = disabled)
    slow_query_threshold: float | None = None  # seconds; None = no capture
    slow_query_q_error: float | None = None  # EXPLAIN max q-error trigger
    event_capacity: int = 1024  # event-ring size (0 disables the log)
    slow_query_capacity: int = 128  # slow-query ring size
    subscription_queue: int = 64  # pending push frames per subscription
    shards: int | None = None  # worker processes per mounted database


@dataclass
class _Subscription:
    """One session's live feed of one view's deltas.

    ``queue`` holds wire-ready push frames awaiting the session's next
    flush.  When it would exceed ``ServerConfig.subscription_queue`` the
    backlog is dropped and ``needs_resync`` records why; the next flush
    then sends one ``view.resync`` frame with the full materialization
    instead of the lost deltas.
    """

    view: str
    queue: deque = field(default_factory=deque)
    needs_resync: str | None = None


@dataclass(eq=False)
class Session:
    """Per-connection state: identity, mounted database, paging cursors.

    ``eq=False`` keeps identity hashing — the service tracks sessions in
    per-view subscriber sets.
    """

    id: str
    database_name: str
    database: Database
    peer: str = ""
    requests: int = 0
    #: cursor id → (encoded result, index of the next pattern, page size)
    cursors: dict[str, tuple[EncodedPatterns, int, int]] = field(default_factory=dict)
    subscriptions: dict[str, _Subscription] = field(default_factory=dict)
    writer: asyncio.StreamWriter | None = None
    write_lock: asyncio.Lock | None = None


class QueryService:
    """Asyncio TCP query service over a catalog of shared databases."""

    def __init__(
        self, config: ServerConfig | None = None, metrics: MetricsRegistry | None = None
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.port: int | None = None  # set once the listener is bound
        self.admin_port: int | None = None  # set once the admin port is bound
        #: One event ring for the whole process: engine events from every
        #: mounted database interleave with the service's request events.
        self.events = EventLog(self.config.event_capacity, self.metrics)
        self.slow_queries = SlowQueryLog(
            self.config.slow_query_capacity, self.metrics
        )
        self._admin: AdminServer | None = None
        self._databases: dict[str, Database] = {}
        self._db_lock = threading.Lock()
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency,
            thread_name_prefix="repro-server",
        )
        self._slots: asyncio.Semaphore | None = None  # created on the loop
        self._queued = 0
        self._active_requests = 0
        self._draining = False
        self._idle = asyncio.Event()
        self._connections: set[asyncio.StreamWriter] = set()
        self._sessions = 0
        #: (database name, view name) → sessions subscribed to that view.
        #: Mutated only on the event loop; read from worker threads to
        #: skip frame building when nobody is listening.
        self._view_sessions: dict[tuple[str, str], set[Session]] = {}
        self._push_tasks: set[asyncio.Task] = set()

        self._m_requests = self.metrics.counter(
            "repro_server_requests_total", "Server requests handled, by op and status"
        )
        self._m_inflight = self.metrics.gauge(
            "repro_server_inflight", "Queries currently executing on worker threads"
        )
        self._m_queue_depth = self.metrics.gauge(
            "repro_server_queue_depth", "Queries waiting for an execution slot"
        )
        self._m_shed = self.metrics.counter(
            "repro_server_shed_total", "Requests shed because the admission queue was full"
        )
        self._m_request_seconds = self.metrics.histogram(
            "repro_server_request_seconds", "Wall-clock seconds per server request, by op"
        )
        self._m_queue_wait = self.metrics.histogram(
            "repro_server_queue_wait_seconds",
            "Seconds an admitted query waited for an execution slot",
        )
        self._m_sessions = self.metrics.gauge(
            "repro_server_sessions", "Currently connected sessions"
        )
        wire_encode = self.metrics.counter(
            "repro_wire_encode_total",
            "Pattern sets put on the wire: served from a retained encoding "
            "(hit) or encoded (miss)",
        )
        self._m_wire_hit = wire_encode.child(outcome="hit")
        self._m_wire_miss = wire_encode.child(outcome="miss")
        self._m_wire_bytes = self.metrics.gauge(
            "repro_wire_encoded_bytes",
            "Bytes of wire encodings currently retained by live association-sets",
        )

    # ------------------------------------------------------------------
    # database catalog
    # ------------------------------------------------------------------

    def database(self, name: str) -> Database:
        """The shared database mounted under ``name`` (lazy, cached).

        Known names are the bundled datasets plus ``"snapshot"`` when the
        config points at a JSON snapshot or storage directory.  All
        sessions opening one name
        share a single :class:`Database`; the engine's derived state
        (plan cache, arena, indexes) is safe under concurrent readers.
        """
        with self._db_lock:
            db = self._databases.get(name)
            if db is not None:
                return db
            if name == "snapshot" and self.config.snapshot_path is not None:
                # A storage directory mounts durable (WAL + recovery); a
                # JSON file mounts as the classic in-memory snapshot.
                db = Database.open(
                    self.config.snapshot_path,
                    create=False,
                    metrics=self.metrics,
                    events=self.events,
                )
            elif name in DATASET_NAMES:
                import repro.datasets as datasets

                dataset = getattr(datasets, name)()
                db = Database(
                    dataset.schema,
                    dataset.graph,
                    metrics=self.metrics,
                    events=self.events,
                )
            else:
                raise LookupError(name)
            # Fan this database's view deltas out to wire subscriptions.
            db.views.subscribe(self._make_view_listener(name))
            if self.config.shards is not None and self.config.shards > 1:
                # sharded serving: queries default to scatter-gather over
                # the pool (``shard.pool_start`` lands in the event log)
                db.start_shards(self.config.shards)
            self._databases[name] = db
            return db

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener; ``self.port`` holds the actual port."""
        self._loop = asyncio.get_running_loop()
        self._slots = asyncio.Semaphore(self.config.max_concurrency)
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.admin_port is not None:
            self._admin = AdminServer(self)
            await self._admin.start(self.config.host, self.config.admin_port)
            self.admin_port = self._admin.port
        # Mount the default database eagerly so the first query pays no
        # dataset-construction latency.
        self.database(self.config.default_database)
        self.events.emit(
            "server.start", host=self.config.host, port=self.port,
            admin_port=self.admin_port,
        )

    async def serve_forever(self) -> None:
        """Serve until cancelled (``start`` must have run)."""
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, close."""
        self._draining = True
        self.events.emit("server.drain", active_requests=self._active_requests)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(self._idle.wait(), self.config.drain_timeout)
        except asyncio.TimeoutError:
            pass  # drain window elapsed; close connections regardless
        if self._admin is not None:
            await self._admin.stop()
        for task in tuple(self._push_tasks):
            task.cancel()
        for writer in tuple(self._connections):
            writer.close()
        self._pool.shutdown(wait=False)
        # Flush every mounted database's storage engine: a durable mount
        # checkpoints its WAL tail so the next open recovers instantly.
        for name in sorted(self._databases):
            try:
                self._databases[name].close()
            except ReproError:  # pragma: no cover — close must not block stop
                pass
        self.events.emit("server.stop")

    def readiness(self) -> dict[str, Any]:
        """The ``/readyz`` snapshot: catalog mount state and drain state."""
        mounted = sorted(self._databases)
        return {
            "ready": bool(
                not self._draining and self.config.default_database in mounted
            ),
            "draining": self._draining,
            "databases": mounted,
        }

    # ------------------------------------------------------------------
    # result encoding
    # ------------------------------------------------------------------

    def _encoded(self, patterns, paged_over: int | None = None) -> EncodedPatterns:
        """The wire encoding of ``patterns``, reusing a cached set's memo.

        ``paged_over`` is given for the result of a cached query — an
        immutable :class:`AssociationSet`, the *same object* on every
        plan-cache hit — and is the request's page size.  A result that
        spans several pages needs its bytes again for the fetches that
        follow, so it is memoized on the set itself (``wire_form``) and
        every later request for that set, whatever its page size, is
        served from those bytes.  The memo lives exactly as long as the
        set: invalidation, rollback and executor resets drop both
        together.  Everything else — single-page answers,
        ``use_cache=False`` results, the plain pattern collections of
        view deltas and snapshots (``paged_over=None``) — encodes and
        discards.
        """
        memo = paged_over is not None
        if memo and patterns.wire_form is not None:
            self._m_wire_hit.inc()
            return patterns.wire_form
        encoded = encode_patterns(patterns)
        self._m_wire_miss.inc()
        if memo and len(encoded) > paged_over:
            # Workers racing on one set each encode it; the last store
            # wins and the loser's bytes go with its cursor.
            patterns.wire_form = encoded
            self._m_wire_bytes.inc(encoded.nbytes)
            weakref.finalize(encoded, self._m_wire_bytes.dec, encoded.nbytes)
        return encoded

    # ------------------------------------------------------------------
    # view subscriptions
    # ------------------------------------------------------------------

    def _make_view_listener(self, db_name: str):
        """A ViewRegistry listener fanning deltas out to subscribed sessions.

        Runs on whichever thread committed the mutation (a server worker,
        usually), while the database's write lock is held — so it only
        *builds* the wire frame there and hands delivery to the event
        loop.  ``call_soon_threadsafe`` preserves scheduling order, which
        makes the delta-before-ack guarantee deterministic: the fanout
        callback is queued during the DML call, strictly before the
        worker's own completion callback resolves the mutate future.
        """

        def listener(view, added, removed, origin: str) -> None:
            loop = self._loop
            if loop is None or loop.is_closed():
                return
            key = (db_name, view.name)
            if not self._view_sessions.get(key):
                return
            frame = {
                "notify": "view.delta",
                "database": db_name,
                "view": view.name,
                "version": view.version,
                "origin": origin,
                "added": self._encoded(added).page(),
                "removed": self._encoded(removed).page(),
            }
            try:
                loop.call_soon_threadsafe(self._fanout_view_frame, key, frame)
            except RuntimeError:  # pragma: no cover — loop closed mid-call
                pass

        return listener

    def _fanout_view_frame(self, key: tuple[str, str], frame: dict[str, Any]) -> None:
        """Queue one push frame on every subscribed session (loop thread)."""
        for session in list(self._view_sessions.get(key, ())):
            sub = session.subscriptions.get(frame["view"])
            if sub is None:
                continue
            if (
                sub.needs_resync is None
                and len(sub.queue) >= self.config.subscription_queue
            ):
                sub.queue.clear()
                sub.needs_resync = "overflow"
                self.events.emit(
                    "subscription.overflow",
                    session=session.id,
                    view=frame["view"],
                    database=key[0],
                )
            if sub.needs_resync is None:
                sub.queue.append(frame)
            self._schedule_push(session)

    def _schedule_push(self, session: Session) -> None:
        """Flush a session's pending pushes soon (idempotent per frame)."""
        if session.writer is None:
            return
        task = asyncio.ensure_future(self._flush_session(session))
        self._push_tasks.add(task)
        task.add_done_callback(self._push_tasks.discard)

    async def _flush_session(self, session: Session) -> None:
        """Write every queued push frame for ``session`` (loop thread)."""
        writer, lock = session.writer, session.write_lock
        if writer is None or lock is None or not session.subscriptions:
            return
        async with lock:
            try:
                for sub in list(session.subscriptions.values()):
                    await self._drain_subscription(session, writer, sub)
            except (ConnectionError, OSError):
                pass  # the connection handler notices and cleans up

    async def _drain_subscription(
        self, session: Session, writer: asyncio.StreamWriter, sub: _Subscription
    ) -> None:
        if sub.needs_resync is not None:
            reason, sub.needs_resync = sub.needs_resync, None
            sub.queue.clear()
            try:
                view = session.database.views.get(sub.view)
            except ViewError:
                # The view was dropped while the backlog overflowed.
                session.subscriptions.pop(sub.view, None)
                self._unregister_subscription(session, sub.view)
                await write_frame(
                    writer,
                    {
                        "notify": "view.dropped",
                        "database": session.database_name,
                        "view": sub.view,
                        "reason": reason,
                    },
                )
                return
            await write_frame(
                writer,
                {
                    "notify": "view.resync",
                    "database": session.database_name,
                    "view": sub.view,
                    "version": view.version,
                    "reason": reason,
                    "patterns": self._encoded(view.patterns).page(),
                    "count": len(view.patterns),
                },
            )
        while sub.queue:
            await write_frame(writer, sub.queue.popleft())

    def _register_subscription(self, session: Session, view_name: str) -> None:
        key = (session.database_name, view_name)
        self._view_sessions.setdefault(key, set()).add(session)

    def _unregister_subscription(self, session: Session, view_name: str) -> None:
        key = (session.database_name, view_name)
        sessions = self._view_sessions.get(key)
        if sessions is not None:
            sessions.discard(session)
            if not sessions:
                del self._view_sessions[key]

    def _drop_session_subscriptions(self, session: Session) -> None:
        for name in list(session.subscriptions):
            self._unregister_subscription(session, name)
        session.subscriptions.clear()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        session = Session(
            id=uuid.uuid4().hex[:12],
            database_name=self.config.default_database,
            database=self.database(self.config.default_database),
            peer=str(peer),
            writer=writer,
            write_lock=asyncio.Lock(),
        )
        self._sessions += 1
        self._m_sessions.inc()
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as exc:
                    async with session.write_lock:
                        await write_frame(
                            writer, error_response("bad_request", str(exc))
                        )
                    break
                if request is None:
                    break  # client closed cleanly
                frame = await self._handle_request(session, request)
                # Push frames this request itself caused (view deltas from
                # a mutate) flush *before* the response: a session that
                # mutates a view it subscribes to reads the delta, then
                # the acknowledgement.
                await self._flush_session(session)
                async with session.write_lock:
                    writer.write(frame)
                    await writer.drain()
                if request.get("op") == "close":
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass  # peer went away or the server is closing down
        finally:
            self._drop_session_subscriptions(session)
            session.writer = None
            self._connections.discard(writer)
            self._m_sessions.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------

    async def _handle_request(
        self, session: Session, request: dict[str, Any]
    ) -> bytes:
        """Run one request; returns its encoded response frame."""
        op = str(request.get("op", ""))
        trace_id = _trace_id_of(request)
        session.requests += 1
        started = time.perf_counter()
        self._track_request(+1)
        self.events.emit(
            "request.start", trace_id=trace_id, op=op or "?", session=session.id
        )
        response: dict[str, Any]
        try:
            response = await self._dispatch(session, op, request)
        except ReproError as exc:
            response = error_response("engine_error", str(exc))
        finally:
            elapsed = time.perf_counter() - started
            self._m_request_seconds.observe(elapsed, op=op or "?")
            self._track_request(-1)
        try:
            frame = encode_frame(response)
        except ProtocolError as exc:
            # An answer over the frame limit is refused, not dropped with
            # the connection: the session stays usable and the client can
            # ask again with a smaller ``page_size``.
            response = error_response("frame_too_large", str(exc))
            frame = encode_frame(response)
        status = (
            "ok" if response.get("ok") else response.get("error", {}).get("code", "?")
        )
        self.events.emit(
            "request.finish",
            trace_id=trace_id,
            op=op or "?",
            session=session.id,
            status=status,
            elapsed_ms=round(elapsed * 1e3, 3),
        )
        return frame

    async def _dispatch(
        self, session: Session, op: str, request: dict[str, Any]
    ) -> dict[str, Any]:
        """Route one request frame to its op handler."""
        if self._draining:
            return error_response("shutting_down", "server is draining")
        if op == "ping":
            self._count("ping", "ok")
            return {
                "ok": True,
                "pong": True,
                "session": session.id,
                "protocol": PROTOCOL_VERSION,
            }
        if op == "open":
            return self._op_open(session, request)
        if op == "query":
            return await self._op_query(session, request)
        if op == "mutate":
            return await self._op_mutate(session, request)
        if op == "fetch":
            return self._op_fetch(session, request)
        if op == "views":
            return self._op_views(session)
        if op == "subscribe":
            return self._op_subscribe(session, request)
        if op == "unsubscribe":
            return self._op_unsubscribe(session, request)
        if op == "create_view":
            return await self._op_create_view(session, request)
        if op == "drop_view":
            return await self._op_drop_view(session, request)
        if op == "metrics":
            self._count("metrics", "ok")
            return {"ok": True, "prometheus": metrics_to_prometheus(self.metrics)}
        if op == "events":
            return self._op_events(request)
        if op == "slow_queries":
            return self._op_slow_queries(request)
        if op == "close":
            return {"ok": True, "closed": True, "requests": session.requests}
        return error_response("bad_request", f"unknown op {op!r}")

    def _track_request(self, delta: int) -> None:
        self._active_requests += delta
        if self._active_requests == 0:
            self._idle.set()
        else:
            self._idle.clear()

    def _count(self, op: str, status: str) -> None:
        self._m_requests.inc(op=op, status=status)

    # -- open ----------------------------------------------------------

    def _op_open(self, session: Session, request: dict[str, Any]) -> dict[str, Any]:
        name = str(request.get("database", ""))
        try:
            database = self.database(name)
        except LookupError:
            self._count("open", "error")
            known = list(DATASET_NAMES)
            if self.config.snapshot_path is not None:
                known.append("snapshot")
            return error_response(
                "unknown_database", f"unknown database {name!r}; known: {known}"
            )
        self._drop_session_subscriptions(session)
        session.database_name = name
        session.database = database
        session.cursors.clear()
        self._count("open", "ok")
        return {
            "ok": True,
            "database": name,
            "classes": len(database.schema.classes),
            "instances": len(list(database.graph.instances())),
        }

    # -- query ---------------------------------------------------------

    async def _op_query(
        self, session: Session, request: dict[str, Any]
    ) -> dict[str, Any]:
        text = request.get("q")
        if not isinstance(text, str) or not text.strip():
            self._count("query", "error")
            return error_response("bad_request", "query op requires a 'q' string")
        deadline = request.get("timeout")
        try:
            deadline = (
                float(deadline)
                if deadline is not None
                else self.config.default_deadline
            )
        except (TypeError, ValueError):
            self._count("query", "error")
            return error_response("bad_request", f"bad timeout {deadline!r}")
        deadline = min(max(deadline, 0.001), self.config.max_deadline)
        page_size = request.get("page_size")
        try:
            page_size = max(1, int(page_size or self.config.page_size))
        except (TypeError, ValueError, OverflowError):
            self._count("query", "error")
            return error_response("bad_request", f"bad page_size {page_size!r}")
        values_of = request.get("values_of")
        if values_of is not None and not (
            isinstance(values_of, list) and all(isinstance(c, str) for c in values_of)
        ):
            # Checked before admission: a bad value would otherwise raise
            # after the engine ran and close the session with no response.
            self._count("query", "error")
            return error_response(
                "bad_request",
                f"bad values_of {values_of!r}: expected a list of class names",
            )
        expires = time.monotonic() + deadline
        trace_id = _trace_id_of(request)
        received = time.perf_counter()

        # Admission: when every slot is busy and the wait queue is full,
        # shed; otherwise queue for a slot.
        assert self._slots is not None
        if self._slots.locked() and self._queued >= self.config.queue_limit:
            self._m_shed.inc()
            self._count("query", "shed")
            self.events.emit(
                "admission.shed",
                trace_id=trace_id,
                session=session.id,
                queued=self._queued,
                queue_limit=self.config.queue_limit,
            )
            return error_response(
                "overloaded",
                f"admission queue full ({self.config.queue_limit} waiting)",
            )
        self._queued += 1
        self._m_queue_depth.set(self._queued)
        try:
            try:
                await asyncio.wait_for(
                    self._slots.acquire(), timeout=expires - time.monotonic()
                )
            except asyncio.TimeoutError:
                self._count("query", "timeout")
                self.events.emit(
                    "request.timeout",
                    trace_id=trace_id,
                    session=session.id,
                    where="queue",
                    deadline=deadline,
                )
                return error_response(
                    "timeout", f"deadline of {deadline:g}s elapsed in queue"
                )
        finally:
            self._queued -= 1
            self._m_queue_depth.set(self._queued)
        admitted = time.perf_counter()
        self._m_queue_wait.observe(admitted - received)

        # One slot held: run the engine work on the pool, under deadline.
        self._m_inflight.inc()
        assert self._loop is not None
        future = self._loop.run_in_executor(
            self._pool,
            self._execute_query,
            session,
            text,
            request,
            page_size,
            received,
            admitted,
        )

        def _release(_):
            # The slot frees only when the engine call truly finished —
            # a timed-out request's zombie thread keeps holding it.
            self._m_inflight.dec()
            self._slots.release()

        future.add_done_callback(_release)
        try:
            response = await asyncio.wait_for(
                asyncio.shield(future), timeout=expires - time.monotonic()
            )
        except asyncio.TimeoutError:
            self._count("query", "timeout")
            self.events.emit(
                "request.timeout",
                trace_id=trace_id,
                session=session.id,
                where="execution",
                deadline=deadline,
            )
            return error_response(
                "timeout", f"deadline of {deadline:g}s exceeded during execution"
            )
        except ReproError as exc:
            self._count("query", "error")
            return error_response("engine_error", str(exc))
        self._count("query", "ok" if response.get("ok") else "error")
        return response

    def _execute_query(
        self,
        session: Session,
        text: str,
        request: dict[str, Any],
        page_size: int,
        received: float | None = None,
        admitted: float | None = None,
    ) -> dict[str, Any]:
        """Engine work, on a worker thread.  Returns a response frame.

        ``page_size`` is the request's, already validated by the caller.

        ``received``/``admitted`` are the loop's ``perf_counter`` stamps
        at frame receipt and slot acquisition; the traced
        ``server.request`` span is rebased to start at ``received`` with
        an explicit ``server.queue_wait`` child covering the gap, so the
        admission wait the asyncio side imposed is visible in the tree a
        remote client stitches.
        """
        db = session.database
        explain = bool(request.get("explain", False))
        want_trace = bool(request.get("trace", False))
        use_cache = bool(request.get("use_cache", True))
        trace_ctx = request.get("trace_ctx")
        trace_ctx = trace_ctx if isinstance(trace_ctx, dict) else {}
        trace_id = _trace_id_of(request)

        tracer = Tracer() if want_trace else None
        started = time.perf_counter()
        if tracer is not None:
            # The service's span sits above the engine's span tree, so the
            # export shows the server request wrapping the executor spans.
            attrs: dict[str, Any] = {
                "op": "query",
                "session": session.id,
                "database": session.database_name,
            }
            if trace_id:
                attrs["trace_id"] = trace_id
            if trace_ctx.get("parent_span_id"):
                attrs["parent_span_id"] = str(trace_ctx["parent_span_id"])
            with tracer.span("server.request", **attrs) as server_span:
                if received is not None and admitted is not None:
                    # Rebase the root to frame-receipt time and make the
                    # admission wait an explicit child span (appended
                    # directly: it already ended before this thread ran).
                    server_span.start = received
                    queue_span = Span(
                        "server.queue_wait", start=received, end=admitted
                    )
                    server_span.children.append(queue_span)
                result = db.query(
                    text,
                    trace=tracer,
                    explain=explain,
                    use_cache=use_cache,
                )
        else:
            result = db.query(
                text,
                explain=explain,
                use_cache=use_cache,
            )
        finished = time.perf_counter()
        elapsed_ms = (finished - started) * 1e3

        encoded = self._encoded(result.set, page_size if use_cache else None)
        queue_wait_ms = (
            (admitted - received) * 1e3
            if received is not None and admitted is not None
            else 0.0
        )
        response: dict[str, Any] = {
            "ok": True,
            "count": len(encoded),
            "strategy": result.strategy,
            "elapsed_ms": round(elapsed_ms, 3),
            "queue_wait_ms": round(queue_wait_ms, 3),
        }
        if trace_id:
            response["trace_id"] = trace_id

        response["patterns"] = encoded.page(0, page_size)
        response["cursor"] = None
        if len(encoded) > page_size:
            response["cursor"] = cursor = uuid.uuid4().hex[:12]
            session.cursors[cursor] = (encoded, page_size, page_size)

        values_of = request.get("values_of") or ()
        if values_of:
            response["values"] = {
                cls: sorted(result.values(cls), key=repr) for cls in values_of
            }
        if explain and result.report is not None:
            response["explain"] = str(result.report)
        if tracer is not None:
            response["trace"] = [
                json.loads(line) for line in spans_to_jsonl(tracer).splitlines()
            ]

        # The capture trigger measures *request* latency (queue wait and
        # worker dispatch included) — what the caller experienced — not
        # just the engine call.
        request_elapsed_s = (
            finished - received if received is not None else elapsed_ms / 1e3
        )
        self._maybe_capture_slow(
            session,
            text,
            result,
            elapsed_s=request_elapsed_s,
            queue_wait_ms=queue_wait_ms,
            trace_id=trace_id,
        )
        return response

    def _maybe_capture_slow(
        self,
        session: Session,
        text: str,
        result: Any,
        *,
        elapsed_s: float,
        queue_wait_ms: float,
        trace_id: str | None,
    ) -> None:
        """Record a slow-query entry when a capture threshold trips.

        Two independent triggers: wall-clock latency over
        ``slow_query_threshold``, and (when the request already ran
        EXPLAIN) a worst-node q-error over ``slow_query_q_error``.  The
        per-node estimate/actual detail comes from a *diagnostic*
        ``explain_analyze`` rerun on this worker thread — paid only for
        queries that already tripped a threshold, never on the hot path.
        """
        threshold = self.config.slow_query_threshold
        q_threshold = self.config.slow_query_q_error
        if threshold is None and q_threshold is None:
            return
        reason = None
        if threshold is not None and elapsed_s >= threshold:
            reason = "latency"
        if (
            reason is None
            and q_threshold is not None
            and getattr(result, "report", None) is not None
            and result.report.max_q_error >= q_threshold
        ):
            reason = "q_error"
        if reason is None:
            return

        db = session.database
        entry: dict[str, Any] = {
            "query": text,
            "database": session.database_name,
            "session": session.id,
            "reason": reason,
            "elapsed_ms": round(elapsed_s * 1e3, 3),
            "queue_wait_ms": round(queue_wait_ms, 3),
            "strategy": result.strategy,
            "stats_version": db.stats.version,
            "admission": {
                "inflight": self._active_requests,
                "queued": self._queued,
            },
        }
        if trace_id:
            entry["trace_id"] = trace_id
        try:
            report = db.explain_analyze(text)
            entry["plan"] = report.pretty()
            entry["max_q_error"] = round(report.max_q_error, 3)
            entry["nodes"] = [
                {
                    "operator": node.text,
                    "kind": node.kind,
                    "strategy": node.strategy,
                    "depth": depth,
                    "estimated": node.estimated,
                    "actual": node.actual,
                    "q_error": round(node.q_error, 3),
                }
                for node, depth in report.walk()
            ]
        except ReproError as exc:  # diagnostics must never fail the query
            entry["plan_error"] = str(exc)
        self.slow_queries.record(entry)
        self.events.emit(
            "query.slow",
            trace_id=trace_id,
            reason=reason,
            elapsed_ms=entry["elapsed_ms"],
            query=text,
        )

    # -- fetch ---------------------------------------------------------

    # -- mutate --------------------------------------------------------

    async def _op_mutate(
        self, session: Session, request: dict[str, Any]
    ) -> dict[str, Any]:
        """Apply a batch of mutations; acknowledge only once durable.

        The batch runs on a worker thread (a WAL fsync must not stall
        the event loop) and, with ``durable`` set (the default), the
        response is sent only after the engine flushed — an acknowledged
        mutation survives ``kill -9``.  Batches serialize per database
        through its write lock; there are no transactions, so a failing
        action leaves the earlier ones applied (``applied`` says how
        many landed).
        """
        mutations = request.get("mutations")
        if not isinstance(mutations, list) or not mutations:
            self._count("mutate", "error")
            return error_response(
                "bad_request", "mutate op requires a nonempty 'mutations' list"
            )
        durable = bool(request.get("durable", True))
        trace_id = _trace_id_of(request)
        assert self._loop is not None
        self._m_inflight.inc()
        future = self._loop.run_in_executor(
            self._pool,
            self._execute_mutations,
            session,
            mutations,
            durable,
            trace_id,
        )
        future.add_done_callback(lambda _: self._m_inflight.dec())
        response = await asyncio.shield(future)
        self._count("mutate", "ok" if response.get("ok") else "error")
        return response

    def _execute_mutations(
        self,
        session: Session,
        mutations: list[Any],
        durable: bool,
        trace_id: str | None,
    ) -> dict[str, Any]:
        """Worker-thread side of ``mutate``: apply, then group-commit."""
        db = session.database
        results: list[dict[str, Any]] = []
        applied = 0
        failure: dict[str, Any] | None = None
        for action in mutations:
            try:
                results.append(self._apply_mutation(db, action))
                applied += 1
            except (KeyError, TypeError, ValueError) as exc:
                failure = error_response(
                    "bad_request", f"malformed mutation {applied}: {exc!r}"
                )
                break
            except ReproError as exc:
                failure = error_response(
                    "engine_error", f"mutation {applied} failed: {exc}"
                )
                break
        # Group commit: one flush acknowledges the whole batch (partial
        # batches flush too — what landed before the failure is durable).
        durable_seq = db.engine.flush() if durable else db.engine.last_seq
        self.events.emit(
            "mutation.batch",
            trace_id=trace_id,
            session=session.id,
            database=session.database_name,
            count=applied,
            durable=durable,
            durable_seq=durable_seq,
            status="error" if failure else "ok",
        )
        if failure is not None:
            failure["applied"] = applied
            failure["durable_seq"] = durable_seq
            return failure
        return {
            "ok": True,
            "applied": applied,
            "results": results,
            "durable_seq": durable_seq,
        }

    @staticmethod
    def _apply_mutation(db: Database, action: Any) -> dict[str, Any]:
        """One wire mutation → one Database DML call → wire result."""
        if not isinstance(action, dict):
            raise TypeError(f"mutation must be an object, got {action!r}")
        kind = action.get("action")
        if kind == "insert":
            created = db.insert(action["classes"], action.get("value"))
            return {
                "action": "insert",
                "created": {cls: i.oid for cls, i in created.items()},
            }
        if kind == "insert_value":
            instance = db.insert_value(action["cls"], action["value"])
            return {"action": "insert_value", "created": [instance.cls, instance.oid]}
        if kind in ("link", "unlink"):
            a = IID(str(action["a"][0]), int(action["a"][1]))
            b = IID(str(action["b"][0]), int(action["b"][1]))
            (db.link if kind == "link" else db.unlink)(
                a, b, action.get("assoc")
            )
            return {"action": kind}
        if kind == "delete":
            instance = action["instance"]
            db.delete(IID(str(instance[0]), int(instance[1])))
            return {"action": "delete"}
        if kind == "update":
            instance = action["instance"]
            db.update_value(
                IID(str(instance[0]), int(instance[1])), action["value"]
            )
            return {"action": "update"}
        raise ValueError(f"unknown mutation action {kind!r}")

    def _op_fetch(self, session: Session, request: dict[str, Any]) -> dict[str, Any]:
        cursor = str(request.get("cursor", ""))
        entry = session.cursors.pop(cursor, None)
        if entry is None:
            self._count("fetch", "error")
            return error_response("bad_request", f"unknown cursor {cursor!r}")
        encoded, start, page_size = entry
        stop = start + page_size
        cursor_out = None
        if stop < len(encoded):
            session.cursors[cursor] = (encoded, stop, page_size)
            cursor_out = cursor
        self._count("fetch", "ok")
        return {"ok": True, "patterns": encoded.page(start, stop), "cursor": cursor_out}

    # -- views ---------------------------------------------------------

    def view_rows(self) -> list[dict[str, Any]]:
        """One info row per view across mounted databases (admin ``/views``)."""
        with self._db_lock:
            items = sorted(self._databases.items())
        rows: list[dict[str, Any]] = []
        for name, db in items:
            for info in db.views.info():
                rows.append({"database": name, **info})
        return rows

    def _op_views(self, session: Session) -> dict[str, Any]:
        self._count("views", "ok")
        return {
            "ok": True,
            "database": session.database_name,
            "views": session.database.views.info(),
        }

    def _op_subscribe(
        self, session: Session, request: dict[str, Any]
    ) -> dict[str, Any]:
        """Open a live delta feed on one view; returns the initial snapshot.

        The subscription is registered *before* the snapshot is read, so
        a delta committed concurrently is queued rather than lost; the
        client drops queued frames whose ``version`` is not above the
        snapshot's (added/removed are sets, so replaying one is also
        harmless).  Subscribing twice is idempotent — the feed continues,
        a fresh snapshot is returned.
        """
        name = str(request.get("view", ""))
        try:
            view = session.database.views.get(name)
        except ViewError as exc:
            self._count("subscribe", "error")
            return error_response("unknown_view", str(exc))
        if name not in session.subscriptions:
            session.subscriptions[name] = _Subscription(view=name)
            self._register_subscription(session, name)
        self._count("subscribe", "ok")
        return {
            "ok": True,
            "view": name,
            "database": session.database_name,
            "version": view.version,
            "patterns": self._encoded(view.patterns).page(),
            "count": len(view.patterns),
        }

    def _op_unsubscribe(
        self, session: Session, request: dict[str, Any]
    ) -> dict[str, Any]:
        name = str(request.get("view", ""))
        sub = session.subscriptions.pop(name, None)
        if sub is None:
            self._count("unsubscribe", "error")
            return error_response("bad_request", f"no subscription on view {name!r}")
        self._unregister_subscription(session, name)
        self._count("unsubscribe", "ok")
        return {"ok": True, "view": name, "unsubscribed": True}

    async def _op_create_view(
        self, session: Session, request: dict[str, Any]
    ) -> dict[str, Any]:
        """Create and materialize a view from OQL text (worker thread)."""
        name = str(request.get("name", ""))
        query = request.get("q")
        if not name or not isinstance(query, str) or not query.strip():
            self._count("create_view", "error")
            return error_response(
                "bad_request", "create_view requires 'name' and a 'q' string"
            )
        assert self._loop is not None

        def work() -> dict[str, Any]:
            view = session.database.create_view(name, query)
            return {
                "ok": True,
                "view": name,
                "count": len(view.patterns),
                "version": view.version,
            }

        try:
            response = await asyncio.shield(
                self._loop.run_in_executor(self._pool, work)
            )
        except ViewError as exc:
            self._count("create_view", "error")
            return error_response("view_error", str(exc))
        self._count("create_view", "ok")
        return response

    async def _op_drop_view(
        self, session: Session, request: dict[str, Any]
    ) -> dict[str, Any]:
        name = str(request.get("name", ""))
        assert self._loop is not None

        def work() -> dict[str, Any]:
            session.database.drop_view(name)
            return {"ok": True, "view": name, "dropped": True}

        try:
            response = await asyncio.shield(
                self._loop.run_in_executor(self._pool, work)
            )
        except ViewError as exc:
            self._count("drop_view", "error")
            return error_response("view_error", str(exc))
        self._count("drop_view", "ok")
        return response

    # -- events / slow queries -----------------------------------------

    def _op_events(self, request: dict[str, Any]) -> dict[str, Any]:
        """Drain the structured event ring (optionally filtered/resumed)."""
        type_filter = request.get("type")
        after = request.get("after")
        limit = request.get("limit")
        try:
            after = int(after) if after is not None else None
            limit = int(limit) if limit is not None else None
        except (TypeError, ValueError):
            self._count("events", "error")
            return error_response("bad_request", "after/limit must be integers")
        events = self.events.events(
            type=str(type_filter) if type_filter is not None else None,
            after=after,
            limit=limit,
        )
        self._count("events", "ok")
        return {
            "ok": True,
            "events": [event.to_dict() for event in events],
            "last_seq": self.events.last_seq,
            "dropped": self.events.dropped,
        }

    def _op_slow_queries(self, request: dict[str, Any]) -> dict[str, Any]:
        """Return captured slow-query records, newest last."""
        limit = request.get("limit")
        try:
            limit = int(limit) if limit is not None else None
        except (TypeError, ValueError):
            self._count("slow_queries", "error")
            return error_response("bad_request", "limit must be an integer")
        self._count("slow_queries", "ok")
        return {
            "ok": True,
            "slow_queries": self.slow_queries.records(limit=limit),
            "total": self.slow_queries.total,
        }

    def __str__(self) -> str:
        return (
            f"QueryService({self.config.host}:{self.port}, "
            f"{len(self._databases)} database(s), {self._sessions} session(s) served)"
        )


# ----------------------------------------------------------------------
# background-thread harness (tests, benchmarks, and the CLI's client side)
# ----------------------------------------------------------------------


class ServerHandle:
    """A running :class:`QueryService` on a background thread.

    ``host``/``port`` point at the loopback listener; :meth:`stop`
    performs the graceful drain and joins the thread.
    """

    def __init__(
        self,
        service: QueryService,
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
        stop_event: asyncio.Event,
    ) -> None:
        self.service = service
        self._thread = thread
        self._loop = loop
        self._stop_event = stop_event
        self._stopped = False

    @property
    def host(self) -> str:
        return self.service.config.host

    @property
    def port(self) -> int:
        assert self.service.port is not None
        return self.service.port

    def stop(self, timeout: float = 15.0) -> None:
        """Drain and shut the server down; idempotent."""
        if self._stopped:
            return
        self._stopped = True
        try:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        except RuntimeError:
            pass  # loop already gone (boot failure)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_server(
    config: ServerConfig | None = None,
    metrics: MetricsRegistry | None = None,
    ready_timeout: float = 15.0,
) -> ServerHandle:
    """Start a :class:`QueryService` on a daemon thread and wait for it.

    The returned :class:`ServerHandle` is a context manager::

        with start_server(ServerConfig(max_concurrency=2)) as server:
            with ServerClient(server.host, server.port) as client:
                client.query("TA * Grad")
    """
    service = QueryService(config, metrics)
    ready = threading.Event()
    boot_error: list[BaseException] = []
    box: list = []  # [(loop, stop_event)] once the service is up

    async def _run() -> None:
        try:
            await service.start()
        except BaseException as exc:  # bind failure, bad snapshot...
            boot_error.append(exc)
            ready.set()
            return
        stop_event = asyncio.Event()
        box.append((asyncio.get_running_loop(), stop_event))
        ready.set()
        await stop_event.wait()
        await service.stop()

    thread = threading.Thread(
        target=lambda: asyncio.run(_run()), name="repro-server-loop", daemon=True
    )
    thread.start()
    if not ready.wait(ready_timeout):
        raise RuntimeError("query service failed to start in time")
    if boot_error:
        thread.join(ready_timeout)
        raise boot_error[0]
    loop, stop_event = box[0]
    return ServerHandle(service, thread, loop, stop_event)
