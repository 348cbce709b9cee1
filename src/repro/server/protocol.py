"""Length-prefixed JSON wire protocol for the concurrent query service.

Framing
-------
Every message — request or response, either direction — is one *frame*:

    +----------------+----------------------------------------+
    | 4 bytes        | ``length`` bytes                       |
    | big-endian u32 | UTF-8 JSON object                      |
    +----------------+----------------------------------------+

Frames larger than :data:`MAX_FRAME_BYTES` are rejected before the body
is read, so a corrupt or hostile peer cannot make either side allocate
unbounded memory.  Both blocking-socket helpers (used by the client) and
``asyncio`` stream helpers (used by the server) are provided.

Requests
--------
A request is a JSON object with an ``op`` field::

    {"op": "ping"}
    {"op": "open",  "database": "university"}
    {"op": "query", "q": "pi(TA * Grad)[TA]",
                    "values_of": ["SS#"],      # optional value retrieval
                    "explain": false,          # EXPLAIN ANALYZE text
                    "trace": false,            # span-tree export
                    "use_cache": true,
                    "timeout": 5.0,            # per-request deadline (s)
                    "page_size": 500}          # result paging
    {"op": "fetch", "cursor": "c1"}            # next page of a paged result
    {"op": "mutate", "mutations": [            # DML batch (see below)
        {"action": "insert_value", "cls": "GPA", "value": 3.8}],
                     "durable": true}          # ack only after WAL flush
    {"op": "metrics"}                          # Prometheus snapshot
    {"op": "events", "type": "request.finish", # structured event ring
                     "after": 17, "limit": 50} #   (all fields optional)
    {"op": "slow_queries", "limit": 10}        # slow-query capture records
    {"op": "views"}                            # materialized-view catalog
    {"op": "create_view", "name": "v",         # define + materialize a view
                          "q": "TA * Grad"}
    {"op": "drop_view", "name": "v"}
    {"op": "subscribe", "view": "v"}           # live delta feed (see below)
    {"op": "unsubscribe", "view": "v"}
    {"op": "close"}

Any request may additionally carry a **trace context** stamped by the
caller — ``{"trace_ctx": {"trace_id": "...", "parent_span_id": "..."}}``
— which the server threads through its event log and, for traced
queries, into the ``server.request`` span's attributes, so a client can
stitch the returned span tree under its own root (see
``ServerClient.query(trace=True)``).

Responses
---------
Success frames carry ``{"ok": true, ...}`` with op-specific payload; a
``query`` response holds ``count``, the first page of ``patterns`` (see
:func:`pattern_to_wire`), a ``cursor`` when more pages remain, the root
physical ``strategy``, ``elapsed_ms``, ``queue_wait_ms`` (admission
wait), the echoed ``trace_id`` when a context was stamped, and — on
request — ``values``, ``explain`` and ``trace``.  A ``mutate`` response
holds ``applied`` (actions that landed), per-action ``results`` (created
OIDs for inserts) and ``durable_seq`` — with ``durable`` (the default)
the frame is sent only after the storage engine's WAL flushed, so an
acknowledged batch survives ``kill -9`` (actions: ``insert``,
``insert_value``, ``link``, ``unlink``, ``delete``, ``update``; see
``ServerClient.mutate``).  Failure frames carry a
structured error::

    {"ok": false, "error": {"code": "timeout", "message": "..."}}

Error codes are stable protocol surface (:data:`ERROR_CODES`); the client
raises the matching :class:`ServerError` subclass per code.  A response
that would exceed :data:`MAX_FRAME_BYTES` is answered with
``frame_too_large`` and the session stays usable — ask again with a
smaller ``page_size``.

Every ``patterns``/``added``/``removed`` array holds
:func:`pattern_to_wire` objects in the service's canonical order.  The
server produces them with :func:`encode_patterns` — the byte-level
encoder defined by ``json.loads(fragment) == pattern_to_wire(pattern)`` —
and splices the bytes into the frame (:class:`RawJSON`).

Push frames (view subscriptions)
--------------------------------
After ``subscribe`` (whose response carries the initial ``version`` and
``patterns`` snapshot), the server may write **notification frames** to
the session at any point — between a request and its response included.
They are distinguished from responses by a ``notify`` field instead of
``ok``::

    {"notify": "view.delta",  "database": "...", "view": "v",
     "version": 7, "origin": "delta",           # or "refresh"
     "added": [wire patterns], "removed": [wire patterns]}
    {"notify": "view.resync", "database": "...", "view": "v",
     "version": 9, "reason": "overflow",        # backlog was dropped
     "patterns": [wire patterns], "count": 12}  # full current state
    {"notify": "view.dropped", "database": "...", "view": "v",
     "reason": "..."}                           # view no longer exists

``version`` is per-view monotonic; a subscriber applies a delta only
when its version exceeds what it has, and replaces its copy wholesale on
``view.resync``.  A session's deltas caused by its *own* mutate arrive
before the mutate acknowledgement.  :class:`ServerClient` buffers
notification frames transparently (``next_notification``).
"""

from __future__ import annotations

import json
import socket
import struct
from array import array
from itertools import accumulate
from typing import Any, Iterable

from repro.core.edges import Polarity
from repro.core.pattern import Pattern
from repro.errors import ReproError

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ERROR_CODES",
    "ProtocolError",
    "ServerError",
    "QueryTimeoutError",
    "ServerOverloadedError",
    "ServerShuttingDownError",
    "error_response",
    "error_to_exception",
    "encode_frame",
    "send_frame",
    "recv_frame",
    "read_frame",
    "write_frame",
    "pattern_to_wire",
    "wire_to_labels",
    "RawJSON",
    "EncodedPatterns",
    "encode_patterns",
]

#: Bumped on incompatible wire changes; echoed in the ``ping`` response.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's JSON body (16 MiB).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: The stable error codes a server may return.
ERROR_CODES = (
    "bad_request",
    "unknown_database",
    "engine_error",
    "timeout",
    "overloaded",
    "shutting_down",
    "frame_too_large",
)


class ProtocolError(ReproError):
    """A frame could not be read, parsed, or was oversized."""


class ServerError(ReproError):
    """An error frame returned by the query service.

    ``code`` is one of :data:`ERROR_CODES`; subclasses exist for the
    codes a caller typically handles individually.
    """

    code = "engine_error"

    def __init__(self, message: str, code: str | None = None) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code


class QueryTimeoutError(ServerError):
    """The request exceeded its deadline (code ``timeout``)."""

    code = "timeout"


class ServerOverloadedError(ServerError):
    """The admission queue was full and the request was shed."""

    code = "overloaded"


class ServerShuttingDownError(ServerError):
    """The server is draining and accepts no new requests."""

    code = "shutting_down"


_ERROR_CLASSES = {
    "timeout": QueryTimeoutError,
    "overloaded": ServerOverloadedError,
    "shutting_down": ServerShuttingDownError,
}


def error_response(code: str, message: str) -> dict[str, Any]:
    """The wire form of one structured error."""
    return {"ok": False, "error": {"code": code, "message": message}}


def error_to_exception(error: dict[str, Any]) -> ServerError:
    """The client-side exception for an error frame's ``error`` object."""
    code = str(error.get("code", "engine_error"))
    message = str(error.get("message", "unknown server error"))
    return _ERROR_CLASSES.get(code, ServerError)(message, code)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


class RawJSON(bytes):
    """JSON text that is already encoded.

    :func:`encode_frame` splices a top-level payload value of this type
    into the frame body verbatim instead of serializing it again
    (:meth:`EncodedPatterns.page` produces them).
    """

    __slots__ = ()


def encode_frame(payload: dict[str, Any]) -> bytes:
    """Header + JSON body for one message.

    Top-level :class:`RawJSON` values are spliced into the body as they
    are; the rest of the payload is serialized around them.
    """
    raw = {k: v for k, v in payload.items() if isinstance(v, RawJSON)}
    if raw:
        payload = {k: v for k, v in payload.items() if k not in raw}
    body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    if raw:
        members = [body[1:-1]] if payload else []
        members += [
            b"%b: %b" % (json.dumps(key).encode("utf-8"), value)
            for key, value in raw.items()
        ]
        body = b"{%b}" % b", ".join(members)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _HEADER.pack(len(body)) + body


def _decode_body(body: bytes) -> dict[str, Any]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("frame body must be a JSON object")
    return payload


def send_frame(sock: socket.socket, payload: dict[str, Any]) -> None:
    """Blocking send of one frame."""
    sock.sendall(encode_frame(payload))


def _recv_exactly(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Blocking read of one frame; ``None`` on clean EOF."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"incoming frame of {length} bytes is oversized")
    body = _recv_exactly(sock, length) if length else b""
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return _decode_body(body)


async def read_frame(reader) -> dict[str, Any] | None:
    """Async read of one frame from a StreamReader; ``None`` on clean EOF."""
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from exc
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"incoming frame of {length} bytes is oversized")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return _decode_body(body)


async def write_frame(writer, payload: dict[str, Any]) -> None:
    """Async write of one frame to a StreamWriter (drains)."""
    writer.write(encode_frame(payload))
    await writer.drain()


# ----------------------------------------------------------------------
# result serialization
# ----------------------------------------------------------------------


def pattern_to_wire(pattern: Pattern) -> dict[str, Any]:
    """One association pattern as plain JSON data.

    Vertices are ``[class, oid]`` pairs in canonical order; edges are
    ``[[class, oid], [class, oid], polarity]`` triples.  The encoding is
    lossless for pattern *identity* (values live in the graph, not the
    pattern) and deterministic, so pages are stable across fetches.
    """
    return {
        "vertices": [[v.cls, v.oid] for v in sorted(pattern.vertices)],
        "edges": sorted(
            [[e.u.cls, e.u.oid], [e.v.cls, e.v.oid], e.polarity.value]
            for e in pattern.edges
        ),
    }


class EncodedPatterns:
    """A pattern set encoded once: JSON fragments in the service's
    canonical order, comma-joined in one buffer, plus each fragment's
    offset — so any page of the result is a single slice.

    Immutable once built; sessions paging the same result share it.
    """

    __slots__ = ("_buffer", "_offsets", "__weakref__")

    def __init__(self, fragments: list[str]) -> None:
        # ``ensure_ascii`` fragments: character offsets are byte offsets.
        # offsets[i] is where fragment i starts; the entry past the last
        # one closes it, as if a comma followed.
        self._offsets = array(
            "Q", accumulate((len(f) + 1 for f in fragments), initial=0)
        )
        self._buffer = ",".join(fragments).encode("ascii")

    def __len__(self) -> int:
        return len(self._offsets) - 1

    @property
    def nbytes(self) -> int:
        """Bytes this encoding holds (buffer plus offset table)."""
        return len(self._buffer) + self._offsets.itemsize * len(self._offsets)

    def page(self, start: int = 0, stop: int | None = None) -> RawJSON:
        """Patterns ``start`` up to ``stop`` as one JSON array."""
        offsets = self._offsets
        stop = len(self) if stop is None else min(stop, len(self))
        if start >= stop:
            return RawJSON(b"[]")
        return RawJSON(b"[%b]" % self._buffer[offsets[start] : offsets[stop] - 1])


_POLARITY_JSON = {p.value: json.dumps(p.value) for p in Polarity}


def encode_patterns(patterns: Iterable[Pattern]) -> EncodedPatterns:
    """Wire-encode a pattern set in the service's canonical order.

    The byte-level twin of ``sorted(map(pattern_to_wire, patterns),
    key=lambda p: (p["vertices"], p["edges"]))`` — fragment ``i`` of the
    result parses to element ``i`` of that list — without building the
    list/dict tree: each pattern is formatted straight from its sorted
    vertices and edges, and the sort runs on those tuples (which order
    exactly as their ``[class, oid]`` list forms do).
    """
    vertex_json: dict[Any, str] = {}
    rows = []
    for pattern in patterns:
        vertices = sorted(pattern.vertices)
        edges = sorted([(e.u, e.v, e.polarity.value) for e in pattern.edges])
        for vertex in vertices:
            if vertex not in vertex_json:
                cls, oid = vertex
                vertex_json[vertex] = f"[{json.dumps(cls)},{json.dumps(oid)}]"
        edges_json = ",".join(
            [
                f"[{vertex_json[u]},{vertex_json[v]},{_POLARITY_JSON[polarity]}]"
                for u, v, polarity in edges
            ]
        )
        vertices_json = ",".join([vertex_json[v] for v in vertices])
        rows.append(
            (
                vertices,
                edges,
                f'{{"edges":[{edges_json}],"vertices":[{vertices_json}]}}',
            )
        )
    # Patterns equal in both keys are equal, so the fragment never
    # decides the order; it only rides along.
    rows.sort()
    return EncodedPatterns([fragment for _, _, fragment in rows])


def wire_to_labels(wire_pattern: dict[str, Any]) -> str:
    """A compact human rendering of one wire pattern (client display)."""
    labels = []
    for cls, oid in wire_pattern["vertices"]:
        labels.append(f"{cls.lower()}{oid}" if len(cls) == 1 else f"{cls}#{oid}")
    return "(" + " ".join(labels) + ")"
