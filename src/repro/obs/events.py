"""Structured event log: a bounded, thread-safe ring of typed JSON events.

An :class:`EventLog` is the operational journal of a running engine or
service: every noteworthy state transition — a request starting or
finishing, an admission shed, a deadline expiry, a mutation batch, a
plan-cache invalidation, a statistics refresh, a slow-query capture —
lands as one :class:`Event` carrying a type, a monotonically increasing
sequence number, a wall-clock timestamp, an optional ``trace_id``
correlating it with a distributed trace, and free-form JSON data.

The ring is append-capped: when ``capacity`` events are held, emitting a
new one drops the oldest and bumps ``repro_events_dropped_total`` — an
operator who scrapes too rarely sees the gap in the sequence numbers and
the drop counter instead of silently missing history.  A capacity of
zero disables the log entirely (:meth:`EventLog.emit` becomes a cheap
no-op), which is what the observability-overhead benchmark compares
against.

:class:`SlowQueryLog` is a sibling ring for full slow-query capture
records (query text, chosen plan, per-node q-errors, admission state)
— bulky payloads that would crowd ordinary events out of the main ring.

Consumers: the ``events`` / ``slow_queries`` wire ops and the
``/events`` / ``/slow-queries`` HTTP admin routes of
:mod:`repro.server`, and the ``repro events`` / ``repro slow-queries``
CLI subcommands.  Like the rest of :mod:`repro.obs`, stdlib-only.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.metrics import MetricsRegistry

__all__ = ["Event", "EventLog", "SlowQueryLog", "events_to_jsonl"]


@dataclass(frozen=True)
class Event:
    """One structured log event.

    ``seq`` increases by one per emitted event (drops leave gaps visible
    to a consumer resuming from a remembered sequence number); ``ts`` is
    wall-clock Unix time, ``type`` a dotted lower-case identifier
    (``"request.finish"``, ``"admission.shed"``...), ``trace_id`` the
    distributed-trace correlation id when the triggering request carried
    one, and ``data`` the free-form JSON payload.
    """

    seq: int
    ts: float
    type: str
    data: dict[str, Any] = field(default_factory=dict)
    trace_id: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """The event as plain JSON data (the wire/export form)."""
        out: dict[str, Any] = {
            "seq": self.seq,
            "ts": round(self.ts, 6),
            "type": self.type,
            "data": self.data,
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        return out

    def __str__(self) -> str:
        return f"Event(#{self.seq} {self.type} {self.data})"


class EventLog:
    """A thread-safe, append-capped ring of :class:`Event`\\ s.

    ``emit`` never blocks on consumers and never grows beyond
    ``capacity``; overflow drops the oldest event and counts it.  With a
    metrics registry attached, ``repro_events_total{type}`` counts
    emissions and ``repro_events_dropped_total`` counts ring overwrites.
    """

    def __init__(
        self, capacity: int = 1024, metrics: MetricsRegistry | None = None
    ) -> None:
        self.capacity = max(int(capacity), 0)
        self._events: deque[Event] = deque(maxlen=self.capacity or 1)
        self._seq = 0
        self._dropped = 0
        self._lock = threading.Lock()
        self._m_events = self._m_dropped = None
        if metrics is not None:
            self._m_events = metrics.counter(
                "repro_events_total", "Structured log events emitted, by type"
            )
            self._m_dropped = metrics.counter(
                "repro_events_dropped_total",
                "Events dropped because the ring was at capacity",
            )

    @property
    def enabled(self) -> bool:
        """Whether events are recorded at all (``capacity > 0``)."""
        return self.capacity > 0

    def emit(
        self, type: str, trace_id: str | None = None, **data: Any
    ) -> Event | None:
        """Append one event; returns it (``None`` when the log is disabled).

        Keyword arguments become the event's ``data`` payload and must be
        JSON-serialisable (enforced lazily, at export time).
        """
        if not self.enabled:
            return None
        now = time.time()
        with self._lock:
            self._seq += 1
            event = Event(self._seq, now, type, data, trace_id)
            if len(self._events) == self.capacity:
                self._events.popleft()
                self._dropped += 1
                if self._m_dropped is not None:
                    self._m_dropped.inc()
            self._events.append(event)
        if self._m_events is not None:
            self._m_events.inc(type=type)
        return event

    def events(
        self,
        type: str | None = None,
        after: int | None = None,
        limit: int | None = None,
    ) -> list[Event]:
        """A snapshot of held events, oldest first.

        ``type`` filters exactly, ``after`` returns only events with a
        sequence number strictly greater (the tail-following cursor), and
        ``limit`` keeps the *newest* N of whatever matched.
        """
        with self._lock:
            out = list(self._events)
        if type is not None:
            out = [e for e in out if e.type == type]
        if after is not None:
            out = [e for e in out if e.seq > after]
        if limit is not None and limit >= 0:
            out = out[len(out) - min(limit, len(out)):]
        return out

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently emitted event (0 = none)."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events lost to ring overflow since creation."""
        return self._dropped

    def __len__(self) -> int:
        return len(self._events) if self.enabled else 0

    def __str__(self) -> str:
        return (
            f"EventLog({len(self)}/{self.capacity} event(s), "
            f"{self._dropped} dropped)"
        )


def events_to_jsonl(events: "EventLog | Iterable[Event]") -> str:
    """Events as JSON-lines (one compact object per line, oldest first)."""
    if isinstance(events, EventLog):
        events = events.events()
    return "\n".join(
        json.dumps(event.to_dict(), sort_keys=True, default=str)
        for event in events
    )


class SlowQueryLog:
    """A bounded ring of slow-query capture records.

    Each record is a plain JSON-ready dict (query text, plan, per-node
    q-errors, admission state — see
    :meth:`repro.server.service.QueryService`); the log only bounds and
    counts them.  ``repro_slow_queries_total{reason}`` distinguishes
    *why* a query was captured: ``latency`` (wall clock over the
    threshold) or ``q_error`` (cost-model mis-estimate over the
    threshold).
    """

    def __init__(
        self, capacity: int = 128, metrics: MetricsRegistry | None = None
    ) -> None:
        self.capacity = max(int(capacity), 1)
        self._records: deque[dict[str, Any]] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._total = 0
        self._m_slow = None
        if metrics is not None:
            self._m_slow = metrics.counter(
                "repro_slow_queries_total", "Slow queries captured, by reason"
            )

    def record(self, entry: dict[str, Any]) -> dict[str, Any]:
        """Append one capture record (its ``reason`` labels the metric)."""
        with self._lock:
            self._total += 1
            self._records.append(entry)
        if self._m_slow is not None:
            self._m_slow.inc(reason=str(entry.get("reason", "latency")))
        return entry

    def records(self, limit: int | None = None) -> list[dict[str, Any]]:
        """A snapshot, oldest first; ``limit`` keeps the newest N."""
        with self._lock:
            out = list(self._records)
        if limit is not None and limit >= 0:
            out = out[len(out) - min(limit, len(out)):]
        return out

    @property
    def total(self) -> int:
        """Slow queries captured since creation (drops included)."""
        return self._total

    def __len__(self) -> int:
        return len(self._records)

    def __str__(self) -> str:
        return f"SlowQueryLog({len(self)}/{self.capacity} record(s))"
