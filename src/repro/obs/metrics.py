"""Engine-wide metrics: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` is a named collection of metrics in the
Prometheus data model: monotonically increasing :class:`Counter`\\ s,
up-and-down :class:`Gauge`\\ s, and :class:`Histogram`\\ s with fixed
bucket boundaries.  Every metric supports label dimensions (``kind=``,
``rule=``, ``cls=``...) keyed per label-set, so one counter tracks e.g.
mutation events *by kind* without a metric per kind.

The engine facade, the optimizer, the rule engine and the object graph
are all instrumented against a registry (see ``docs/observability.md``
for the full metric inventory); :func:`repro.obs.export.metrics_to_prometheus`
renders the exposition text.

Metrics are thread-safe (a lock per metric) because the query service's
worker threads run queries against one shared registry concurrently.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Iterator

__all__ = [
    "Counter",
    "CounterChild",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TIME_BUCKETS",
    "CARDINALITY_BUCKETS",
    "Q_ERROR_BUCKETS",
]

#: Default histogram buckets for wall-clock seconds (sub-ms to seconds).
TIME_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Default histogram buckets for result-set cardinalities.
CARDINALITY_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)

#: Buckets for the cost model's estimate-vs-actual q-error (1.0 = exact).
Q_ERROR_BUCKETS = (1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0, 100.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    for label in labels:
        if not _LABEL_RE.match(label):
            raise ValueError(f"invalid label name {label!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base of all metric types: a validated name, help text, and a lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def __str__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Counter(Metric):
    """A monotonically increasing count, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def child(self, **labels: Any) -> "CounterChild":
        """One labelled series with the label key resolved once.

        For hot paths (e.g. the WAL appending per mutation): a child's
        :meth:`~CounterChild.inc` skips per-call label validation and
        sorting.
        """
        return CounterChild(self, _label_key(labels))

    def value(self, **labels: Any) -> float:
        """Current value of one labelled series (0.0 if never incremented)."""
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every labelled series."""
        return sum(self._values.values())

    def samples(self) -> list[tuple[dict[str, str], float]]:
        """``(labels, value)`` pairs, sorted by label-set."""
        with self._lock:
            return [(dict(key), value) for key, value in sorted(self._values.items())]


class CounterChild:
    """One pre-resolved labelled series of a :class:`Counter`."""

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: Counter, key: LabelKey) -> None:
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        values = self._counter._values
        with self._counter._lock:
            values[self._key] = values.get(self._key, 0.0) + amount


class Gauge(Metric):
    """A value that can go up and down (live instances, live edges...)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        """Set the labelled series to ``value``."""
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` to the labelled series."""
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        """Subtract ``amount`` from the labelled series."""
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        """Current value of one labelled series (0.0 if never set)."""
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> list[tuple[dict[str, str], float]]:
        """``(labels, value)`` pairs, sorted by label-set."""
        with self._lock:
            return [(dict(key), value) for key, value in sorted(self._values.items())]


class _HistogramSeries:
    """Per-label-set histogram state: bucket counts, sum, count."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * (n_buckets + 1)  # + 1 for +Inf
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """Observations bucketed against fixed upper bounds (Prometheus style).

    A value lands in the first bucket whose upper bound is >= the value
    (``le`` semantics); an implicit ``+Inf`` bucket catches the rest.
    """

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", buckets: tuple[float, ...] = TIME_BUCKETS
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram {name}: buckets must strictly increase")
        self.buckets = bounds
        self._series: dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation in the labelled series."""
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    series.bucket_counts[index] += 1
                    break
            else:
                series.bucket_counts[-1] += 1
            series.sum += value
            series.count += 1

    def count(self, **labels: Any) -> int:
        """Number of observations in one labelled series."""
        series = self._series.get(_label_key(labels))
        return series.count if series is not None else 0

    def total(self, **labels: Any) -> float:
        """Sum of observed values in one labelled series."""
        series = self._series.get(_label_key(labels))
        return series.sum if series is not None else 0.0

    def bucket_counts(self, **labels: Any) -> list[tuple[float, int]]:
        """Cumulative ``(upper-bound, count)`` pairs, ``+Inf`` last."""
        series = self._series.get(_label_key(labels))
        counts = (
            series.bucket_counts
            if series is not None
            else [0] * (len(self.buckets) + 1)
        )
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip((*self.buckets, float("inf")), counts):
            running += count
            out.append((bound, running))
        return out

    def samples(self) -> list[tuple[dict[str, str], "_HistogramSeries"]]:
        """``(labels, series)`` pairs, sorted by label-set."""
        with self._lock:
            return [(dict(key), series) for key, series in sorted(self._series.items())]


class MetricsRegistry:
    """Get-or-create home for every metric of one engine instance.

    Accessors are idempotent: asking twice for the same name returns the
    same object, so independent subsystems (database, optimizer, rules)
    can share series without coordination.  Re-registering a name as a
    different metric type raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls: type, name: str, *args: Any) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, *args)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = TIME_BUCKETS
    ) -> Histogram:
        """Get or create a histogram (``buckets`` only applies on creation)."""
        return self._get_or_create(Histogram, name, help, buckets)

    def get(self, name: str) -> Metric | None:
        """The registered metric of that name, or ``None``."""
        return self._metrics.get(name)

    def metrics(self) -> tuple[Metric, ...]:
        """Every registered metric, sorted by name."""
        return tuple(metric for _, metric in sorted(self._metrics.items()))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Metric]:
        return iter(self.metrics())

    def __len__(self) -> int:
        return len(self._metrics)

    def __str__(self) -> str:
        return f"MetricsRegistry({len(self)} metric(s))"
