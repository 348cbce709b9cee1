"""Pure measurement helpers: percentiles, throughput, spans, counter deltas.

Nothing here imports ``repro`` or touches a socket, so every rule the
benchmark's numbers rest on is unit-tested in ``test_harness.py``.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

__all__ = [
    "MIN_BEYOND",
    "Span",
    "Tracer",
    "median_rate",
    "median_time_ms",
    "parse_prometheus",
    "counter_delta",
    "percentile",
    "self_times",
    "split_segments",
    "spread",
    "tail_of_segments",
]

#: A tail percentile is supported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> tuple[float, int]:
    """The ``q``-th percentile (nearest rank) and the sample count beyond it.

    A tail percentile with fewer than :data:`MIN_BEYOND` samples beyond it
    is one or two outliers, not a percentile; callers report the count so a
    reader can tell.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def median_rate(segments: Iterable[tuple[int, float]]) -> float:
    """Median of per-segment ``completed / seconds`` rates.

    The timed run is cut into equal segments; one segment hit by a
    checkpoint or a scheduler hiccup moves a whole-run mean but not the
    median segment.
    """
    rates = [done / seconds for done, seconds in segments if seconds > 0]
    if not rates:
        raise ValueError("no segment with positive duration")
    return statistics.median(rates)


def split_segments(n_items: int, n_segments: int) -> list[range]:
    """``n_segments`` contiguous index ranges of near-equal size over ``n_items``."""
    n_segments = max(1, min(n_segments, n_items))
    bounds = [round(i * n_items / n_segments) for i in range(n_segments + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def tail_of_segments(samples: Sequence[float], q: float, n_segments: int) -> float:
    """Median over ``n_segments`` contiguous parts of each part's percentile.

    A whole-run p95 is moved by any disturbance longer than a twentieth of
    the run; the median part is not, as long as most parts are clean.
    """
    parts = split_segments(len(samples), n_segments)
    return statistics.median(percentile(samples[p.start : p.stop], q)[0] for p in parts)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def median_time_ms(fn, reps: int = 20, budget_s: float = 0.5) -> float:
    """Median wall time of ``fn()`` in ms over up to ``reps`` calls, stopping
    early once ``budget_s`` is spent so a 100 ms call is not run 20 times."""
    samples: list[float] = []
    spent = 0.0
    while len(samples) < reps and (not samples or spent < budget_s):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        samples.append(elapsed * 1e3)
        spent += elapsed
    return statistics.median(samples)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


@dataclass
class Span:
    """One timed interval: name, start, end, the span that caused it, and
    the request it belongs to.  Times are ``perf_counter`` seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Keeps spans in memory; :meth:`write` dumps them when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: "Span | None",
        request: int,
        **attrs: Any,
    ) -> Span:
        span = Span(
            len(self.spans),
            name,
            start,
            end,
            parent.id if parent is not None else None,
            request,
            attrs,
        )
        self.spans.append(span)
        return span

    def write(self, path) -> None:
        """One JSON object per line; times in ms from the first span's start."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = {
                    "id": s.id,
                    "name": s.name,
                    "start_ms": round((s.start - origin) * 1e3, 4),
                    "end_ms": round((s.end - origin) * 1e3, 4),
                    "parent": s.parent,
                    "request": s.request,
                }
                row.update(s.attrs)
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Per span id: duration minus the part its child spans cover, in ms.

    Children may overlap each other (or stick out of the parent when a
    server-reported duration is anchored client-side), so the cover is the
    union of the child intervals clipped to the parent, not their sum.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = (span.end - span.start - covered) * 1e3
    return out


# ----------------------------------------------------------------------
# Prometheus text → counter deltas
# ----------------------------------------------------------------------


def parse_prometheus(text: str) -> dict[str, float]:
    """``name{labels}`` → value for every sample line of a metrics dump."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            out[key] = float(value)
        except ValueError:
            continue
    return out


def counter_delta(
    before: dict[str, float], after: dict[str, float], name: str, **labels: str
) -> float:
    """Growth of metric ``name`` between two dumps, summed over every label
    set that carries all of ``labels`` (``name`` matches exactly, so
    ``x_total`` does not swallow ``x_total_bucket``)."""
    wanted = [f'{k}="{v}"' for k, v in labels.items()]
    total = 0.0
    for key, value in after.items():
        base, _, rest = key.partition("{")
        if base != name or not all(w in rest for w in wanted):
            continue
        total += value - before.get(key, 0.0)
    return total
