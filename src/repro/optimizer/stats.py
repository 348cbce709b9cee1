"""Statistics catalog for data-driven estimates.

§4 of the paper motivates the algebraic laws as a search space of
alternative expressions "with different performances" — but ranking those
alternatives well requires knowing the data.  :class:`StatisticsCatalog`
holds what the :class:`~repro.optimizer.cost.CostModel` consumes:
``ANALYZE``-style measured statistics — per-class extent counts and
distinct counts, equi-depth histograms over primitive-class values, and
per-association fan-out *distributions* (mean, quantiles, max,
participation and a degree-collision probability for both the regular and
the complement fan-out — not just means).  It is populated by
:meth:`StatisticsCatalog.analyze` (full scan, or sampled with
``sample=N``), kept fresh incrementally from the same mutation events the
executor's :class:`~repro.exec.arena.PatternArena` consumes, and stamped
with a monotonically increasing ``version``.

The catalog is advisory: dropping it never changes results, only
estimates.  Every refresh notifies subscribers and bumps
``repro_stats_refresh_total`` / ``repro_stats_version``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.objects.graph import ObjectGraph
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "AssociationStats",
    "ClassStats",
    "EquiDepthHistogram",
    "FanoutSummary",
    "StatisticsCatalog",
]

#: Default number of equi-depth histogram buckets.
DEFAULT_BINS = 16


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Bin:
    """One equi-depth bucket: closed value range, count, distinct count."""

    lo: Any
    hi: Any
    count: int
    distinct: int


class EquiDepthHistogram:
    """Equi-depth histogram over one primitive class's values.

    Buckets hold roughly equal counts, but a run of identical values is
    never split across buckets — a heavy hitter therefore occupies whole
    buckets with ``lo == hi`` and its equality selectivity is *exact*,
    which is the property that makes equi-depth robust under skew.
    """

    def __init__(self, bins: tuple[_Bin, ...], total: int, distinct: int) -> None:
        self.bins = bins
        self.total = total
        self.distinct = distinct

    @classmethod
    def build(
        cls, values: Iterable[Any], bins: int = DEFAULT_BINS
    ) -> "EquiDepthHistogram | None":
        """Build from raw values; ``None`` when the values do not sort."""
        vals = list(values)
        if not vals:
            return cls((), 0, 0)
        try:
            vals.sort()
        except TypeError:
            return None
        total = len(vals)
        target = max(1, -(-total // bins))  # ceil division
        out: list[_Bin] = []
        distinct_total = 0
        i = 0
        while i < total:
            j = min(i + target, total)
            while j < total and vals[j] == vals[j - 1]:
                j += 1  # keep runs of one value inside one bucket
            chunk = vals[i:j]
            # runs-in-sorted-order distinct count (no hashing required)
            distinct = 1 + sum(
                1 for k in range(1, len(chunk)) if chunk[k] != chunk[k - 1]
            )
            out.append(_Bin(chunk[0], chunk[-1], len(chunk), distinct))
            distinct_total += distinct
            i = j
        return cls(tuple(out), total, distinct_total)

    def selectivity_eq(self, value: Any) -> float | None:
        """Estimated fraction of values equal to ``value``.

        ``None`` when the value is not comparable with the bucket bounds
        (caller falls back to the uniform default).
        """
        if self.total == 0:
            return 0.0
        matching = 0.0
        try:
            for b in self.bins:
                if b.lo <= value <= b.hi:
                    # lo == hi means the bucket is a pure run of one value
                    # (necessarily == value here): exact. Mixed bucket:
                    # assume the bucket's distinct values share its count.
                    matching += b.count if b.lo == b.hi else b.count / b.distinct
        except TypeError:
            return None
        return matching / self.total

    def selectivity_cmp(self, op: str, value: Any) -> float | None:
        """Estimated fraction satisfying ``v <op> value`` for an ordering op."""
        if self.total == 0:
            return 0.0
        if op == "=":
            return self.selectivity_eq(value)
        if op == "!=":
            eq = self.selectivity_eq(value)
            return None if eq is None else 1.0 - eq
        if op not in ("<", "<=", ">", ">="):
            return None
        below = 0.0  # estimated count with v < value
        at = 0.0  # estimated count with v == value
        try:
            for b in self.bins:
                if b.hi < value:
                    below += b.count
                elif b.lo > value:
                    continue
                elif b.lo == b.hi:
                    at += b.count
                else:
                    frac = self._interpolate(b, value)
                    below += b.count * frac
                    at += b.count / b.distinct
        except TypeError:
            return None
        at = min(at, self.total - below)
        if op == "<":
            sel = below / self.total
        elif op == "<=":
            sel = (below + at) / self.total
        elif op == ">=":
            sel = 1.0 - below / self.total
        else:  # ">"
            sel = 1.0 - (below + at) / self.total
        return min(max(sel, 0.0), 1.0)

    @staticmethod
    def _interpolate(b: _Bin, value: Any) -> float:
        """Fraction of a mixed bucket strictly below ``value``."""
        if isinstance(b.lo, (int, float)) and isinstance(b.hi, (int, float)) and isinstance(value, (int, float)):
            width = float(b.hi) - float(b.lo)
            if width > 0:
                return min(max((float(value) - float(b.lo)) / width, 0.0), 1.0)
        return 0.5  # non-numeric bounds: assume the middle

    def __len__(self) -> int:
        return len(self.bins)

    def __str__(self) -> str:
        return f"EquiDepthHistogram({len(self.bins)} bucket(s), {self.total} value(s))"


# ----------------------------------------------------------------------
# per-class / per-association statistics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClassStats:
    """Measured statistics of one class extent."""

    cls: str
    count: int
    distinct: int
    histogram: EquiDepthHistogram | None
    sampled: bool = False


@dataclass(frozen=True)
class FanoutSummary:
    """Fan-out distribution of one association, seen from one end class.

    ``collision`` is the probability that two independent edge-endpoint
    draws land on the same instance (the Herfindahl index of the degree
    distribution): ``sum((deg_i / edges)^2)``.  Uniform participation
    gives ``~1/|extent|`` — the System-R assumption — while concentrated
    participation gives a much larger value, which is what A-Intersect
    matching estimates need on skewed data.
    """

    cls: str
    mean: float
    p50: float
    p90: float
    max: float
    participating: int
    collision: float
    complement_mean: float
    complement_p50: float
    complement_p90: float


@dataclass(frozen=True)
class AssociationStats:
    """Measured statistics of one association (both directions)."""

    key: tuple[str, str, str]
    edges: int
    directions: dict[str, FanoutSummary] = field(default_factory=dict)


def _quantile(sorted_values: list[float], zeros: int, q: float) -> float:
    """Quantile over ``zeros`` implicit zeros followed by sorted values."""
    n = zeros + len(sorted_values)
    if n == 0:
        return 0.0
    index = min(int(q * (n - 1)), n - 1)
    if index < zeros:
        return 0.0
    return float(sorted_values[index - zeros])


# ----------------------------------------------------------------------
# the catalog
# ----------------------------------------------------------------------


class StatisticsCatalog:
    """Measured statistics of one object graph, with incremental upkeep.

    Until :meth:`analyze` has run (``version == 0``) the catalog is
    dormant and consumers fall back to the uniformity model.  After a
    scan, mutation events accumulate staleness counters — ``link`` and
    ``unlink`` per association, every other kind per touched class.  Once
    a class or association has absorbed more than ``stale_fraction`` of
    its analyzed count (floored at ``min_stale_events``), it alone is
    re-analyzed — bumping the version and notifying subscribers, exactly
    like an explicit targeted :meth:`analyze`.
    """

    def __init__(
        self,
        graph: ObjectGraph,
        metrics: MetricsRegistry | None = None,
        stale_fraction: float = 0.25,
        min_stale_events: int = 8,
        histogram_bins: int = DEFAULT_BINS,
    ) -> None:
        self.graph = graph
        self.schema = graph.schema
        self.metrics = metrics
        self.stale_fraction = stale_fraction
        self.min_stale_events = min_stale_events
        self.histogram_bins = histogram_bins
        self.version = 0
        self._classes: dict[str, ClassStats] = {}
        self._assocs: dict[tuple[str, str, str], AssociationStats] = {}
        #: Staleness counters: class name → events, and association key →
        #: link/unlink events.
        self._dirty: Counter = Counter()
        self._assoc_dirty: Counter = Counter()
        self._subscribers: list[Callable[[frozenset[str]], None]] = []
        #: Optional column-store provider (duck-typed: ``is_materialized``
        #: + ``values_snapshot``).  Attached by the executor; when a
        #: class's typed column is materialized, histogram/distinct
        #: builders read its values from the column instead of boxing
        #: every object, and auto-refresh rescans become column-only.
        self._columns = None
        if metrics is not None:
            self._m_refresh = metrics.counter(
                "repro_stats_refresh_total",
                "Statistics (re-)analyze passes, by reason",
            )
            self._m_version = metrics.gauge(
                "repro_stats_version", "Current statistics catalog version"
            )
            self._m_version.set(0)

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------

    @property
    def analyzed(self) -> bool:
        """Whether at least one ANALYZE pass has run."""
        return self.version > 0

    def subscribe(self, fn: Callable[[frozenset[str]], None]) -> None:
        """Call ``fn(refreshed_classes)`` after every (re-)analyze pass."""
        self._subscribers.append(fn)

    def attach_columns(self, provider) -> None:
        """Attach a :class:`~repro.exec.columns.ColumnStore` (duck-typed).

        Purely an accelerator: analyze passes over a class whose column is
        materialized read values straight out of the typed column, and the
        staleness auto-refresh downgrades to a column-only rescan for such
        classes (association fan-outs refresh on their own link/unlink
        counters).
        """
        self._columns = provider

    def analyze(
        self,
        sample: int | None = None,
        seed: int = 0,
        classes: Iterable[str] | None = None,
        reason: str = "analyze",
    ) -> int:
        """Scan the graph (optionally sampled) and refresh the catalog.

        ``classes`` restricts the pass to those classes (and the
        associations incident to them); the statistics of every other
        class survive.  Returns the new stats version.
        """
        rng = random.Random(seed)
        if classes is None:
            targets = {cdef.name for cdef in self.schema.classes}
        else:
            targets = set(classes)
        for cls in sorted(targets):
            if self.schema.has_class(cls):
                self._classes[cls] = self._analyze_class(cls, sample, rng)
        for assoc in self.schema.associations:
            if assoc.left in targets or assoc.right in targets:
                self._assocs[assoc.key] = self._analyze_association(
                    assoc, sample, rng
                )
                self._assoc_dirty.pop(assoc.key, None)
        for cls in targets:
            self._dirty.pop(cls, None)
        return self._publish(frozenset(targets), reason)

    def _publish(self, refreshed: frozenset[str], reason: str) -> int:
        """Bump the version, count the refresh and notify subscribers."""
        self.version += 1
        if self.metrics is not None:
            self._m_refresh.inc(reason=reason)
            self._m_version.set(self.version)
        for fn in self._subscribers:
            fn(refreshed)
        return self.version

    def _analyze_class(
        self, cls: str, sample: int | None, rng: random.Random
    ) -> ClassStats:
        extent = self.graph.extent(cls)
        count = len(extent)
        if not self.schema.class_def(cls).is_primitive:
            return ClassStats(cls, count, count, None)
        sampled = sample is not None and count > sample
        values = None
        if not sampled and self._columns is not None:
            # A materialized column already holds every live value boxed
            # once — scan it instead of re-boxing through the object graph.
            values = self._columns.values_snapshot(cls)
        if values is None:
            instances = sorted(extent)
            if sampled:
                instances = rng.sample(instances, sample)
            values = [self.graph.value(i) for i in instances]
        histogram = EquiDepthHistogram.build(values, self.histogram_bins)
        distinct = len(set(map(repr, values)))
        return ClassStats(cls, count, distinct, histogram, sampled)

    def _analyze_association(
        self, assoc, sample: int | None, rng: random.Random
    ) -> AssociationStats:
        edges = self.graph.edge_count(assoc)
        degrees: dict[str, Counter] = {assoc.left: Counter(), assoc.right: Counter()}
        for a, b in self.graph.edges(assoc):
            degrees[assoc.left][a] += 1
            degrees[assoc.right][b] += 1
        directions: dict[str, FanoutSummary] = {}
        for cls, opposite in ((assoc.left, assoc.right), (assoc.right, assoc.left)):
            directions[cls] = self._fanout_summary(
                cls, opposite, degrees[cls], edges, sample, rng
            )
        return AssociationStats(assoc.key, edges, directions)

    def _fanout_summary(
        self,
        cls: str,
        opposite: str,
        degree: Counter,
        edges: int,
        sample: int | None,
        rng: random.Random,
    ) -> FanoutSummary:
        n_src = self.graph.extent_size(cls)
        sizes = sorted(degree.values())
        if sample is not None and len(sizes) > sample:
            sizes = sorted(rng.sample(sizes, sample))
        participating = len(degree)
        zeros = max(n_src - participating, 0)
        mean = edges / n_src if n_src else 0.0
        p50 = _quantile(sizes, zeros, 0.5)
        p90 = _quantile(sizes, zeros, 0.9)
        p10 = _quantile(sizes, zeros, 0.1)
        mx = float(sizes[-1]) if sizes else 0.0
        deg_total = sum(sizes)
        collision = (
            sum((d / deg_total) ** 2 for d in sizes) if deg_total else 0.0
        )
        opp = float(self.graph.extent_size(opposite))
        return FanoutSummary(
            cls=cls,
            mean=mean,
            p50=p50,
            p90=p90,
            max=mx,
            participating=participating,
            collision=collision,
            complement_mean=max(opp - mean, 0.0),
            complement_p50=max(opp - p50, 0.0),
            complement_p90=max(opp - p10, 0.0),
        )

    # ------------------------------------------------------------------
    # incremental upkeep
    # ------------------------------------------------------------------

    def apply(self, event) -> None:
        """Fold one mutation event into the staleness accounting.

        Dormant catalogs ignore events entirely.  Analyzed ones count a
        ``link``/``unlink`` against its association and re-analyze that
        association alone once its counter crosses the staleness
        threshold; every other event counts against the touched classes,
        each re-analyzed (auto-refresh) once its counter crosses.
        """
        if not self.analyzed:
            return
        if event.kind in ("link", "unlink"):
            a, b = event.instances
            self._count_link(self.schema.resolve(a.cls, b.cls, event.association))
            return
        touched = {i.cls for i in event.instances}
        for cls in touched:
            self._dirty[cls] += 1
        stale = sorted(cls for cls in touched if self._dirty[cls] >= self._threshold(cls))
        if not stale:
            return
        # Classes whose typed column is materialized get a targeted cheap
        # rescan — one pass over the column's live values, no association
        # re-analysis (fan-outs refresh on their own link/unlink counters).
        columnar = [cls for cls in stale if self._column_backed(cls)]
        rest = [cls for cls in stale if cls not in columnar]
        if columnar:
            self._rescan_columns(columnar)
        if rest:
            self.analyze(classes=rest, reason="auto")

    def _count_link(self, assoc) -> None:
        """One link/unlink against ``assoc``; re-analyze it once stale."""
        self._assoc_dirty[assoc.key] += 1
        stats = self._assocs.get(assoc.key)
        base = stats.edges if stats is not None else self.graph.edge_count(assoc)
        threshold = max(self.min_stale_events, int(self.stale_fraction * base))
        if self._assoc_dirty[assoc.key] < threshold:
            return
        self._assocs[assoc.key] = self._analyze_association(
            assoc, None, random.Random(0)
        )
        self._assoc_dirty.pop(assoc.key, None)
        self._publish(frozenset((assoc.left, assoc.right)), "auto-assoc")

    def _column_backed(self, cls: str) -> bool:
        """Whether ``cls`` can be auto-refreshed from its typed column."""
        return (
            self._columns is not None
            and self.schema.has_class(cls)
            and self.schema.class_def(cls).is_primitive
            and self._columns.is_materialized(cls)
        )

    def _rescan_columns(self, classes: list[str]) -> int:
        """Column-only re-analyze: rebuild class stats from live column
        values, skip the association scans, and publish a new version the
        same way :meth:`analyze` does (subscribers, metrics, dirty reset).
        """
        for cls in classes:
            values = self._columns.values_snapshot(cls)
            if values is None:  # raced a reset: fall back to the full path
                self._classes[cls] = self._analyze_class(cls, None, random.Random(0))
            else:
                histogram = EquiDepthHistogram.build(values, self.histogram_bins)
                distinct = len(set(map(repr, values)))
                self._classes[cls] = ClassStats(
                    cls, len(values), distinct, histogram
                )
            self._dirty.pop(cls, None)
        return self._publish(frozenset(classes), "auto-column")

    def _threshold(self, cls: str) -> int:
        stats = self._classes.get(cls)
        base = stats.count if stats is not None else self.graph.extent_size(cls)
        return max(self.min_stale_events, int(self.stale_fraction * base))

    def on_out_of_band(self) -> None:
        """The graph moved without events: every statistic is suspect —
        re-analyze if the catalog was live (mirrors the executor's full
        index rebuild)."""
        if self.analyzed:
            self.analyze(reason="out-of-band")

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def class_stats(self, cls: str) -> ClassStats | None:
        return self._classes.get(cls)

    def histogram(self, cls: str) -> EquiDepthHistogram | None:
        stats = self._classes.get(cls)
        return stats.histogram if stats is not None else None

    def association_stats(self, key: tuple[str, str, str]) -> AssociationStats | None:
        return self._assocs.get(key)

    def fanout_summary(
        self, a_cls: str, b_cls: str, name: str | None = None
    ) -> FanoutSummary | None:
        """The fan-out distribution of ``R(A, B)`` seen from ``a_cls``."""
        try:
            assoc = self.schema.resolve(a_cls, b_cls, name)
        except Exception:
            return None
        stats = self._assocs.get(assoc.key)
        return stats.directions.get(a_cls) if stats is not None else None

    def match_probability(self, cls: str) -> float | None:
        """P(two independent edge-endpoint draws pick the same instance).

        Aggregated over every analyzed association incident to ``cls``,
        weighted by edge count — the overlap statistic A-Intersect
        matching estimates use.  ``None`` when no incident association
        has been analyzed (or none has edges).
        """
        acc = 0.0
        weight = 0
        for stats in self._assocs.values():
            direction = stats.directions.get(cls)
            if direction is None or stats.edges == 0:
                continue
            acc += stats.edges * direction.collision
            weight += stats.edges
        if weight == 0:
            return None
        return acc / weight

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------

    def summary(self) -> str:
        """A human-readable statistics table (the ``\\stats`` view)."""
        lines = [
            f"StatisticsCatalog version {self.version} — "
            f"{len(self._classes)} class(es), {len(self._assocs)} association(s)"
        ]
        if not self.analyzed:
            lines.append("  (not analyzed yet — run ANALYZE)")
            return "\n".join(lines)
        lines.append(
            f"  {'class':<14} {'count':>7} {'distinct':>8} "
            f"{'hist.buckets':>12} {'sampled':>7}"
        )
        for cls in sorted(self._classes):
            s = self._classes[cls]
            buckets = len(s.histogram) if s.histogram is not None else 0
            lines.append(
                f"  {s.cls:<14} {s.count:>7} {s.distinct:>8} "
                f"{buckets:>12} {'yes' if s.sampled else 'no':>7}"
            )
        lines.append(
            f"  {'association':<22} {'from':<12} {'edges':>6} {'mean':>6} "
            f"{'p50':>5} {'p90':>5} {'max':>5} {'comp.mean':>9} {'collision':>9}"
        )
        for key in sorted(self._assocs):
            stats = self._assocs[key]
            label = f"{key[0]}—{key[1]}[{key[2]}]"
            for cls in sorted(stats.directions):
                d = stats.directions[cls]
                lines.append(
                    f"  {label:<22} {cls:<12} {stats.edges:>6} {d.mean:>6.2f} "
                    f"{d.p50:>5.1f} {d.p90:>5.1f} {d.max:>5.0f} "
                    f"{d.complement_mean:>9.1f} {d.collision:>9.4f}"
                )
                label = ""
        return "\n".join(lines)

    def __str__(self) -> str:
        return (
            f"StatisticsCatalog(v{self.version}, {len(self._classes)} class(es), "
            f"{len(self._assocs)} association(s))"
        )
