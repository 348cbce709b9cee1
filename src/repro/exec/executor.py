"""The physical execution engine: planning and caching.

One :class:`Executor` serves one :class:`~repro.objects.graph.ObjectGraph`.
It owns the derived state the physical layer runs on — a
:class:`~repro.exec.arena.PatternArena` (interning tables, compact
extents and adjacency, typed columns) and a
:class:`~repro.exec.cache.PlanCache` — and keeps both honest through two
channels:

* :meth:`on_mutation` — the :class:`~repro.engine.database.Database`
  forwards every mutation event; the arena patches its derived
  structures incrementally, cache entries depending on the touched
  classes are dropped;
* the graph's ``version`` counter — a mutation that bypassed the event
  stream (direct graph access) leaves ``version`` ahead of what the
  events explained, and the next :meth:`run` rebuilds everything from
  scratch rather than serve stale results.

The logical evaluator (:meth:`~repro.core.expression.Expr.evaluate`)
remains the semantic reference; every plan the executor runs is
verified identical to it in the property tests
(``tests/properties/test_physical_equivalence.py`` and its siblings).
"""

from __future__ import annotations

from repro.core.assoc_set import AssociationSet
from repro.core.expression import Expr
from repro.exec.arena import PatternArena
from repro.exec.cache import PlanCache
from repro.exec.physical import CompactNode, ExecContext, PhysicalPlanner
from repro.objects.graph import ObjectGraph
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Tracer

__all__ = ["Executor"]


class Executor:
    """Physical query execution over one object graph."""

    def __init__(
        self,
        graph: ObjectGraph,
        metrics: MetricsRegistry | None = None,
        stats=None,
    ) -> None:
        self.graph = graph
        self.metrics = metrics
        # Optional StatisticsCatalog, fed the same mutation events as the
        # arena.
        self.stats = stats
        self.arena = PatternArena(graph, metrics)
        self.cache = PlanCache(metrics)
        self.planner = PhysicalPlanner(graph, metrics)
        # The stats catalog's histogram/distinct builders scan columns
        # instead of objects once a class's column is materialized.
        if stats is not None and hasattr(stats, "attach_columns"):
            stats.attach_columns(self.arena.columns)
        self._synced_version = graph.version
        if metrics is not None:
            self._m_resets = metrics.counter(
                "repro_executor_resets_total",
                "Full arena/cache rebuilds forced by out-of-band mutations",
            )

    # ------------------------------------------------------------------
    # state maintenance
    # ------------------------------------------------------------------

    def on_mutation(self, event, pre_version: int | None = None) -> int:
        """Fold one mutation event into the arena and the cache.

        ``pre_version`` is the graph version the caller observed before
        applying the mutation, when it can vouch for one.  A mismatch
        with the version this executor last synced to means writes hit
        the graph *between* events (out-of-band) — the incremental state
        would explain the new version without ever having seen them, so
        everything derived is rebuilt instead.

        Returns the number of cache entries the event invalidated (the
        database's event log records non-zero counts).
        """
        if pre_version is not None and pre_version != self._synced_version:
            self.arena.reset()
            self.cache.clear()
            if self.stats is not None:
                self.stats.on_out_of_band()
            self._synced_version = self.graph.version
            if self.metrics is not None:
                self._m_resets.inc()
            return 0
        self.arena.apply(event)
        # Per-kind delta classification: attribute-only updates invalidate
        # against each entry's value-dependency set, so plans that touch
        # the class solely through edges keep their cached results.
        invalidated = self.cache.invalidate_classes(
            {i.cls for i in event.instances}, kind=event.kind
        )
        if self.stats is not None:
            self.stats.apply(event)
        self._synced_version = self.graph.version
        return invalidated

    def refresh(self) -> None:
        """Drop all derived state if the graph moved without events.

        The arena's interning tables go too — compact cache entries
        encoded against the old id space are cleared in the same pass, so
        the re-interned arena can never be read through stale ids.
        """
        if self.graph.version != self._synced_version:
            self.arena.reset()
            self.cache.clear()
            if self.stats is not None:
                self.stats.on_out_of_band()
            self._synced_version = self.graph.version
            if self.metrics is not None:
                self._m_resets.inc()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def plan(self, expr: Expr) -> CompactNode:
        """The physical plan the executor would run for ``expr``."""
        self.refresh()
        return self.planner.plan(expr)

    def run(
        self,
        expr: Expr,
        *,
        trace: Tracer | None = None,
        use_cache: bool = True,
        plan: CompactNode | None = None,
    ) -> AssociationSet:
        """Evaluate ``expr`` through its physical plan.

        A caller that already holds the plan (from :meth:`plan`, e.g. to
        read its root strategy) passes it back via ``plan`` so it is not
        built twice; the plan must come from this executor *after* its
        last refresh.
        """
        if plan is None:
            self.refresh()
            plan = self.planner.plan(expr)
        ctx = ExecContext(self.graph, self.cache, use_cache, self.arena)
        return plan.execute(ctx, trace)

    def __str__(self) -> str:
        return f"Executor({self.arena}, {self.cache})"
