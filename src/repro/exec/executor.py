"""The physical execution engine: planning and caching.

One :class:`Executor` serves one :class:`~repro.objects.graph.ObjectGraph`.
It owns the derived state the physical layer runs on — an
:class:`~repro.exec.indexes.IndexManager` and a
:class:`~repro.exec.cache.PlanCache` — and keeps both honest through two
channels:

* :meth:`on_mutation` — the :class:`~repro.engine.database.Database`
  forwards every mutation event; indexes update incrementally, cache
  entries depending on the touched classes are dropped;
* the graph's ``version`` counter — a mutation that bypassed the event
  stream (direct graph access) leaves ``version`` ahead of what the
  events explained, and the next :meth:`run` rebuilds everything from
  scratch rather than serve stale results.

The logical evaluator remains the semantic reference; the executor is
an accelerator whose results are verified identical in the property
tests (``tests/properties/test_physical_equivalence.py``).
"""

from __future__ import annotations

from repro.core.assoc_set import AssociationSet
from repro.core.expression import Expr
from repro.exec.arena import PatternArena
from repro.exec.cache import PlanCache
from repro.exec.indexes import IndexManager
from repro.exec.physical import ExecContext, PhysicalNode, PhysicalPlanner
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
        compact: bool = True,
        stats=None,
        compiled_select: bool = True,
    ) -> None:
        self.graph = graph
        self.metrics = metrics
        # Optional StatisticsCatalog: fed the same mutation events as the
        # indexes, and its FeedbackStore collects actual cardinalities.
        self.stats = stats
        self.indexes = IndexManager(graph)
        self.arena = PatternArena(graph, metrics)
        self.cache = PlanCache(metrics)
        self.planner = PhysicalPlanner(
            graph, metrics, compact=compact, compiled_select=compiled_select
        )
        # The stats catalog's histogram/distinct builders scan columns
        # instead of objects once a class's column is materialized.
        if stats is not None and hasattr(stats, "attach_columns"):
            stats.attach_columns(self.arena.columns)
        self._synced_version = graph.version
        if metrics is not None:
            self._m_resets = metrics.counter(
                "repro_executor_resets_total",
                "Full index/cache rebuilds forced by out-of-band mutations",
            )

    # ------------------------------------------------------------------
    # state maintenance
    # ------------------------------------------------------------------

    def on_mutation(self, event, pre_version: int | None = None) -> int:
        """Fold one mutation event into indexes, arena, and cache.

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
            self.indexes.reset()
            self.arena.reset()
            self.cache.clear()
            if self.stats is not None:
                self.stats.on_out_of_band()
            self._synced_version = self.graph.version
            if self.metrics is not None:
                self._m_resets.inc()
            return 0
        self.indexes.apply(event)
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
            self.indexes.reset()
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

    def plan(
        self,
        expr: Expr,
        compact: bool | None = None,
        compiled_select: bool | None = None,
    ) -> PhysicalNode:
        """The physical plan the executor would run for ``expr``.

        ``compact`` / ``compiled_select`` override the planner's settings
        for this call only (``None`` keeps the constructor's defaults).
        """
        self.refresh()
        return self.planner.plan(
            expr, compact=compact, compiled_select=compiled_select
        )

    def run(
        self,
        expr: Expr,
        *,
        trace: Tracer | None = None,
        use_cache: bool = True,
        plan: PhysicalNode | None = None,
    ) -> AssociationSet:
        """Evaluate ``expr`` through its physical plan.

        A caller that already holds the plan (from :meth:`plan`, e.g. to
        read its root strategy) passes it back via ``plan`` and skips
        replanning; the plan must come from this executor *after* its
        last refresh.  Per-call planner overrides (``compact``,
        ``compiled_select``) go through :meth:`plan` the same way.
        """
        if plan is None:
            self.refresh()
            plan = self.planner.plan(expr)
        ctx = ExecContext(
            self.graph,
            self.indexes,
            self.cache,
            use_cache,
            arena=self.arena,
            feedback=self.stats.feedback if self.stats is not None else None,
        )
        return plan.execute(ctx, trace)

    def __str__(self) -> str:
        return f"Executor({self.indexes}, {self.cache})"
