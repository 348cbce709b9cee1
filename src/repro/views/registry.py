"""The view registry: named materialized views over one database.

A view is a named algebra expression plus its materialized result,
maintained incrementally by a :class:`~repro.views.maintainer.DeltaMaintainer`
riding the database's mutation-event stream.  The registry owns:

* the **version guard** — every DML method captures the graph's version
  *before* mutating and hands it to :meth:`on_mutation`; a mismatch with
  the version the registry last synced to means someone wrote to the
  object graph behind the event stream's back (an out-of-band write), so
  deltas cannot be trusted and every view is refreshed from scratch;
* **metrics** — ``repro_view_delta_total{view,op}``,
  ``repro_view_recompute_total{reason}``, ``repro_view_patterns{view}``
  and the ``repro_view_maintain_seconds`` histogram;
* **change listeners** — the query service subscribes one callback per
  mounted database to fan view deltas out to wire subscriptions.

Definitions serialize to pure JSON (:mod:`repro.views.serialize`), ride
in FileEngine checkpoint documents, and are rebuilt on recovery *before*
WAL replay so replayed mutations maintain them incrementally.
"""

from __future__ import annotations

import json
import time
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.core.expression import Expr
from repro.core.pattern import Pattern
from repro.errors import ViewError
from repro.views.delta import classify
from repro.views.maintainer import DeltaMaintainer
from repro.views.serialize import expr_from_dict, expr_to_dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.database import Database, MutationEvent

__all__ = ["MaterializedView", "ViewRegistry"]

#: listener(view, added, removed, origin); origin is "delta" for an
#: incremental step, "refresh" for a full-recompute diff.
ViewListener = Callable[
    ["MaterializedView", frozenset[Pattern], frozenset[Pattern], str], None
]


class MaterializedView:
    """One named view: definition, maintainer, and a change version."""

    def __init__(self, name: str, expr: Expr, maintainer: DeltaMaintainer) -> None:
        self.name = name
        self.expr = expr
        self.maintainer = maintainer
        #: Bumped on every materialization change (delta or refresh diff).
        self.version = 1
        #: Scoped recomputes its maintenance nodes fell back to (one per
        #: node per event; full refreshes are not counted).
        self.recomputes = 0

    @property
    def patterns(self) -> frozenset[Pattern]:
        return self.maintainer.patterns

    def info(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "expr": str(self.expr),
            "patterns": len(self),
            "version": self.version,
            "recomputes": self.recomputes,
        }

    def __len__(self) -> int:
        return len(self.maintainer)

    def __str__(self) -> str:
        return f"MaterializedView({self.name!r}, {self.expr}, {len(self)} pattern(s))"


class ViewRegistry:
    """All materialized views of one :class:`Database`."""

    def __init__(self, db: "Database") -> None:
        self._db = db
        self._views: dict[str, MaterializedView] = {}
        self._listeners: list[ViewListener] = []
        self._synced_version = db.graph.version
        metrics = db.metrics
        self._m_delta = metrics.counter(
            "repro_view_delta_total",
            "Patterns added/removed from materialized views by delta maintenance",
        )
        self._m_recompute = metrics.counter(
            "repro_view_recompute_total",
            "Scoped recomputes by reason (unsound delta rule, staleness, resync)",
        )
        self._m_patterns = metrics.gauge(
            "repro_view_patterns", "Current materialized pattern count per view"
        )
        self._m_maintain = metrics.histogram(
            "repro_view_maintain_seconds",
            "Wall time maintaining all views for one mutation event",
        )

    # ------------------------------------------------------------------
    # definition lifecycle
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def names(self) -> list[str]:
        return sorted(self._views)

    def get(self, name: str) -> MaterializedView:
        view = self._views.get(name)
        if view is None:
            raise ViewError(f"no view named {name!r}")
        return view

    def info(self) -> list[dict[str, Any]]:
        return [self._views[name].info() for name in sorted(self._views)]

    def __call__(self) -> list[dict[str, Any]]:
        """``db.views()`` introspection: one info row per view."""
        return self.info()

    def __iter__(self):
        return iter(self.names())

    def create(self, name: str, expr: Expr) -> MaterializedView:
        """Register and materialize one view (rejects unserializable defs)."""
        if name in self._views:
            raise ViewError(f"view {name!r} already exists")
        data = expr_to_dict(expr)
        try:
            json.dumps(data)
        except (TypeError, ValueError) as exc:
            raise ViewError(
                f"view {name!r} definition does not serialize to JSON: {exc}"
            ) from exc
        if expr_from_dict(data) != expr:
            raise ViewError(
                f"view {name!r} definition does not round-trip through its "
                "serialized form"
            )
        view = MaterializedView(name, expr, DeltaMaintainer(expr, self._db.graph))
        self._views[name] = view
        self._synced_version = self._db.graph.version
        self._m_patterns.set(len(view), view=name)
        self._db.events.emit(
            "view.create", view=name, expr=str(expr), patterns=len(view)
        )
        return view

    def drop(self, name: str) -> None:
        view = self._views.pop(name, None)
        if view is None:
            raise ViewError(f"no view named {name!r}")
        self._m_patterns.set(0.0, view=name)
        self._db.events.emit("view.drop", view=name)

    def definitions(self) -> list[dict[str, Any]]:
        """JSON-ready ``[{"name": ..., "expr": ...}]`` for checkpoints."""
        return [
            {"name": name, "expr": expr_to_dict(self._views[name].expr)}
            for name in sorted(self._views)
        ]

    def load_definitions(self, definitions: Iterable[Mapping[str, Any]]) -> None:
        """Rebuild views from checkpointed definitions (recovery path)."""
        for item in definitions:
            name = item["name"]
            expr = expr_from_dict(item["expr"])
            view = MaterializedView(name, expr, DeltaMaintainer(expr, self._db.graph))
            self._views[name] = view
            self._m_patterns.set(len(view), view=name)
        self._synced_version = self._db.graph.version

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def on_mutation(self, event: "MutationEvent", pre_version: int | None) -> None:
        """Maintain every view through one committed mutation event.

        ``pre_version`` is the graph version the caller observed *before*
        applying the mutation; ``None`` means the caller cannot vouch for
        it.  Any mismatch with the version this registry last synced to
        reveals out-of-band writes — deltas would be computed against a
        state the materializations never saw, so everything refreshes.
        """
        if not self._views:
            self._synced_version = self._db.graph.version
            return
        if pre_version is None or pre_version != self._synced_version:
            self.refresh_all("out_of_band")
            return
        started = time.perf_counter()
        ctx = classify(event, self._db.schema)
        for name in sorted(self._views):
            view = self._views[name]
            delta, recomputes = view.maintainer.apply(ctx)
            view.recomputes += len(recomputes)
            for _operator, reason in recomputes:
                self._m_recompute.inc(reason=reason)
            if delta:
                self._note_change(view, delta.added, delta.removed, "delta")
        self._synced_version = self._db.graph.version
        self._m_maintain.observe(time.perf_counter() - started)

    def refresh(self, name: str) -> frozenset[Pattern]:
        """Fully recompute one view; returns its new materialization."""
        view = self.get(name)
        added, removed = view.maintainer.refresh()
        self._m_recompute.inc(reason="refresh")
        self._synced_version = self._db.graph.version
        if added or removed:
            self._note_change(view, added, removed, "refresh")
        return view.patterns

    def refresh_all(self, reason: str) -> None:
        """Fully recompute every view (rollback, out-of-band writes)."""
        for name in sorted(self._views):
            view = self._views[name]
            added, removed = view.maintainer.refresh()
            self._m_recompute.inc(reason=reason)
            if added or removed:
                self._note_change(view, added, removed, "refresh")
        self._synced_version = self._db.graph.version

    def rebind(self) -> None:
        """Re-attach every maintainer to the database's (new) graph.

        Called after :meth:`Database.restore` swapped the object graph
        out from under the executor — the old materializations describe
        a graph that no longer exists.
        """
        for name in sorted(self._views):
            view = self._views[name]
            old = view.patterns
            view.maintainer.rebind(self._db.graph)
            self._m_recompute.inc(reason="rebind")
            new = view.patterns
            if new != old:
                self._note_change(view, new - old, old - new, "refresh")
        self._synced_version = self._db.graph.version

    def _note_change(
        self,
        view: MaterializedView,
        added: frozenset[Pattern],
        removed: frozenset[Pattern],
        origin: str,
    ) -> None:
        view.version += 1
        if added:
            self._m_delta.inc(len(added), view=view.name, op="add")
        if removed:
            self._m_delta.inc(len(removed), view=view.name, op="remove")
        self._m_patterns.set(len(view), view=view.name)
        self._db.events.emit(
            "view.delta",
            view=view.name,
            added=len(added),
            removed=len(removed),
            version=view.version,
            origin=origin,
        )
        for listener in list(self._listeners):
            listener(view, added, removed, origin)

    # ------------------------------------------------------------------
    # change listeners
    # ------------------------------------------------------------------

    def subscribe(self, listener: ViewListener) -> None:
        self._listeners.append(listener)

    def unsubscribe(self, listener: ViewListener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def __str__(self) -> str:
        return f"ViewRegistry({len(self._views)} view(s))"
