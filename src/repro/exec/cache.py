"""Memoizing sub-plan cache with event-driven invalidation.

Expression nodes are immutable and hashable with structural equality, so
a (sub)expression is its own cache key.  Two refinements on top of that:

* **canonicalization** — A-Union and A-Intersect are commutative, so
  operands are sorted before keying; ``a + b`` and ``b + a`` share one
  cache entry;
* **dependency tracking** — each entry remembers the set of classes its
  expression reads (extents, association ends, predicate value reads).
  A mutation event names the classes it touched; entries whose
  dependency set intersects are dropped.  Predicates the analyzer cannot
  see through (callbacks, ``Apply`` functions) poison the set with
  ``"*"``, meaning "invalidate on any mutation".

The cache never observes time: correctness rests entirely on the owning
executor feeding it every mutation event (and resetting it when the
graph's ``version`` counter reveals an out-of-band write).  The arena's
:class:`~repro.exec.columns.ColumnStore` rides the same event stream, so
a cached compact result and the column masks that produced it can never
disagree about which mutations they have seen.

The entry table is guarded by a lock: the query service runs many
queries against one shared executor from worker threads, so ``get`` /
``put`` race each other (and ``invalidate_classes`` iterates the table
while concurrent ``put`` calls would otherwise resize it mid-walk).
"""

from __future__ import annotations

import threading

from repro.core.assoc_set import AssociationSet
from repro.core.expression import (
    Associate,
    ClassExtent,
    Complement,
    Difference,
    Divide,
    Expr,
    Intersect,
    Literal,
    NonAssociate,
    Project,
    Select,
    Union,
)
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.analysis import predicate_classes

__all__ = [
    "PlanCache",
    "canonical_step",
    "canonicalize",
    "expr_dependencies",
    "expr_value_dependencies",
]

#: Dependency wildcard: "this entry may read anything" (opaque predicate).
ANY = "*"


def canonicalize(expr: Expr) -> Expr:
    """A canonical representative of the expression's equivalence class.

    Only syntactic commutativity is normalized (Union and A-Intersect
    operands ordered by their rendering); deeper algebraic equivalences
    are the optimizer's business, not the cache's.
    """
    return canonical_step(expr, tuple(canonicalize(c) for c in expr.children()))


def canonical_step(expr: Expr, children: tuple[Expr, ...]) -> Expr:
    """One level of :func:`canonicalize`: ``expr`` over canonical ``children``.

    ``children`` are the canonical forms of ``expr.children()``, in order.
    A planner lowering bottom-up already holds them, so it keys each node
    in one step instead of re-canonicalizing the whole subtree.
    """
    if isinstance(expr, (Union, Intersect)):
        left, right = children
        if str(left) > str(right):
            left, right = right, left
        if isinstance(expr, Union):
            return Union(left, right)
        return Intersect(left, right, expr.classes)
    if isinstance(expr, (Associate, Complement, NonAssociate)):
        return type(expr)(*children, expr.spec)
    if isinstance(expr, Difference):
        return Difference(*children)
    if isinstance(expr, Divide):
        return Divide(*children, expr.classes)
    if isinstance(expr, Select):
        return Select(children[0], expr.predicate)
    if isinstance(expr, Project):
        return Project(children[0], expr.templates, expr.links)
    return expr  # ClassExtent / Literal — already canonical


def expr_dependencies(expr: Expr) -> frozenset[str]:
    """Classes whose state the expression's result depends on.

    Collected over the *whole* tree (a Divide's divisor classes matter
    even though they never appear in the result).  Contains :data:`ANY`
    when a predicate is opaque to static analysis.
    """
    out: set[str] = set()
    _collect(expr, out)
    return frozenset(out)


def _collect(expr: Expr, out: set[str]) -> None:
    if isinstance(expr, ClassExtent):
        out.add(expr.name)
    elif isinstance(expr, Literal):
        pass  # a materialized set: evaluation ignores the graph entirely
    elif isinstance(expr, Select):
        out.update(predicate_classes(expr.predicate))
        _collect(expr.operand, out)
    elif isinstance(expr, Project):
        _collect(expr.operand, out)
    else:
        for child in expr.children():
            _collect(child, out)


def expr_value_dependencies(expr: Expr) -> frozenset[str]:
    """Classes whose *values* (not structure) the expression reads.

    Every operator except A-Select produces patterns from extents and
    edges alone — an attribute-only ``update`` event cannot change its
    result.  Only classes a predicate reads values of (plus :data:`ANY`
    for opaque predicates) make an entry stale under an update, so
    update events invalidate against this narrower set.
    """
    out: set[str] = set()
    _collect_values(expr, out)
    return frozenset(out)


def _collect_values(expr: Expr, out: set[str]) -> None:
    if isinstance(expr, Select):
        out.update(predicate_classes(expr.predicate))
        _collect_values(expr.operand, out)
    else:
        for child in expr.children():
            _collect_values(child, out)


class PlanCache:
    """Canonical-expression → result cache, invalidated by class.

    Only results are cached — plans are rebuilt per query, so a
    statistics refresh (which changes no data) leaves every entry valid.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        # value is an AssociationSet (decoded) or a CompactSet (arena-encoded);
        # each entry carries (result, class deps, value-only deps) — the
        # third set gates invalidation for attribute-only update events.
        self._entries: dict[Expr, tuple[object, frozenset[str], frozenset[str]]] = {}
        self._lock = threading.Lock()
        self.metrics = metrics
        if metrics is not None:
            self._m_hits = metrics.counter(
                "repro_plan_cache_hits_total", "Sub-plan cache hits"
            )
            self._m_misses = metrics.counter(
                "repro_plan_cache_misses_total", "Sub-plan cache misses"
            )
            self._m_invalidations = metrics.counter(
                "repro_plan_cache_invalidations_total",
                "Cache entries dropped by mutation events",
            )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Expr, kind: type | None = None) -> AssociationSet | None:
        """The cached result for a canonical key, counting hit or miss.

        ``kind`` guards the entry's representation: the same canonical
        subexpression may be cached decoded (an ``AssociationSet``, by a
        compact-region root or a reference-kernel node) in one query and
        compact (a ``CompactSet``, by a compact-region interior) in
        another.  A representation mismatch counts as a miss and the
        caller's subsequent ``put`` replaces the entry.
        """
        with self._lock:
            entry = self._entries.get(key)
        if entry is not None and kind is not None and not isinstance(entry[0], kind):
            entry = None
        if self.metrics is not None:
            (self._m_hits if entry is not None else self._m_misses).inc()
        return entry[0] if entry is not None else None

    def put(self, key: Expr, result, deps: frozenset[str]) -> None:
        value_deps = expr_value_dependencies(key)
        with self._lock:
            self._entries[key] = (result, deps, value_deps)

    def invalidate_classes(self, classes, kind: str | None = None) -> int:
        """Drop entries depending on any of ``classes``; return the count.

        ``kind`` is the mutation-event kind, when the caller knows it.
        An ``"update"`` event changes attribute values only — patterns
        (extents, edges) are untouched — so it checks each entry's
        value-dependency set instead of the full class-dependency set:
        plans that reach a class solely through edges survive.  Opaque
        (:data:`ANY`) entries always drop.
        """
        touched = set(classes)
        values_only = kind == "update"
        with self._lock:
            stale = [
                key
                for key, (_, deps, value_deps) in self._entries.items()
                if ANY in deps
                or (value_deps if values_only else deps) & touched
            ]
            for key in stale:
                del self._entries[key]
        if stale and self.metrics is not None:
            self._m_invalidations.inc(len(stale))
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
        if dropped and self.metrics is not None:
            self._m_invalidations.inc(dropped)

    def __str__(self) -> str:
        return f"PlanCache({len(self._entries)} entr(y/ies))"
