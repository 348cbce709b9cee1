"""Physical plans: strategy-annotated, cache-aware operator trees.

A physical plan mirrors its logical :class:`~repro.core.expression.Expr`
tree node for node — the span tree a traced execution records therefore
still mirrors the expression tree, which ``EXPLAIN ANALYZE`` relies on.
What changes is *how* each node computes its result:

========================  =====================================================
strategy                  applies to
========================  =====================================================
``extent-scan``           :class:`ClassExtent` — reads the IndexManager's
                          cached extent set (the underlying graph extent is
                          scanned once, then maintained incrementally)
``edge-scan``             Associate of two bare extents matching the
                          association's ends: the answer IS the association's
                          edge list, read straight from the adjacency index
``index-join``            any other Associate — index-nested-loop through
                          ``graph.partners``, driving from the smaller operand
                          (Associate is commutative, so the swap is free)
``value-index-scan``      ``σ(X)[X = const]`` — answered from the per-class
                          value index, then re-checked by the predicate
``compact-select``        any other σ whose predicate compiles to column
                          masks — over a bare extent as one selection
                          bitmask (:func:`repro.exec.columns.compile_select`,
                          ``k_select_mask``), over any other compact operand
                          as one mask per comparison atom
                          (:func:`repro.exec.columns.compile_pattern_select`,
                          ``k_select_patterns``)
``compact-kernel``        any maximal operator subtree closed over the batch
                          kernels of :mod:`repro.exec.kernels` — executed
                          over the integer-interned arena representation,
                          decoded only at the region root
``cache-hit``             any node whose canonical subexpression is in the
                          plan cache (reported at run time, not plan time)
========================  =====================================================

Three shapes keep a reference kernel under an honest strategy name: a
σ whose predicate cannot lower (``Callback``, computed values, two
class-value sides, ``const in Class`` under ``forall``) or whose operand
holds a literal (``object-eval``, per-pattern ``Predicate.evaluate``); a
Project with path links (``project``); and a binary graph operator whose
association does not resolve.  An operator above one of them falls back
too.  With ``PhysicalPlanner(compact=False)`` the compact path is
disabled and the reference strategies (``index-join``,
``complement-scan``, ``free-set-scan``, ``hash-intersect``, ``union``,
``difference``, ``divide``, ``object-eval``, ``project``,
``value-index-scan``, ``literal``) cover every operator.

The planner never consults instance data — only the schema and O(1)
statistics — so planning is cheap enough to run per query.
"""

from __future__ import annotations

from typing import Any

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
from repro.core.operators import (
    a_complement,
    a_difference,
    a_divide,
    a_intersect,
    a_project,
    a_select,
    a_union,
    associate,
    non_associate,
)
from repro.errors import EvaluationError
from repro.exec.arena import CompactSet, PatternArena
from repro.exec.cache import PlanCache, canonicalize
from repro.exec.columns import compile_pattern_select, compiled_select_probe
from repro.exec.indexes import IndexManager
from repro.exec.kernels import (
    k_associate,
    k_complement,
    k_difference,
    k_divide,
    k_intersect,
    k_nonassociate,
    k_project,
    k_select_mask,
    k_select_patterns,
    k_union,
)
from repro.core.pattern import Pattern
from repro.objects.graph import ObjectGraph
from repro.obs.span import Span, Tracer
from repro.optimizer.analysis import (
    edge_scannable,
    predicate_classes,
    value_index_probe,
)

__all__ = ["CompactNode", "ExecContext", "PhysicalNode", "PhysicalPlanner"]


class ExecContext:
    """Everything a physical node needs at run time."""

    __slots__ = (
        "graph",
        "indexes",
        "cache",
        "use_cache",
        "arena",
        "feedback",
    )

    def __init__(
        self,
        graph: ObjectGraph,
        indexes: IndexManager,
        cache: PlanCache | None = None,
        use_cache: bool = True,
        arena: PatternArena | None = None,
        feedback=None,
    ) -> None:
        self.graph = graph
        self.indexes = indexes
        self.cache = cache
        self.use_cache = use_cache
        # Compact-kernel nodes need an arena; a context built without one
        # (tests driving plans by hand) lazily gets a private arena.
        self.arena = arena if arena is not None else PatternArena(graph)
        # Optional FeedbackStore: actual sub-plan cardinalities recorded
        # on cache misses (true executions) for the adaptive cost model.
        self.feedback = feedback


class PhysicalNode:
    """One node of a physical plan (mirrors one logical node)."""

    strategy = "?"

    def __init__(
        self,
        expr: Expr,
        children: tuple["PhysicalNode", ...] = (),
        key: Expr | None = None,
        deps: frozenset[str] = frozenset(),
    ) -> None:
        self.expr = expr
        self.children = children
        #: Canonical subexpression used as the plan-cache key (None = don't).
        self.key = key
        #: Classes this subtree's result depends on (cache invalidation).
        self.deps = deps

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self, ctx: ExecContext, trace: Tracer | None = None) -> AssociationSet:
        """Evaluate this subtree, mirroring ``Expr.evaluate``'s tracing."""
        if trace is None:
            return self._cached(ctx, None, None)
        span = trace.begin(str(self.expr), self.expr.kind, strategy=self.strategy)
        try:
            result = self._cached(ctx, trace, span)
        except BaseException as exc:
            trace.finish(span, error=type(exc).__name__)
            raise
        trace.finish(span, output=len(result))
        return result

    def _cached(
        self, ctx: ExecContext, trace: Tracer | None, span: Span | None
    ) -> AssociationSet:
        if ctx.use_cache and ctx.cache is not None and self.key is not None:
            hit = ctx.cache.get(self.key, AssociationSet)
            if hit is not None:
                if span is not None:
                    span.attributes["strategy"] = "cache-hit"
                return hit
            result = self._execute(ctx, trace, span)
            ctx.cache.put(self.key, result, self.deps)
            self._record(ctx, len(result))
            return result
        return self._execute(ctx, trace, span)

    def _record(self, ctx: ExecContext, actual: int) -> None:
        """Record the actual cardinality of one true (cache-miss) run.

        Only the cache-miss path records, so estimates always describe a
        *previous* execution — EXPLAIN runs bypass the cache and never
        feed the store, keeping q-error measurements honest.
        """
        if ctx.feedback is not None and self.key is not None:
            ctx.feedback.record(self.key, actual, self.deps)

    def _execute(
        self, ctx: ExecContext, trace: Tracer | None, span: Span | None
    ) -> AssociationSet:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def walk(self, depth: int = 0):
        """Yield ``(node, depth)`` pairs, pre-order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    @property
    def label(self) -> str:
        """Display label for plan listings (strategy, possibly qualified)."""
        return self.strategy

    def describe(self) -> str:
        """One line per node: strategy and expression, indented by depth."""
        return "\n".join(
            f"{'  ' * depth}{node.label:<18} {node.expr}"
            for node, depth in self.walk()
        )

    def __str__(self) -> str:
        return f"{type(self).__name__}[{self.strategy}]({self.expr})"


# ----------------------------------------------------------------------
# leaves
# ----------------------------------------------------------------------


class ExtentScan(PhysicalNode):
    strategy = "extent-scan"

    def _execute(self, ctx, trace, span):
        return ctx.indexes.extent_set(self.expr.name)


class LiteralValue(PhysicalNode):
    strategy = "literal"

    def _execute(self, ctx, trace, span):
        return self.expr.value


# ----------------------------------------------------------------------
# binary graph operators
# ----------------------------------------------------------------------


class EdgeScanJoin(PhysicalNode):
    """Associate of two bare extents: read the edge list directly.

    The operand extents are still evaluated (their spans and scan metrics
    are part of the query's observable shape, and they are cached reads),
    but the join itself is a dictionary lookup, not a loop.
    """

    strategy = "edge-scan"

    def _execute(self, ctx, trace, span):
        assoc, _, _ = self.expr.resolve(ctx.graph)
        for child in self.children:
            child.execute(ctx, trace)
        return ctx.indexes.edge_set(assoc)


class IndexJoin(PhysicalNode):
    """Index-nested-loop Associate driving from the smaller operand."""

    strategy = "index-join"

    def _execute(self, ctx, trace, span):
        assoc, a_cls, b_cls = self.expr.resolve(ctx.graph)
        left = self.children[0].execute(ctx, trace)
        right = self.children[1].execute(ctx, trace)
        if len(right) < len(left):
            # α *[R(A,B)] β  =  β *[R(B,A)] α — drive the probe loop from
            # the smaller side.
            if span is not None:
                span.attributes["drive"] = "right"
            return associate(right, left, ctx.graph, assoc, b_cls, a_cls)
        if span is not None:
            span.attributes["drive"] = "left"
        return associate(left, right, ctx.graph, assoc, a_cls, b_cls)


class ComplementScan(PhysicalNode):
    strategy = "complement-scan"

    def _execute(self, ctx, trace, span):
        assoc, a_cls, b_cls = self.expr.resolve(ctx.graph)
        left = self.children[0].execute(ctx, trace)
        right = self.children[1].execute(ctx, trace)
        return a_complement(left, right, ctx.graph, assoc, a_cls, b_cls)


class FreeSetScan(PhysicalNode):
    strategy = "free-set-scan"

    def _execute(self, ctx, trace, span):
        assoc, a_cls, b_cls = self.expr.resolve(ctx.graph)
        left = self.children[0].execute(ctx, trace)
        right = self.children[1].execute(ctx, trace)
        return non_associate(left, right, ctx.graph, assoc, a_cls, b_cls)


# ----------------------------------------------------------------------
# set operators
# ----------------------------------------------------------------------


class HashIntersect(PhysicalNode):
    strategy = "hash-intersect"

    def _execute(self, ctx, trace, span):
        left = self.children[0].execute(ctx, trace)
        right = self.children[1].execute(ctx, trace)
        return a_intersect(left, right, self.expr.classes)


class UnionOp(PhysicalNode):
    strategy = "union"

    def _execute(self, ctx, trace, span):
        left = self.children[0].execute(ctx, trace)
        right = self.children[1].execute(ctx, trace)
        return a_union(left, right)


class DifferenceOp(PhysicalNode):
    strategy = "difference"

    def _execute(self, ctx, trace, span):
        left = self.children[0].execute(ctx, trace)
        right = self.children[1].execute(ctx, trace)
        return a_difference(left, right)


class DivideOp(PhysicalNode):
    strategy = "divide"

    def _execute(self, ctx, trace, span):
        left = self.children[0].execute(ctx, trace)
        right = self.children[1].execute(ctx, trace)
        return a_divide(left, right, self.expr.classes)


# ----------------------------------------------------------------------
# unary operators
# ----------------------------------------------------------------------


class FilterScan(PhysicalNode):
    """σ via per-pattern ``Predicate.evaluate`` — the object path."""

    strategy = "object-eval"

    def _execute(self, ctx, trace, span):
        operand = self.children[0].execute(ctx, trace)
        return a_select(operand, self.expr.predicate, ctx.graph)


class ValueIndexSelect(PhysicalNode):
    """``σ(X)[X = const]`` answered from the per-class value index.

    The operand extent is still evaluated for its span; the candidate set
    comes from the index, and the full predicate re-checks it (cheap — the
    candidates already match — and keeps semantics exactly aligned with
    the reference kernel for exotic value types).
    """

    strategy = "value-index-scan"

    def __init__(self, expr, children, key, deps, cls: str, value: Any) -> None:
        super().__init__(expr, children, key, deps)
        self.cls = cls
        self.value = value

    def _execute(self, ctx, trace, span):
        self.children[0].execute(ctx, trace)
        candidates = ctx.indexes.find_by_value(self.cls, self.value)
        return a_select(candidates, self.expr.predicate, ctx.graph)


class ProjectOp(PhysicalNode):
    strategy = "project"

    def _execute(self, ctx, trace, span):
        operand = self.children[0].execute(ctx, trace)
        return a_project(operand, self.expr.templates, self.expr.links)


# ----------------------------------------------------------------------
# compact-kernel nodes
# ----------------------------------------------------------------------


class CompactNode(PhysicalNode):
    """A plan node running inside a compact region.

    A *compact region* is a maximal subtree closed over kernel-supported
    operators.  Interior nodes exchange :class:`CompactSet` values through
    :meth:`execute_compact`; the region's root is reached through the
    ordinary :meth:`execute` protocol and decodes its kernel result at the
    boundary, so callers (and the span tree) see exactly what the
    reference nodes produce.  ``span.attributes["kernel"]`` names the
    batch kernel that ran; the strategy is ``compact-kernel`` throughout.
    """

    strategy = "compact-kernel"
    kernel = "?"

    @property
    def label(self) -> str:
        return f"{self.strategy}[{self.kernel}]"

    # -- region root: the ordinary protocol, decoding at the boundary ----
    # PhysicalNode.execute → _cached (decoded AssociationSet entries, so a
    # warm repeat skips the kernel AND the decode) → _execute below.

    def _execute(self, ctx, trace, span):
        return ctx.arena.decode_set(self._run_kernel(ctx, trace, span))

    # -- interior protocol: compact in, compact out ----------------------

    def execute_compact(self, ctx: ExecContext, trace: Tracer | None) -> CompactSet:
        if trace is None:
            return self._compact_cached(ctx, None, None)
        span = trace.begin(str(self.expr), self.expr.kind, strategy=self.strategy)
        try:
            result = self._compact_cached(ctx, trace, span)
        except BaseException as exc:
            trace.finish(span, error=type(exc).__name__)
            raise
        trace.finish(span, output=len(result))
        return result

    def _compact_cached(
        self, ctx: ExecContext, trace: Tracer | None, span: Span | None
    ) -> CompactSet:
        if ctx.use_cache and ctx.cache is not None and self.key is not None:
            hit = ctx.cache.get(self.key, CompactSet)
            if hit is not None:
                if span is not None:
                    span.attributes["strategy"] = "cache-hit"
                return hit
            result = self._run_kernel(ctx, trace, span)
            ctx.cache.put(self.key, result, self.deps)
            self._record(ctx, len(result))
            return result
        return self._run_kernel(ctx, trace, span)

    def _run_kernel(self, ctx, trace, span) -> CompactSet:
        if span is not None:
            span.attributes["kernel"] = self.kernel
        return self._kernel(ctx, trace, span)

    def _kernel(self, ctx, trace, span) -> CompactSet:
        raise NotImplementedError


class CompactExtentScan(CompactNode):
    kernel = "extent"

    def _kernel(self, ctx, trace, span):
        return ctx.arena.extent_cset(self.expr.name)


class CompactLiteral(CompactNode):
    kernel = "encode"

    def _kernel(self, ctx, trace, span):
        return ctx.arena.encode_set(self.expr.value)


class CompactEdgeScan(CompactNode):
    """Associate of two bare extents: the arena's edge set IS the answer."""

    kernel = "edge-scan"

    def _kernel(self, ctx, trace, span):
        assoc, _, _ = self.expr.resolve(ctx.graph)
        for child in self.children:
            child.execute_compact(ctx, trace)
        return ctx.arena.edge_cset(assoc)


class CompactJoin(CompactNode):
    """Associate as a hash join over int adjacency, smaller side driving."""

    kernel = "hash-join"

    def _kernel(self, ctx, trace, span):
        assoc, a_cls, b_cls = self.expr.resolve(ctx.graph)
        left = self.children[0].execute_compact(ctx, trace)
        right = self.children[1].execute_compact(ctx, trace)
        if len(right) < len(left):
            if span is not None:
                span.attributes["drive"] = "right"
            return k_associate(ctx.arena, right, left, assoc, b_cls, a_cls)
        if span is not None:
            span.attributes["drive"] = "left"
        return k_associate(ctx.arena, left, right, assoc, a_cls, b_cls)


class CompactFreeSetScan(CompactNode):
    kernel = "free-set"

    def _kernel(self, ctx, trace, span):
        assoc, a_cls, b_cls = self.expr.resolve(ctx.graph)
        left = self.children[0].execute_compact(ctx, trace)
        right = self.children[1].execute_compact(ctx, trace)
        return k_nonassociate(ctx.arena, left, right, assoc, a_cls, b_cls)


class CompactIntersect(CompactNode):
    kernel = "signature-join"

    def _kernel(self, ctx, trace, span):
        left = self.children[0].execute_compact(ctx, trace)
        right = self.children[1].execute_compact(ctx, trace)
        return k_intersect(ctx.arena, left, right, self.expr.classes)


class CompactUnion(CompactNode):
    kernel = "merge-union"

    def _kernel(self, ctx, trace, span):
        left = self.children[0].execute_compact(ctx, trace)
        right = self.children[1].execute_compact(ctx, trace)
        return k_union(left, right)


class CompactDifference(CompactNode):
    kernel = "anchored-difference"

    def _kernel(self, ctx, trace, span):
        left = self.children[0].execute_compact(ctx, trace)
        right = self.children[1].execute_compact(ctx, trace)
        return k_difference(left, right)


class CompactComplement(CompactNode):
    """A-Complement over the non-adjacent pairs of the arena adjacency."""

    kernel = "complement-join"

    def _kernel(self, ctx, trace, span):
        assoc, a_cls, b_cls = self.expr.resolve(ctx.graph)
        left = self.children[0].execute_compact(ctx, trace)
        right = self.children[1].execute_compact(ctx, trace)
        return k_complement(ctx.arena, left, right, assoc, a_cls, b_cls)


class CompactDivide(CompactNode):
    """A-Divide, grouped on {W} vids or not, by anchored containment."""

    kernel = "grouped-containment"

    def _kernel(self, ctx, trace, span):
        left = self.children[0].execute_compact(ctx, trace)
        right = self.children[1].execute_compact(ctx, trace)
        return k_divide(ctx.arena, left, right, self.expr.classes)


class CompactProject(CompactNode):
    """A-Project with chain templates only (path links keep ``project``)."""

    kernel = "chain-project"

    def _kernel(self, ctx, trace, span):
        operand = self.children[0].execute_compact(ctx, trace)
        return k_project(ctx.arena, operand, self.expr.templates)


class CompactValueSelect(CompactNode):
    """``σ(X)[X = const]`` over the value index, interned on the way in.

    Mirrors :class:`ValueIndexSelect`: the operand extent runs for its
    span only; candidates come from the index and the full predicate
    re-checks each one (on its decoded Inner-pattern, so exotic value
    types behave exactly as in the reference).
    """

    kernel = "value-index"

    def __init__(self, expr, children, key, deps, cls: str, value: Any) -> None:
        super().__init__(expr, children, key, deps)
        self.cls = cls
        self.value = value

    def _kernel(self, ctx, trace, span):
        self.children[0].execute_compact(ctx, trace)
        predicate = self.expr.predicate
        graph = ctx.graph
        vid = ctx.arena.vid
        keys = frozenset(
            vid(iid)
            for iid in graph.find_by_value(self.cls, self.value)
            if predicate.evaluate(Pattern.inner(iid), graph)
        )
        return CompactSet(keys)


class CompactMaskSelect(CompactNode):
    """σ over a bare extent via compiled column masks.

    The predicate was lowered to a column-mask program at plan time
    (:func:`repro.exec.columns.compile_select`); the kernel evaluates it
    over the class's typed column to a set of satisfying vertex ids and
    intersects the operand extent with it — no Pattern is allocated and
    no per-pattern ``evaluate`` runs.  ``span.attributes["mask_card"]``
    reports the mask's cardinality for ``EXPLAIN ANALYZE``.
    """

    strategy = "compact-select"
    kernel = "mask-eval"

    def __init__(self, expr, children, key, deps, cls: str) -> None:
        super().__init__(expr, children, key, deps)
        self.cls = cls

    def _kernel(self, ctx, trace, span):
        base = self.children[0].execute_compact(ctx, trace)
        vids = ctx.arena.columns.eval_select(self.expr.predicate, self.cls)
        if vids is None:  # pragma: no cover - planner guarantees compilable
            decoded = a_select(
                ctx.arena.decode_set(base), self.expr.predicate, ctx.graph
            )
            return ctx.arena.encode_set(decoded)
        if span is not None:
            span.attributes["mask_card"] = len(vids)
        return k_select_mask(base, vids)


class CompactPatternSelect(CompactNode):
    """σ over any compact operand via per-atom vid sets.

    The predicate was lowered at plan time to an atom program
    (:func:`repro.exec.columns.compile_pattern_select`); each atom is one
    column-mask evaluation, and the kernel keeps the patterns whose
    instances satisfy the program — no Pattern is decoded.
    """

    strategy = "compact-select"
    kernel = "pattern-mask"

    def __init__(self, expr, children, key, deps, program) -> None:
        super().__init__(expr, children, key, deps)
        self.program = program

    def _kernel(self, ctx, trace, span):
        operand = self.children[0].execute_compact(ctx, trace)
        return k_select_patterns(ctx.arena, operand, self.program)


class CompactShardSelect(CompactNode):
    """σ over a bare extent keeping one OID-hash partition of it.

    The sharded executor rewrites a partitioned ``ClassExtent(C)`` leaf
    into ``σ(C)[shard(C) = i/n]``; this kernel answers it by hashing each
    extent vertex's OID directly — no Pattern is decoded and no
    per-pattern ``evaluate`` runs, so per-shard queries stay closed over
    the compact kernels inside worker processes.
    """

    strategy = "compact-select"
    kernel = "shard-hash"

    def __init__(self, expr, children, key, deps, flt) -> None:
        super().__init__(expr, children, key, deps)
        self.flt = flt

    def _kernel(self, ctx, trace, span):
        from repro.shard.partition import shard_of

        base = self.children[0].execute_compact(ctx, trace)
        iids = ctx.arena._iids
        shard, shards = self.flt.shard, self.flt.shards
        keys = frozenset(
            v for v in base.keys if shard_of(iids[v].oid, shards) == shard
        )
        return CompactSet(keys)


def _shard_select_probe(expr):
    """The ShardFilter of a ``σ(C)[shard(C) = i/n]`` node, else None.

    Imported lazily: :mod:`repro.shard` imports this module back.
    """
    from repro.shard.partition import ShardFilter

    predicate = expr.predicate
    if (
        isinstance(predicate, ShardFilter)
        and isinstance(expr.operand, ClassExtent)
        and expr.operand.name == predicate.cls
    ):
        return predicate
    return None


#: Operators a compact region can contain (Select is handled apart).
_KERNEL_OPS = (
    Associate,
    Complement,
    NonAssociate,
    Intersect,
    Union,
    Difference,
    Divide,
    Project,
)


def _literal_free(expr: Expr) -> bool:
    return not isinstance(expr, Literal) and all(
        _literal_free(child) for child in expr.children()
    )


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------


class PhysicalPlanner:
    """Turns logical expression trees into physical plans.

    With ``compact=True`` (the default) every maximal operator subtree
    closed over the kernel-supported operators — all nine, with the
    exceptions listed in the module docstring — plans as a compact region
    executed by the batch kernels; everything else keeps the reference
    strategies.  Kernel-supported operators that fall back (an
    unsupported operand below them, path links, or an unresolvable
    association) are counted by ``repro_compact_fallback_total``.

    With ``compiled_select=True`` (the default) a σ whose predicate the
    column compiler can lower plans as a ``compact-select`` mask
    evaluation, counted by ``repro_select_compiled_total``; a σ left on
    the object path is counted by ``repro_select_fallback_total``.
    """

    def __init__(
        self,
        graph: ObjectGraph,
        metrics=None,
        compact: bool = True,
        compiled_select: bool = True,
    ) -> None:
        self.graph = graph
        self.compact = compact
        self.compiled_select = compiled_select
        if metrics is not None:
            self._m_fallbacks = metrics.counter(
                "repro_compact_fallback_total",
                "Kernel-supported operators planned with reference strategies",
            )
            self._m_select_compiled = metrics.counter(
                "repro_select_compiled_total",
                "Selects planned as compiled column-mask evaluation",
            )
            self._m_select_fallback = metrics.counter(
                "repro_select_fallback_total",
                "Selects falling back to the object path",
            )
        else:
            self._m_fallbacks = None
            self._m_select_compiled = None
            self._m_select_fallback = None

    def plan(
        self,
        expr: Expr,
        compact: bool | None = None,
        compiled_select: bool | None = None,
    ) -> PhysicalNode:
        """The physical plan for ``expr`` (node-for-node mirror).

        ``compact`` and ``compiled_select`` override the planner's
        defaults for this one call — ``False`` forces the reference
        strategies, ``True`` enables them, ``None`` keeps the
        constructor's setting.  The flags are threaded through the
        recursion (not stored), so concurrent ``plan`` calls with
        different overrides are safe.
        """
        return self._plan(
            expr,
            self.compact if compact is None else bool(compact),
            self.compiled_select
            if compiled_select is None
            else bool(compiled_select),
        )

    def _plan(self, expr: Expr, compact: bool, compiled: bool) -> PhysicalNode:
        if isinstance(expr, ClassExtent):
            # Cached by the IndexManager itself; no plan-cache entry.
            return ExtentScan(expr, (), None, frozenset({expr.name}))
        if isinstance(expr, Literal):
            return LiteralValue(expr, (), None, frozenset())

        if compact:
            if self._compact_ok(expr, compiled):
                return self._plan_compact(expr, compiled)
            if isinstance(expr, _KERNEL_OPS) and self._m_fallbacks is not None:
                self._m_fallbacks.inc()
            if (
                compiled
                and isinstance(expr, Select)
                and self._m_select_fallback is not None
            ):
                self._m_select_fallback.inc()

        children = tuple(
            self._plan(child, compact, compiled) for child in expr.children()
        )
        key = canonicalize(expr)
        deps = frozenset().union(*(c.deps for c in children)) if children else frozenset()

        if isinstance(expr, Associate):
            return self._plan_associate(expr, children, key, deps)
        if isinstance(expr, (Complement, NonAssociate)):
            deps = deps | self._assoc_deps(expr)
            node_cls = ComplementScan if isinstance(expr, Complement) else FreeSetScan
            return node_cls(expr, children, key, deps)
        if isinstance(expr, Intersect):
            return HashIntersect(expr, children, key, deps)
        if isinstance(expr, Union):
            return UnionOp(expr, children, key, deps)
        if isinstance(expr, Difference):
            return DifferenceOp(expr, children, key, deps)
        if isinstance(expr, Divide):
            return DivideOp(expr, children, key, deps)
        if isinstance(expr, Select):
            return self._plan_select(expr, children, key, deps)
        if isinstance(expr, Project):
            return ProjectOp(expr, children, key, deps)
        raise TypeError(f"unknown expression node {expr!r}")  # pragma: no cover

    def _assoc_deps(self, expr) -> frozenset[str]:
        """End classes of a binary graph operator's association, if resolvable.

        Needed because a Literal operand contributes no class dependencies
        of its own, yet the node's result changes with the association's
        edges.  Unresolvable nodes raise the same error at execution time,
        so their (never-produced) results need no dependencies.
        """
        try:
            _, a_cls, b_cls = expr.resolve(self.graph)
        except EvaluationError:
            return frozenset()
        return frozenset({a_cls, b_cls})

    def _plan_associate(self, expr, children, key, deps) -> PhysicalNode:
        deps = deps | self._assoc_deps(expr)
        if edge_scannable(expr, self.graph):
            return EdgeScanJoin(expr, children, key, deps)
        return IndexJoin(expr, children, key, deps)

    def _plan_select(self, expr, children, key, deps) -> PhysicalNode:
        deps = deps | predicate_classes(expr.predicate)
        probe = value_index_probe(expr)
        if probe is not None:
            cls, value = probe
            return ValueIndexSelect(expr, children, key, deps, cls, value)
        return FilterScan(expr, children, key, deps)

    # ------------------------------------------------------------------
    # compact regions
    # ------------------------------------------------------------------

    def _compact_ok(self, expr: Expr, compiled: bool) -> bool:
        """Whether ``expr`` is an operator subtree the kernels fully cover.

        Leaves (extents, literals) are encodable but do not *start* a
        region — a bare extent at the root stays a plain extent-scan.
        The binary graph operators additionally need a resolvable
        association (unresolvable ones must raise through the reference
        path, at the same tree position); a Project needs no path links.
        """
        if isinstance(expr, (Associate, Complement, NonAssociate)):
            try:
                expr.resolve(self.graph)
            except EvaluationError:
                return False
            return self._encodable(expr.left, compiled) and self._encodable(
                expr.right, compiled
            )
        if isinstance(expr, (Intersect, Union, Difference, Divide)):
            return self._encodable(expr.left, compiled) and self._encodable(
                expr.right, compiled
            )
        if isinstance(expr, Project):
            return not expr.links and self._encodable(expr.operand, compiled)
        if isinstance(expr, Select):
            # The value-index probe and the whole-predicate column masks
            # (exact only over singleton patterns) apply over a bare
            # extent, which is always encodable.
            if value_index_probe(expr) is not None:
                return True
            if _shard_select_probe(expr) is not None:
                return True
            if not compiled:
                return False
            if compiled_select_probe(expr) is not None:
                return True
            # Per-atom masks over any operand.  Literal operands may hold
            # instances without a live column row, on which the reference
            # raises — they keep the object path.
            return (
                compile_pattern_select(expr.predicate) is not None
                and _literal_free(expr.operand)
                and self._encodable(expr.operand, compiled)
            )
        return False

    def _encodable(self, expr: Expr, compiled: bool) -> bool:
        if isinstance(expr, (ClassExtent, Literal)):
            return True
        return self._compact_ok(expr, compiled)

    def _plan_compact(self, expr: Expr, compiled: bool) -> CompactNode:
        if isinstance(expr, ClassExtent):
            return CompactExtentScan(expr, (), None, frozenset({expr.name}))
        if isinstance(expr, Literal):
            return CompactLiteral(expr, (), None, frozenset())

        children = tuple(
            self._plan_compact(child, compiled) for child in expr.children()
        )
        key = canonicalize(expr)
        deps = frozenset().union(*(c.deps for c in children))

        if isinstance(expr, Associate):
            deps = deps | self._assoc_deps(expr)
            if edge_scannable(expr, self.graph):
                return CompactEdgeScan(expr, children, key, deps)
            return CompactJoin(expr, children, key, deps)
        if isinstance(expr, (Complement, NonAssociate)):
            deps = deps | self._assoc_deps(expr)
            node_cls = (
                CompactComplement if isinstance(expr, Complement) else CompactFreeSetScan
            )
            return node_cls(expr, children, key, deps)
        if isinstance(expr, Intersect):
            return CompactIntersect(expr, children, key, deps)
        if isinstance(expr, Union):
            return CompactUnion(expr, children, key, deps)
        if isinstance(expr, Difference):
            return CompactDifference(expr, children, key, deps)
        if isinstance(expr, Divide):
            return CompactDivide(expr, children, key, deps)
        if isinstance(expr, Project):
            return CompactProject(expr, children, key, deps)
        assert isinstance(expr, Select)  # guaranteed by _compact_ok
        deps = deps | predicate_classes(expr.predicate)
        probe = value_index_probe(expr)
        if probe is not None:
            cls, value = probe
            return CompactValueSelect(expr, children, key, deps, cls, value)
        flt = _shard_select_probe(expr)
        if flt is not None:
            return CompactShardSelect(expr, children, key, deps, flt)
        if self._m_select_compiled is not None:
            self._m_select_compiled.inc()
        cls = compiled_select_probe(expr)
        if cls is not None:
            return CompactMaskSelect(expr, children, key, deps, cls)
        program = compile_pattern_select(expr.predicate)
        return CompactPatternSelect(expr, children, key, deps, program)
