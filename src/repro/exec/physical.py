"""Physical plans: strategy-annotated, cache-aware operator trees.

The planner first runs its rule pass
(:func:`~repro.optimizer.rewrites.rule_pass`: σ and Π pushed below
Associate, no search), then lowers the *rewritten* tree.  A physical plan
mirrors that rewritten :class:`~repro.core.expression.Expr` tree node for
node — the span tree a traced execution records therefore mirrors the
plan's ``expr``, which ``EXPLAIN ANALYZE`` relies on; the root's
``rewrites`` names the rules that fired.
Every node is a :class:`CompactNode`: nodes exchange integer-interned
:class:`~repro.exec.arena.CompactSet` values, and only the plan's root
decodes its result into :class:`~repro.core.pattern.Pattern` objects.
What changes from node to node is *how* it computes its result:

========================  =====================================================
strategy                  applies to
========================  =====================================================
``compact-kernel``        every node with a batch kernel in
                          :mod:`repro.exec.kernels` — extents and literals
                          (``extent``, ``encode``), Associate (``edge-scan``
                          over two bare extents matching the association's
                          ends, else ``hash-join``), A-Complement,
                          NonAssociate, A-Intersect, A-Union, A-Difference,
                          A-Divide, A-Project with chain templates only, and
                          ``σ(X)[X = const]`` over the value index
                          (``value-index``)
``compact-select``        any other σ whose predicate compiles to column
                          masks — over a bare extent as one selection
                          bitmask (:func:`repro.exec.columns.compile_select`,
                          ``mask-eval``), over any other literal-free operand
                          as one mask per comparison atom
                          (:func:`repro.exec.columns.compile_pattern_select`,
                          ``pattern-mask``)
``object-island``         the three shapes no kernel covers — a σ whose
                          predicate cannot lower (``Callback``, computed
                          values, two class-value sides, ``const in Class``
                          under ``forall``) or whose operand holds a literal;
                          a Project with path links; and a binary graph
                          operator whose association does not resolve (it
                          raises at run time, at the same tree position)
``cache-hit``             any node whose canonical subexpression is in the
                          plan cache (reported at run time, not plan time)
========================  =====================================================

An island decodes its operands, applies the node's own reference step
(:meth:`~repro.core.expression.Expr._apply`, the one
:meth:`~repro.core.expression.Expr.evaluate` runs) and encodes the result
back, so the operators around it stay in the kernels.  Islands are counted
by ``repro_compact_fallback_total``.

The planner never consults instance data — only the schema and O(1)
statistics — so planning is cheap enough to run per query.
"""

from __future__ import annotations

from typing import Any, Callable

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
from repro.errors import EvaluationError
from repro.exec.arena import CompactSet, PatternArena
from repro.exec.cache import PlanCache, canonical_step
from repro.exec.columns import compile_pattern_select, compiled_select_probe
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
from repro.optimizer.rewrites import rule_pass

__all__ = ["CompactNode", "ExecContext", "ObjectIsland", "PhysicalPlanner"]


class ExecContext:
    """Everything a physical node needs at run time."""

    __slots__ = ("graph", "cache", "use_cache", "arena")

    def __init__(
        self,
        graph: ObjectGraph,
        cache: PlanCache,
        use_cache: bool,
        arena: PatternArena,
    ) -> None:
        self.graph = graph
        self.cache = cache
        self.use_cache = use_cache
        self.arena = arena


class CompactNode:
    """One node of a physical plan (mirrors one node of the rewritten tree).

    Interior nodes exchange :class:`CompactSet` values through
    :meth:`execute_compact`; the root is reached through :meth:`execute`
    and decodes its result, so callers (and the span tree) see exactly
    the association-set the reference evaluator produces.
    ``span.attributes["kernel"]`` names the kernel that ran.
    """

    strategy = "compact-kernel"
    kernel = "?"
    #: Rule-pass rules that fired, in order (set on a plan root only).
    rewrites: tuple[str, ...] = ()

    def __init__(
        self,
        expr: Expr,
        children: tuple["CompactNode", ...] = (),
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
        """Evaluate this subtree as the plan root: the result decoded.

        The cache holds decoded roots too, so a warm repeat skips the
        kernel *and* the decode.
        """
        return self._spanned(ctx, trace, AssociationSet, self._execute)

    def execute_compact(self, ctx: ExecContext, trace: Tracer | None) -> CompactSet:
        """Evaluate this subtree below the root: compact in, compact out."""
        return self._spanned(ctx, trace, CompactSet, self._run_kernel)

    def _spanned(self, ctx, trace, kind: type, step: Callable):
        """Run ``step`` through the cache, mirroring ``Expr.evaluate``'s
        tracing."""
        if trace is None:
            return self._cached(ctx, None, None, kind, step)
        span = trace.begin(str(self.expr), self.expr.kind, strategy=self.strategy)
        try:
            result = self._cached(ctx, trace, span, kind, step)
        except BaseException as exc:
            trace.finish(span, error=type(exc).__name__)
            raise
        trace.finish(span, output=len(result))
        return result

    def _cached(
        self,
        ctx: ExecContext,
        trace: Tracer | None,
        span: Span | None,
        kind: type,
        step: Callable,
    ):
        if ctx.use_cache and self.key is not None:
            hit = ctx.cache.get(self.key, kind)
            if hit is not None:
                if span is not None:
                    span.attributes["strategy"] = "cache-hit"
                return hit
            result = step(ctx, trace, span)
            ctx.cache.put(self.key, result, self.deps)
            return result
        return step(ctx, trace, span)

    def _execute(self, ctx, trace, span) -> AssociationSet:
        return ctx.arena.decode_set(self._run_kernel(ctx, trace, span))

    def _run_kernel(self, ctx, trace, span) -> CompactSet:
        if span is not None:
            span.attributes["kernel"] = self.kernel
        return self._kernel(ctx, trace, span)

    def _kernel(self, ctx, trace, span) -> CompactSet:
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
        """Display label for plan listings: strategy and kernel."""
        return f"{self.strategy}[{self.kernel}]"

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


class CompactExtentScan(CompactNode):
    kernel = "extent"

    def _kernel(self, ctx, trace, span):
        return ctx.arena.extent_cset(self.expr.name)


class CompactLiteral(CompactNode):
    kernel = "encode"

    def _kernel(self, ctx, trace, span):
        return ctx.arena.encode_set(self.expr.value)


# ----------------------------------------------------------------------
# binary graph operators
# ----------------------------------------------------------------------


class CompactEdgeScan(CompactNode):
    """Associate of two bare extents: the arena's edge set IS the answer.

    The operand extents still run (their spans are part of the query's
    observable shape, and they are cached reads), but the join itself is
    one dictionary lookup.
    """

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
            # α *[R(A,B)] β  =  β *[R(B,A)] α — drive from the smaller side.
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


class CompactComplement(CompactNode):
    """A-Complement over the non-adjacent pairs of the arena adjacency."""

    kernel = "complement-join"

    def _kernel(self, ctx, trace, span):
        assoc, a_cls, b_cls = self.expr.resolve(ctx.graph)
        left = self.children[0].execute_compact(ctx, trace)
        right = self.children[1].execute_compact(ctx, trace)
        return k_complement(ctx.arena, left, right, assoc, a_cls, b_cls)


# ----------------------------------------------------------------------
# set operators
# ----------------------------------------------------------------------


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


class CompactDivide(CompactNode):
    """A-Divide, grouped on {W} vids or not, by anchored containment."""

    kernel = "grouped-containment"

    def _kernel(self, ctx, trace, span):
        left = self.children[0].execute_compact(ctx, trace)
        right = self.children[1].execute_compact(ctx, trace)
        return k_divide(ctx.arena, left, right, self.expr.classes)


# ----------------------------------------------------------------------
# unary operators
# ----------------------------------------------------------------------


class CompactProject(CompactNode):
    """A-Project with chain templates only (path links plan an island)."""

    kernel = "chain-project"

    def _kernel(self, ctx, trace, span):
        operand = self.children[0].execute_compact(ctx, trace)
        return k_project(ctx.arena, operand, self.expr.templates)


class CompactValueSelect(CompactNode):
    """``σ(X)[X = const]`` over the graph's per-class value index.

    The operand extent runs for its span only; candidates come from the
    index and the full predicate re-checks each one (on its Inner-pattern,
    so exotic value types behave exactly as in the reference).
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


# ----------------------------------------------------------------------
# the object island
# ----------------------------------------------------------------------


class ObjectIsland(CompactNode):
    """A node no kernel covers, run by its own reference step.

    The island decodes its compact operands, applies the node's
    :meth:`~repro.core.expression.Expr._apply` — the same step
    :meth:`Expr.evaluate` runs — and encodes the result back, so its
    parent keeps running in the kernels.  ``kernel`` names the
    :mod:`repro.core.operators` function that ran.
    """

    strategy = "object-island"

    def __init__(self, expr, children, key, deps) -> None:
        super().__init__(expr, children, key, deps)
        self.kernel = expr.operator.__name__

    def _execute(self, ctx, trace, span):
        # As the plan root the reference result is the answer: no re-encode.
        if span is not None:
            span.attributes["kernel"] = self.kernel
        return self._reference(ctx, trace)

    def _kernel(self, ctx, trace, span):
        return ctx.arena.encode_set(self._reference(ctx, trace))

    def _reference(self, ctx, trace) -> AssociationSet:
        decode = ctx.arena.decode_set
        operands = tuple(
            decode(child.execute_compact(ctx, trace)) for child in self.children
        )
        return self.expr._apply(operands, ctx.graph)


def _literal_free(expr: Expr) -> bool:
    return not isinstance(expr, Literal) and all(
        _literal_free(child) for child in expr.children()
    )


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------


class PhysicalPlanner:
    """Turns logical expression trees into physical plans.

    The rule pass rewrites the tree first; then every node lowers to its
    kernel when it has one and to an
    :class:`ObjectIsland` otherwise (see the module docstring).  Islands
    are counted by ``repro_compact_fallback_total``.  A σ planned as a
    ``compact-select`` mask evaluation is counted by
    ``repro_select_compiled_total``; a σ island by
    ``repro_select_fallback_total``.
    """

    def __init__(self, graph: ObjectGraph, metrics=None) -> None:
        self.graph = graph
        if metrics is not None:
            self._m_islands = metrics.counter(
                "repro_compact_fallback_total",
                "Plan nodes with no kernel, planned as object islands",
            )
            self._m_select_compiled = metrics.counter(
                "repro_select_compiled_total",
                "Selects planned as compiled column-mask evaluation",
            )
            self._m_select_fallback = metrics.counter(
                "repro_select_fallback_total",
                "Selects planned as object islands",
            )
            self._m_rewrites = metrics.counter(
                "repro_rewrite_total",
                "Rule-pass rewrites applied before lowering, by rule",
            )
        else:
            self._m_islands = None
            self._m_select_compiled = None
            self._m_select_fallback = None
            self._m_rewrites = None

    def plan(self, expr: Expr) -> CompactNode:
        """The physical plan for ``expr``: the rule pass, then lowering.

        The plan mirrors the rewritten tree node for node; its root's
        ``rewrites`` names the rules that fired (empty when none did).
        """
        fired: list[str] = []
        root = self._lower(rule_pass(expr, self.graph, fired))
        if fired:
            root.rewrites = tuple(fired)
            if self._m_rewrites is not None:
                for rule in fired:
                    self._m_rewrites.inc(rule=rule)
        return root

    def _lower(self, expr: Expr) -> CompactNode:
        """The physical plan for ``expr`` as written (node-for-node)."""
        if isinstance(expr, ClassExtent):
            # The arena caches extents itself; no plan-cache entry.
            return CompactExtentScan(expr, (), None, frozenset({expr.name}))
        if isinstance(expr, Literal):
            return CompactLiteral(expr, (), None, frozenset())

        children = tuple(self._lower(child) for child in expr.children())
        # Leaves carry no key: a leaf is its own canonical form.
        key = canonical_step(
            expr, tuple(c.expr if c.key is None else c.key for c in children)
        )
        deps = frozenset().union(*(c.deps for c in children))

        if isinstance(expr, (Associate, Complement, NonAssociate)):
            try:
                _, a_cls, b_cls = expr.resolve(self.graph)
            except EvaluationError:
                # The island raises the same error when it runs.
                return self._island(expr, children, key, deps)
            # A Literal operand contributes no class dependencies of its
            # own, yet the result changes with the association's edges.
            deps = deps | {a_cls, b_cls}
            if isinstance(expr, Complement):
                return CompactComplement(expr, children, key, deps)
            if isinstance(expr, NonAssociate):
                return CompactFreeSetScan(expr, children, key, deps)
            if edge_scannable(expr, self.graph):
                return CompactEdgeScan(expr, children, key, deps)
            return CompactJoin(expr, children, key, deps)
        if isinstance(expr, Intersect):
            return CompactIntersect(expr, children, key, deps)
        if isinstance(expr, Union):
            return CompactUnion(expr, children, key, deps)
        if isinstance(expr, Difference):
            return CompactDifference(expr, children, key, deps)
        if isinstance(expr, Divide):
            return CompactDivide(expr, children, key, deps)
        if isinstance(expr, Project):
            if expr.links:
                return self._island(expr, children, key, deps)
            return CompactProject(expr, children, key, deps)
        if isinstance(expr, Select):
            deps = deps | predicate_classes(expr.predicate)
            return self._plan_select(expr, children, key, deps)
        raise TypeError(f"unknown expression node {expr!r}")  # pragma: no cover

    def _plan_select(self, expr: Select, children, key, deps) -> CompactNode:
        probe = value_index_probe(expr)
        if probe is not None:
            cls, value = probe
            return CompactValueSelect(expr, children, key, deps, cls, value)
        flt = _shard_select_probe(expr)
        if flt is not None:
            return CompactShardSelect(expr, children, key, deps, flt)
        cls = compiled_select_probe(expr)
        if cls is not None:
            node = CompactMaskSelect(expr, children, key, deps, cls)
        else:
            # Per-atom masks over any operand.  Literal operands may hold
            # instances without a live column row, on which the reference
            # raises — they plan an island.
            program = compile_pattern_select(expr.predicate)
            if program is None or not _literal_free(expr.operand):
                if self._m_select_fallback is not None:
                    self._m_select_fallback.inc()
                return self._island(expr, children, key, deps)
            node = CompactPatternSelect(expr, children, key, deps, program)
        if self._m_select_compiled is not None:
            self._m_select_compiled.inc()
        return node

    def _island(self, expr: Expr, children, key, deps) -> ObjectIsland:
        if self._m_islands is not None:
            self._m_islands.inc()
        return ObjectIsland(expr, children, key, deps)
