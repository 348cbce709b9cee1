"""Bottom-up incremental maintenance of one materialized expression.

The maintainer mirrors a view's expression as a tree of *maintenance
nodes*, each holding its own materialization (a set of patterns).
A classified mutation event (:class:`~repro.views.delta.EventContext`)
propagates bottom-up: every node combines its children's exact deltas
into its own exact delta using an algebra-derived rule, or — where no
sound rule exists for the incoming delta shape — falls back to a
*scoped recompute*: it re-evaluates only its own operator over its
children's already-maintained materializations and diffs against its
previous output.  Because the diff of a recompute is itself exact, a
recomputing node does **not** force its ancestors to recompute; the
delta keeps flowing.

Delta rules (σ = Select, • = A-Intersect, ``*`` = Associate):

==============  =======================================================
operator        rule
==============  =======================================================
class extent    insert/delete add/remove the matching Inner-patterns
σ (Select)      filter child additions; child removals intersect the
                output; a value update re-filters only the patterns
                containing the updated instance (opaque predicates
                recompute on every event)
Union           additions not already present; removals no longer
                derivable from either child
Associate       join child additions against the standing other side;
                a link joins standing patterns across the new edge;
                anchored removals filter the output exactly
A-Complement    the same rule with polarities swapped: an unlink joins
                standing patterns across the new complement edge, a
                link's anchor is the complement edge it destroys
                (recursive associations, and events that leave either
                operand without end-class instances before or after —
                the retention clause — recompute)
A-Intersect     join child additions against the standing other side;
                anchored removals filter the output exactly (dynamic
                shared-class sets recompute)
Difference      additions filter through the standing subtrahend; new
                subtrahend patterns block standing output; subtrahend
                removals recompute (un-blocking is not delta-computable)
Project         project child additions; child removals recompute (the
                removal anchor may be projected away)
NonAssociate    rescan whenever the event could change a complement
                edge between the operands (its own association, an
                extent event on an end class, or any child delta)
Divide          recompute on any child delta (quotients are not
                monotone in either operand)
==============  =======================================================

The *anchored removal* argument: combining nodes emit patterns that are
unions of their input patterns plus join edges, so when every child
removal contains one of the event's anchors (the deleted instance, the
unlinked edge, or the complement edge a link destroyed), filtering the
node's output by ``anchor in pattern`` removes exactly the derivations
that died — nothing else can have used a removed input, and nothing
removed can be re-derived from the post-event children.  When a child
removal does *not* carry an anchor (e.g. it came from a recompute of a
non-monotone descendant), the node recomputes instead of guessing.  The
argument needs the anchor edge to be gone from the domain; when another
association joins the event's two classes it may survive through that
one (edges carry no association), so every node that would consult the
anchor recomputes instead (reason ``shared-class-pair``).

Cost model
----------
Maintenance must be proportional to the *delta*, not to the
materialization — a view over N patterns that pays O(N) per mutation is
just a slow recompute in disguise.  Three structures keep the per-event
work delta-sized:

* every node carries an **anchor index** mapping each vertex and each
  edge of its output to the patterns containing it, maintained
  incrementally alongside the output itself, plus a per-class count of
  the vertices it indexes (A-Complement's retention test).  Anchored
  removal becomes one index lookup per anchor instead of a scan of the
  materialization, and the standing-side probes of the created-edge
  rule (:meth:`_BinaryGraphNode._edge_joins`) and of the σ update rule
  read the children's indexes instead of scanning their outputs;
* the working set is a **mutable** ``set`` updated in place; the
  frozenset snapshot external callers see (:attr:`_Node.out`) is
  refrozen lazily, only when someone actually reads it after a change;
* the :class:`AssociationSet` wrapper (and its per-class index) is
  memoized against the frozen snapshot, so standing sides that did not
  change keep their operator-level indexes across events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.assoc_set import AssociationSet
from repro.core.edges import Edge, Polarity
from repro.core.expression import (
    Associate,
    ClassExtent,
    Complement,
    Difference,
    Divide,
    Expr,
    Intersect,
    NonAssociate,
    Project,
    Select,
    Union,
)
from repro.core.operators import (
    a_difference,
    a_intersect,
    a_project,
    associate,
)
from repro.core.operators.complement import complement_join
from repro.core.pattern import Pattern
from repro.errors import ViewError
from repro.optimizer.analysis import predicate_classes
from repro.views.delta import EventContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.objects.graph import ObjectGraph

__all__ = ["DeltaMaintainer", "NodeDelta"]

_EMPTY: frozenset[Pattern] = frozenset()


@dataclass(frozen=True)
class NodeDelta:
    """The exact change one maintenance node underwent for one event."""

    added: frozenset[Pattern] = _EMPTY
    removed: frozenset[Pattern] = _EMPTY
    #: Set when the node fell back to a scoped recompute.
    reason: str | None = None

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)


_NO_CHANGE = NodeDelta()


class _Node:
    """One maintenance node: an operator plus its materialization."""

    def __init__(self, expr: Expr, children: tuple["_Node", ...]) -> None:
        self.expr = expr
        self.children = children
        self._out: set[Pattern] = set()
        self._frozen: frozenset[Pattern] | None = _EMPTY
        #: vertex/edge -> patterns of ``_out`` containing it.
        self._index: dict[object, set[Pattern]] = {}
        #: class -> number of its vertices that are keys of ``_index``.
        self._class_vertices: dict[str, int] = {}
        self._set_cache: AssociationSet | None = None

    # -- materialization ------------------------------------------------

    @property
    def out(self) -> frozenset[Pattern]:
        """The materialization, frozen lazily after in-place updates."""
        frozen = self._frozen
        if frozen is None:
            frozen = self._frozen = frozenset(self._out)
        return frozen

    def __len__(self) -> int:
        return len(self._out)

    def as_set(self) -> AssociationSet:
        """The materialization as an :class:`AssociationSet` (memoized)."""
        frozen = self.out
        cache = self._set_cache
        if cache is None or cache.patterns is not frozen:
            cache = self._set_cache = AssociationSet.from_frozen(frozen)
        return cache

    def rebuild(self, graph: "ObjectGraph") -> None:
        """Recursively re-evaluate the whole subtree from the graph."""
        for child in self.children:
            child.rebuild(graph)
        self.bind(graph)
        new = self._evaluate(graph)
        self._out = set(new)
        self._frozen = new
        self._set_cache = None
        self._index = {}
        self._class_vertices = {}
        for pattern in new:
            self._index_add(pattern)

    def bind(self, graph: "ObjectGraph") -> None:
        """Resolve graph-dependent bindings (association ends)."""

    def _evaluate(self, graph: "ObjectGraph") -> frozenset[Pattern]:
        """The operator over the children's materializations — the same
        reference step :meth:`Expr.evaluate` runs."""
        operands = tuple(child.as_set() for child in self.children)
        return self.expr._apply(operands, graph).patterns

    # -- the anchor index -----------------------------------------------

    def _index_add(self, pattern: Pattern) -> None:
        index = self._index
        counts = self._class_vertices
        for vertex in pattern.vertices:
            bucket = index.get(vertex)
            if bucket is None:
                bucket = index[vertex] = set()
                counts[vertex.cls] = counts.get(vertex.cls, 0) + 1
            bucket.add(pattern)
        for edge in pattern.edges:
            bucket = index.get(edge)
            if bucket is None:
                bucket = index[edge] = set()
            bucket.add(pattern)

    def _index_remove(self, pattern: Pattern) -> None:
        index = self._index
        counts = self._class_vertices
        for vertex in pattern.vertices:
            bucket = index.get(vertex)
            if bucket is not None:
                bucket.discard(pattern)
                if not bucket:
                    del index[vertex]
                    counts[vertex.cls] -= 1
        for edge in pattern.edges:
            bucket = index.get(edge)
            if bucket is not None:
                bucket.discard(pattern)
                if not bucket:
                    del index[edge]

    def patterns_containing(self, token: object) -> Iterable[Pattern]:
        """Output patterns containing ``token`` (a vertex IID or an edge).

        Returns the live index bucket — callers must not mutate it and
        must not hold it across an update of this node.
        """
        return self._index.get(token, _EMPTY)

    def holds_class(self, cls: str) -> bool:
        """Whether any output pattern holds an instance of ``cls`` (O(1))."""
        return self._class_vertices.get(cls, 0) > 0

    def _anchor_hits(self, ctx: EventContext) -> frozenset[Pattern]:
        """The output patterns containing any of the event's anchors."""
        hits: set[Pattern] = set()
        for anchor in ctx.anchors:
            bucket = self._index.get(anchor)
            if bucket:
                hits |= bucket
        return frozenset(hits)

    # -- delta propagation ----------------------------------------------

    def apply(
        self, ctx: EventContext, graph: "ObjectGraph", recomputes: list
    ) -> NodeDelta:
        deltas = tuple(c.apply(ctx, graph, recomputes) for c in self.children)
        return self._delta(ctx, graph, deltas, recomputes)

    def _delta(
        self, ctx, graph, deltas: tuple[NodeDelta, ...], recomputes: list
    ) -> NodeDelta:
        raise NotImplementedError

    def _apply(self, added: Iterable[Pattern], removed: Iterable[Pattern]) -> None:
        """In-place update of the working set and its anchor index."""
        out = self._out
        for pattern in removed:
            out.discard(pattern)
            self._index_remove(pattern)
        for pattern in added:
            out.add(pattern)
            self._index_add(pattern)
        self._frozen = None

    def _recompute(self, graph, reason: str, recomputes: list) -> NodeDelta:
        """Scoped recompute: re-evaluate this operator only, diff exactly."""
        new = self._evaluate(graph)
        added = frozenset(new - self._out)
        removed = frozenset(self._out - new)
        self._apply(added, removed)
        self._frozen = new
        recomputes.append((type(self.expr).__name__, reason))
        return NodeDelta(added, removed, reason)

    def _commit(self, added: frozenset, removed: frozenset) -> NodeDelta:
        if not added and not removed:
            return _NO_CHANGE
        self._apply(added, removed)
        return NodeDelta(added, removed)

    @staticmethod
    def _unanchored(ctx: EventContext, deltas) -> bool:
        """Whether any child removal fails to carry a removal anchor."""
        for delta in deltas:
            for pattern in delta.removed:
                if not ctx.anchored(pattern):
                    return True
        return False


class _ExtentNode(_Node):
    def __init__(self, expr: ClassExtent) -> None:
        super().__init__(expr, ())
        self.cls = expr.name

    def _delta(self, ctx, graph, deltas, recomputes):
        if ctx.kind == "insert":
            added = frozenset(
                Pattern.inner(i)
                for i in ctx.instances
                if i.cls == self.cls and Pattern.inner(i) not in self._out
            )
            return self._commit(added, _EMPTY)
        if ctx.kind == "delete":
            removed = frozenset(
                p
                for i in ctx.instances
                if i.cls == self.cls and (p := Pattern.inner(i)) in self._out
            )
            return self._commit(_EMPTY, removed)
        return _NO_CHANGE


class _SelectNode(_Node):
    def __init__(self, expr: Select, children) -> None:
        super().__init__(expr, children)
        self.predicate = expr.predicate
        self.pred_classes = predicate_classes(expr.predicate)
        self.opaque = "*" in self.pred_classes

    def _delta(self, ctx, graph, deltas, recomputes):
        if self.opaque:
            return self._recompute(graph, "opaque-predicate", recomputes)
        (child,) = deltas
        pred = self.predicate
        out = self._out
        added = {p for p in child.added if pred.evaluate(p, graph)}
        removed = set(child.removed & out)
        if ctx.updated is not None and ctx.updated.cls in self.pred_classes:
            # A value update flips membership only for patterns that
            # contain the updated instance; re-filter exactly those,
            # straight off the child's anchor index.
            for pattern in tuple(self.children[0].patterns_containing(ctx.updated)):
                if pred.evaluate(pattern, graph):
                    if pattern not in out:
                        added.add(pattern)
                elif pattern in out:
                    removed.add(pattern)
        return self._commit(frozenset(added) - out, frozenset(removed))


class _UnionNode(_Node):
    def _delta(self, ctx, graph, deltas, recomputes):
        left, right = self.children
        dl, dr = deltas
        added = (dl.added | dr.added) - self._out
        removed = frozenset(
            p
            for p in (dl.removed | dr.removed)
            if p in self._out and p not in left._out and p not in right._out
        )
        return self._commit(added, removed)


class _BinaryGraphNode(_Node):
    """Shared association binding for Associate/Complement/NonAssociate,
    and the join rule Associate and A-Complement share.

    ``polarity`` is the polarity of the node's join edges: the rule joins
    across ``ctx.created_edge`` only when the two match.
    """

    polarity = Polarity.REGULAR

    def bind(self, graph):
        self.assoc, self.a_cls, self.b_cls = self.expr.resolve(graph)

    def _join(self, alpha, beta, graph) -> Iterable[Pattern]:
        """The operator's main clause over two operands (no retention)."""
        raise NotImplementedError

    def _relevant(self, ctx: EventContext) -> bool:
        """Whether the event could change an edge between the operands."""
        if ctx.association == self.assoc.name:
            return True
        return ctx.kind in ("insert", "delete") and bool(
            ctx.touched_classes & {self.a_cls, self.b_cls}
        )

    def _edge_joins(self, edge: Edge) -> set[Pattern]:
        """Outputs created by joining standing patterns across a new edge.

        The patterns holding each endpoint come off the children's
        anchor indexes — the cost is the number of joined outputs, not
        the size of the standing sides.
        """
        out: set[Pattern] = set()
        left, right = self.children
        for x, y in ((edge.u, edge.v), (edge.v, edge.u)):
            if x.cls != self.a_cls or y.cls != self.b_cls:
                continue
            join = Edge(x, y, self.polarity)
            rights = right.patterns_containing(y)
            if not rights:
                continue
            for pattern in left.patterns_containing(x):
                for other in rights:
                    out.add(pattern.union(other, join))
        return out

    def _join_delta(self, ctx, graph, deltas, recomputes):
        dl, dr = deltas
        if (dl.removed or dr.removed) and (
            not ctx.anchors or self._unanchored(ctx, deltas)
        ):
            return self._recompute(graph, "unanchored-removal", recomputes)
        removed = self._anchor_hits(ctx) if ctx.anchors else _EMPTY
        if ctx.shared_pair and (removed or dl.removed or dr.removed):
            return self._recompute(graph, "shared-class-pair", recomputes)
        added: set[Pattern] = set()
        if dl.added:
            added |= self._join(
                AssociationSet.from_frozen(dl.added), self.children[1].as_set(), graph
            )
        if dr.added:
            added |= self._join(
                self.children[0].as_set(), AssociationSet.from_frozen(dr.added), graph
            )
        edge = ctx.created_edge
        if (
            edge is not None
            and edge.polarity is self.polarity
            and ctx.association == self.assoc.name
        ):
            added |= self._edge_joins(edge)
        if removed:
            self._apply((), removed)
        added_f = frozenset(added) - self._out if added else _EMPTY
        if added_f:
            self._apply(added_f, ())
        if not added_f and not removed:
            return _NO_CHANGE
        return NodeDelta(added_f, removed)


class _AssociateNode(_BinaryGraphNode):
    def _join(self, alpha, beta, graph):
        return associate(
            alpha, beta, graph, self.assoc, self.a_cls, self.b_cls
        ).patterns

    _delta = _BinaryGraphNode._join_delta


class _IntersectNode(_Node):
    def __init__(self, expr: Intersect, children) -> None:
        super().__init__(expr, children)
        self.classes = expr.classes

    def _delta(self, ctx, graph, deltas, recomputes):
        dl, dr = deltas
        if not dl and not dr:
            return _NO_CHANGE
        if self.classes is None:
            # The shared-class set is a function of the operand *sets*;
            # any operand change can change what "common classes" means.
            return self._recompute(graph, "dynamic-classes", recomputes)
        if (dl.removed or dr.removed) and (
            not ctx.anchors or self._unanchored(ctx, deltas)
        ):
            return self._recompute(graph, "unanchored-removal", recomputes)
        if ctx.shared_pair and (dl.removed or dr.removed):
            return self._recompute(graph, "shared-class-pair", recomputes)
        removed = (
            self._anchor_hits(ctx) if (dl.removed or dr.removed) else _EMPTY
        )
        added: set[Pattern] = set()
        if dl.added:
            added |= a_intersect(
                AssociationSet.from_frozen(dl.added),
                self.children[1].as_set(),
                self.classes,
            ).patterns
        if dr.added:
            added |= a_intersect(
                self.children[0].as_set(),
                AssociationSet.from_frozen(dr.added),
                self.classes,
            ).patterns
        if removed:
            self._apply((), removed)
        added_f = frozenset(added) - self._out if added else _EMPTY
        if added_f:
            self._apply(added_f, ())
        if not added_f and not removed:
            return _NO_CHANGE
        return NodeDelta(added_f, removed)


class _DifferenceNode(_Node):
    def _delta(self, ctx, graph, deltas, recomputes):
        dl, dr = deltas
        if dr.removed:
            # A shrinking subtrahend un-blocks minuend patterns we do not
            # hold; only a rescan of the minuend can find them.
            return self._recompute(graph, "subtrahend-removal", recomputes)
        removed = set(dl.removed & self._out)
        if dr.added:
            standing = frozenset(self._out - removed)
            kept = a_difference(
                AssociationSet.from_frozen(standing),
                AssociationSet.from_frozen(dr.added),
            ).patterns
            removed |= standing - kept
        added = _EMPTY
        if dl.added:
            added = (
                a_difference(
                    AssociationSet.from_frozen(dl.added), self.children[1].as_set()
                ).patterns
                - self._out
            )
        return self._commit(frozenset(added), frozenset(removed))


class _ProjectNode(_Node):
    def __init__(self, expr: Project, children) -> None:
        super().__init__(expr, children)
        self.templates = expr.templates
        self.links = expr.links

    def _delta(self, ctx, graph, deltas, recomputes):
        (child,) = deltas
        if child.removed:
            # Projection can strip the removal anchor out of its outputs,
            # so removed inputs give no sound output-removal rule.
            return self._recompute(graph, "projection-removal", recomputes)
        if not child.added:
            return _NO_CHANGE
        added = (
            a_project(
                AssociationSet.from_frozen(child.added), self.templates, self.links
            ).patterns
            - self._out
        )
        return self._commit(frozenset(added), _EMPTY)


class _ComplementNode(_BinaryGraphNode):
    """A-Complement: the Associate join rule across complement edges.

    While both operands hold end-class instances the output is the main
    clause alone, and a link/unlink is the dual of Associate's: a link
    destroys exactly one Complement-pattern ``(~a b)`` (the anchor), an
    unlink creates exactly one (``ctx.created_edge``).  Outside that
    regime — the retention clause in play before or after the event — or
    over a recursive association the node rescans when relevant.
    """

    polarity = Polarity.COMPLEMENT

    def bind(self, graph):
        super().bind(graph)
        self.recursive = self.assoc.left == self.assoc.right
        self._joining = self._participating()

    def _participating(self) -> bool:
        left, right = self.children
        return left.holds_class(self.a_cls) and right.holds_class(self.b_cls)

    def _join(self, alpha, beta, graph):
        return complement_join(
            alpha, beta, graph, self.assoc, self.a_cls, self.b_cls
        )

    def _delta(self, ctx, graph, deltas, recomputes):
        was_joining, self._joining = self._joining, self._participating()
        if was_joining and self._joining and not self.recursive:
            return self._join_delta(ctx, graph, deltas, recomputes)
        if any(deltas) or self._relevant(ctx):
            return self._recompute(graph, "complement-rescan", recomputes)
        return _NO_CHANGE


class _NonAssociateNode(_BinaryGraphNode):
    """NonAssociate: rescan whenever relevant.

    Whether an instance may join depends on its edges to *every*
    end-class instance of the other operand, so one link can change
    patterns that share nothing with it; the sound incremental move is a
    scoped recompute gated on a relevance test.
    """

    def _delta(self, ctx, graph, deltas, recomputes):
        if any(deltas) or self._relevant(ctx):
            return self._recompute(graph, "nonassociate-rescan", recomputes)
        return _NO_CHANGE


class _DivideNode(_Node):
    def _delta(self, ctx, graph, deltas, recomputes):
        if any(deltas):
            # Quotients are anti-monotone in the divisor and group-wise in
            # the dividend; no per-pattern delta rule is sound.
            return self._recompute(graph, "divide-rescan", recomputes)
        return _NO_CHANGE


_NODE_TYPES: dict[type, type[_Node]] = {
    Select: _SelectNode,
    Union: _UnionNode,
    Associate: _AssociateNode,
    Intersect: _IntersectNode,
    Difference: _DifferenceNode,
    Project: _ProjectNode,
    Complement: _ComplementNode,
    NonAssociate: _NonAssociateNode,
    Divide: _DivideNode,
}


def _build(expr: Expr) -> _Node:
    if isinstance(expr, ClassExtent):
        return _ExtentNode(expr)
    node_cls = _NODE_TYPES.get(type(expr))
    if node_cls is None:
        raise ViewError(
            f"views cannot be maintained over {type(expr).__name__} nodes"
        )
    children = tuple(_build(child) for child in expr.children())
    return node_cls(expr, children)


class DeltaMaintainer:
    """The maintenance-node tree of one materialized view."""

    def __init__(self, expr: Expr, graph: "ObjectGraph") -> None:
        self.expr = expr
        self.root = _build(expr)
        self.rebind(graph)

    @property
    def patterns(self) -> frozenset[Pattern]:
        return self.root.out

    def __len__(self) -> int:
        """Pattern count without freezing the working set."""
        return len(self.root)

    def rebind(self, graph: "ObjectGraph") -> None:
        """(Re)attach to a graph and fully rebuild every materialization."""
        self.graph = graph
        self.root.rebuild(graph)

    def refresh(self) -> tuple[frozenset[Pattern], frozenset[Pattern]]:
        """Full recompute; returns the (added, removed) diff it caused."""
        old = self.root.out
        self.root.rebuild(self.graph)
        new = self.root.out
        return new - old, old - new

    def apply(self, ctx: EventContext) -> tuple[NodeDelta, list[tuple[str, str]]]:
        """Maintain through one classified event.

        Returns the root's exact delta and the ``(operator, reason)``
        pairs of every node that fell back to a scoped recompute.
        """
        recomputes: list[tuple[str, str]] = []
        delta = self.root.apply(ctx, self.graph, recomputes)
        return delta, recomputes
