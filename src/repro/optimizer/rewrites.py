"""Rewrite rules derived from the algebraic laws (§3.3, §4).

Each :class:`RewriteRule` tries to transform the *root* of an expression;
the planner applies rules at every subtree via :func:`rebuild`.  Rules are
split into:

* ``SAFE_RULES`` — semantics-preserving on every input (laws a, c,
  select-pushdown, reassociation of linear chains, and law d under its
  full static conditions);
* ``UNSAFE_RULES`` — the paper's laws b), e), f), which our property
  testing showed to fail on degenerate inputs (retention special cases,
  NonAssociate's whole-operand freeness — see EXPERIMENTS.md).  They are
  available for study but the default optimizer does not use them.

:func:`rule_pass` is the search-free counterpart the physical planner runs
on every query before lowering it: select-pushdown and project-pushdown,
bottom-up, plus the rotations project-pushdown needs.  Both are rewrites
that always pay on the kernels, so the pass needs no cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.expression import (
    AssocSpec,
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
from repro.errors import ReproError
from repro.obs.span import OperatorKind
from repro.optimizer.analysis import (
    is_linear,
    is_statically_homogeneous,
    predicate_classes,
    static_classes,
)

__all__ = [
    "RewriteRule",
    "SAFE_RULES",
    "UNSAFE_RULES",
    "rebuild",
    "children",
    "rule_pass",
]


@dataclass(frozen=True)
class RewriteRule:
    """A named root-level rewrite: returns a new Expr or None."""

    name: str
    law: str
    apply: Callable[[Expr], "Expr | None"]

    def __str__(self) -> str:
        return f"{self.name} [{self.law}]"


# ----------------------------------------------------------------------
# generic tree plumbing
# ----------------------------------------------------------------------


def children(expr: Expr) -> tuple[Expr, ...]:
    return expr.children()


def rebuild(expr: Expr, new_children: tuple[Expr, ...]) -> Expr:
    """Copy ``expr`` with its children replaced (same arity required)."""
    if isinstance(expr, (ClassExtent, Literal)):
        return expr
    if isinstance(expr, Associate):
        return Associate(new_children[0], new_children[1], expr.spec)
    if isinstance(expr, Complement):
        return Complement(new_children[0], new_children[1], expr.spec)
    if isinstance(expr, NonAssociate):
        return NonAssociate(new_children[0], new_children[1], expr.spec)
    if isinstance(expr, Intersect):
        return Intersect(new_children[0], new_children[1], expr.classes)
    if isinstance(expr, Union):
        return Union(new_children[0], new_children[1])
    if isinstance(expr, Difference):
        return Difference(new_children[0], new_children[1])
    if isinstance(expr, Divide):
        return Divide(new_children[0], new_children[1], expr.classes)
    if isinstance(expr, Select):
        return Select(new_children[0], expr.predicate)
    if isinstance(expr, Project):
        return Project(new_children[0], expr.templates, expr.links)
    raise TypeError(f"unknown expression node {expr!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# law a): α *[R] (β + γ)  =  α *[R] β  +  α *[R] γ
# ----------------------------------------------------------------------


def _associate_over_union_right(expr: Expr) -> Expr | None:
    if isinstance(expr, Associate) and isinstance(expr.right, Union):
        union = expr.right
        return Union(
            Associate(expr.left, union.left, expr.spec),
            Associate(expr.left, union.right, expr.spec),
        )
    return None


def _associate_over_union_left(expr: Expr) -> Expr | None:
    # (β + γ) *[R] α  =  β *[R] α + γ *[R] α  (a) + commutativity).
    if isinstance(expr, Associate) and isinstance(expr.left, Union):
        union = expr.left
        return Union(
            Associate(union.left, expr.right, expr.spec),
            Associate(union.right, expr.right, expr.spec),
        )
    return None


def _factor_associate_union(expr: Expr) -> Expr | None:
    """The reverse of law a): α*β + α*γ → α*(β+γ) (shrinks the tree)."""
    if (
        isinstance(expr, Union)
        and isinstance(expr.left, Associate)
        and isinstance(expr.right, Associate)
        and expr.left.left == expr.right.left
        and expr.left.spec == expr.right.spec
    ):
        union = Union(expr.left.right, expr.right.right)
        if expr.left.spec is None and union.head_class is None:
            # The factored Associate could not resolve its association via
            # the shorthand rule; refuse rather than build a dead tree.
            return None
        return Associate(expr.left.left, union, expr.left.spec)
    return None


# ----------------------------------------------------------------------
# law c): α •{X} (β + γ)  =  α •{X} β  +  α •{X} γ   (explicit {X} only)
# ----------------------------------------------------------------------


def _intersect_over_union_right(expr: Expr) -> Expr | None:
    if (
        isinstance(expr, Intersect)
        and expr.classes is not None
        and isinstance(expr.right, Union)
    ):
        union = expr.right
        return Union(
            Intersect(expr.left, union.left, expr.classes),
            Intersect(expr.left, union.right, expr.classes),
        )
    return None


def _intersect_over_union_left(expr: Expr) -> Expr | None:
    if (
        isinstance(expr, Intersect)
        and expr.classes is not None
        and isinstance(expr.left, Union)
    ):
        union = expr.left
        return Union(
            Intersect(union.left, expr.right, expr.classes),
            Intersect(union.right, expr.right, expr.classes),
        )
    return None


# ----------------------------------------------------------------------
# law d): α *[R(CL1,CL2)] (β •{W} γ) = (α*β) •{W∪X} (α*γ)
# ----------------------------------------------------------------------


def _associate_over_intersect(expr: Expr) -> Expr | None:
    if not (isinstance(expr, Associate) and isinstance(expr.right, Intersect)):
        return None
    alpha, inner = expr.left, expr.right
    x = static_classes(alpha)
    y = static_classes(inner.left)
    z = static_classes(inner.right)
    w = inner.classes if inner.classes is not None else (y & z)
    # CL2 — the class the intersect joins α through.
    cl2 = expr.spec.beta_class if expr.spec is not None else inner.head_class
    if cl2 is None or cl2 not in w:
        return None  # condition i)
    if (x & y) or (x & z):
        return None  # condition ii)
    if not is_statically_homogeneous(alpha):
        return None  # condition iii)
    # Implicit single-CL2-instance condition: satisfied when both branches
    # are linear chains (one instance per class) — analysis.is_linear is
    # exactly what is_statically_homogeneous checks for non-literals.
    if not (
        is_statically_homogeneous(inner.left)
        and is_statically_homogeneous(inner.right)
    ):
        return None
    return Intersect(
        Associate(alpha, inner.left, expr.spec),
        Associate(alpha, inner.right, expr.spec),
        frozenset(w) | x,
    )


# ----------------------------------------------------------------------
# select pushdown (derived from the operator definitions, not a §4 law)
# ----------------------------------------------------------------------


def _select_over_union(expr: Expr) -> Expr | None:
    if isinstance(expr, Select) and isinstance(expr.operand, Union):
        union = expr.operand
        return Union(
            Select(union.left, expr.predicate), Select(union.right, expr.predicate)
        )
    return None


def _select_pushdown_associate(expr: Expr) -> Expr | None:
    """σ(α*β)[P] → σ(α)[P]*β when P reads only α's classes (and dually).

    Sound because Associate only concatenates patterns: the instances P
    inspects come verbatim from the side that holds their classes.
    """
    if not (isinstance(expr, Select) and isinstance(expr.operand, Associate)):
        return None
    assoc = expr.operand
    needed = predicate_classes(expr.predicate)
    if "*" in needed:
        return None  # opaque callback — cannot push
    left_classes = static_classes(assoc.left)
    right_classes = static_classes(assoc.right)
    if needed and needed <= left_classes and not (needed & right_classes):
        return Associate(Select(assoc.left, expr.predicate), assoc.right, assoc.spec)
    if needed and needed <= right_classes and not (needed & left_classes):
        return Associate(assoc.left, Select(assoc.right, expr.predicate), assoc.spec)
    return None


# ----------------------------------------------------------------------
# simplifications (law-backed tree shrinkers)
# ----------------------------------------------------------------------


def _merge_nested_selects(expr: Expr) -> Expr | None:
    """σ(σ(α)[P₁])[P₂] → σ(α)[P₁ ∧ P₂] (one pass instead of two)."""
    if isinstance(expr, Select) and isinstance(expr.operand, Select):
        from repro.core.predicates import And

        inner = expr.operand
        return Select(inner.operand, And(inner.predicate, expr.predicate))
    return None


def _union_idempotency(expr: Expr) -> Expr | None:
    """α + α → α (§3.3.2(7) idempotency)."""
    if isinstance(expr, Union) and expr.left == expr.right:
        return expr.left
    return None


# ----------------------------------------------------------------------
# reassociation of linear chains (§3.3.2(1) conditional associativity)
# ----------------------------------------------------------------------


def _rotate_right(expr: Expr) -> Expr | None:
    """(a * b) * c → a * (b * c) for linear, class-disjoint chains."""
    if not (isinstance(expr, Associate) and isinstance(expr.left, Associate)):
        return None
    a, b, c = expr.left.left, expr.left.right, expr.right
    if expr.spec is not None or expr.left.spec is not None:
        return None  # keep explicit annotations pinned
    if not (is_linear(a) and is_linear(b) and is_linear(c)):
        return None
    if static_classes(a) & static_classes(c):
        return None
    return Associate(a, Associate(b, c))


def _rotate_left(expr: Expr) -> Expr | None:
    """a * (b * c) → (a * b) * c under the same conditions."""
    if not (isinstance(expr, Associate) and isinstance(expr.right, Associate)):
        return None
    a, b, c = expr.left, expr.right.left, expr.right.right
    if expr.spec is not None or expr.right.spec is not None:
        return None
    if not (is_linear(a) and is_linear(b) and is_linear(c)):
        return None
    if static_classes(a) & static_classes(c):
        return None
    return Associate(Associate(a, b), c)


# ----------------------------------------------------------------------
# unsafe rules: laws b), e), f) — degenerate-input caveats apply
# ----------------------------------------------------------------------


def _complement_over_union_right(expr: Expr) -> Expr | None:
    if isinstance(expr, Complement) and isinstance(expr.right, Union):
        union = expr.right
        return Union(
            Complement(expr.left, union.left, expr.spec),
            Complement(expr.left, union.right, expr.spec),
        )
    return None


def _complement_over_intersect(expr: Expr) -> Expr | None:
    if not (isinstance(expr, Complement) and isinstance(expr.right, Intersect)):
        return None
    alpha, inner = expr.left, expr.right
    x = static_classes(alpha)
    y = static_classes(inner.left)
    z = static_classes(inner.right)
    w = inner.classes if inner.classes is not None else (y & z)
    cl2 = expr.spec.beta_class if expr.spec is not None else inner.head_class
    if cl2 is None or cl2 not in w or (x & y) or (x & z):
        return None
    if not is_statically_homogeneous(alpha):
        return None
    return Intersect(
        Complement(alpha, inner.left, expr.spec),
        Complement(alpha, inner.right, expr.spec),
        frozenset(w) | x,
    )


def _nonassociate_over_intersect(expr: Expr) -> Expr | None:
    if not (isinstance(expr, NonAssociate) and isinstance(expr.right, Intersect)):
        return None
    alpha, inner = expr.left, expr.right
    x = static_classes(alpha)
    y = static_classes(inner.left)
    z = static_classes(inner.right)
    w = inner.classes if inner.classes is not None else (y & z)
    cl2 = expr.spec.beta_class if expr.spec is not None else inner.head_class
    if cl2 is None or cl2 not in w or (x & y) or (x & z):
        return None
    if not is_statically_homogeneous(alpha):
        return None
    return Intersect(
        NonAssociate(alpha, inner.left, expr.spec),
        NonAssociate(alpha, inner.right, expr.spec),
        frozenset(w) | x,
    )


SAFE_RULES: tuple[RewriteRule, ...] = (
    RewriteRule("associate-over-union-R", "law a)", _associate_over_union_right),
    RewriteRule("associate-over-union-L", "law a)", _associate_over_union_left),
    RewriteRule("factor-associate-union", "law a) reversed", _factor_associate_union),
    RewriteRule("intersect-over-union-R", "law c)", _intersect_over_union_right),
    RewriteRule("intersect-over-union-L", "law c)", _intersect_over_union_left),
    RewriteRule("associate-over-intersect", "law d)", _associate_over_intersect),
    RewriteRule("select-over-union", "σ/+ definition", _select_over_union),
    RewriteRule("select-pushdown", "σ/* definition", _select_pushdown_associate),
    RewriteRule("merge-selects", "σ definition", _merge_nested_selects),
    RewriteRule("union-idempotency", "law +-idempotency", _union_idempotency),
    RewriteRule("rotate-right", "associativity", _rotate_right),
    RewriteRule("rotate-left", "associativity", _rotate_left),
)

UNSAFE_RULES: tuple[RewriteRule, ...] = (
    RewriteRule("complement-over-union-R", "law b)", _complement_over_union_right),
    RewriteRule("complement-over-intersect", "law e)", _complement_over_intersect),
    RewriteRule("nonassociate-over-intersect", "law f)", _nonassociate_over_intersect),
)


# ----------------------------------------------------------------------
# the planner's rule pass: rewrites that always pay, no search
# ----------------------------------------------------------------------


def _fans_out(chain: Expr, graph) -> bool:
    """Whether an association of the linear ``chain`` has at least twice
    as many edges as its smaller end has instances (O(1) reads per hop).

    Such a hop multiplies the chain's patterns, which projecting the chain
    onto its join class undoes; over 1:1 links (isa hops) the projection
    saves nothing and the extra Project node only costs.
    """
    if isinstance(chain, Select):
        return _fans_out(chain.operand, graph)
    if not isinstance(chain, Associate):
        return False
    try:
        assoc, a_cls, b_cls = chain.resolve(graph)
    except ReproError:
        return False
    smaller = min(graph.extent_size(a_cls), graph.extent_size(b_cls))
    return (
        graph.edge_count(assoc) >= 2 * max(smaller, 1)
        or _fans_out(chain.left, graph)
        or _fans_out(chain.right, graph)
    )


def _project_pushdown(expr: Project, graph) -> Expr | None:
    """Π(α *[R(A,B)] β)[E] → Π(α *[R(A,B)] Π(β)[B])[E] (and dually).

    Applies when E has no path links and E's classes lie in α and not in
    β.  Sound because a chain match of E's classes can never use a vertex
    or an edge of β: Π sees the same α-part in every concatenation, and β
    only decides *whether* that part joins — which depends on β's
    B-instances alone.  Linear joins are first rotated so that as much of
    the chain as possible sits on the reduced side; the reduced side must
    be linear and fan out (:func:`_fans_out`).  The rewritten Associate
    carries the explicit ``[R(A,B)]`` its shorthand resolved to, since
    ``Π(β)[B]`` has no head class of its own.
    """
    if expr.links:
        return None
    wanted = frozenset(c for template in expr.templates for c in template.classes)
    join = expr.operand
    while isinstance(join.left, Associate) and wanted <= static_classes(
        join.left.left
    ):
        rotated = _rotate_right(join)
        if rotated is None:
            break
        join = rotated
    while isinstance(join.right, Associate) and wanted <= static_classes(
        join.right.right
    ):
        rotated = _rotate_left(join)
        if rotated is None:
            break
        join = rotated
    left, right = static_classes(join.left), static_classes(join.right)
    if wanted <= left and not wanted & right:
        reduced = join.right
    elif wanted <= right and not wanted & left:
        reduced = join.left
    else:
        return None
    if not (is_linear(reduced) and _fans_out(reduced, graph)):
        return None
    try:
        assoc, a_cls, b_cls = join.resolve(graph)
    except ReproError:
        return None
    spec = AssocSpec(a_cls, b_cls, assoc.name)
    if reduced is join.right:
        join = Associate(join.left, Project(reduced, ((b_cls,),)), spec)
    else:
        join = Associate(Project(reduced, ((a_cls,),)), join.right, spec)
    return Project(join, expr.templates)


def rule_pass(expr: Expr, graph, fired: list[str]) -> Expr:
    """One bottom-up pass of select-pushdown and project-pushdown.

    No search, no statistics: each rule fires wherever its static
    conditions hold (project-pushdown also reads two O(1) graph counts).
    The names of the rules that fired are appended to ``fired``.  When
    none fires, ``expr`` itself is returned and nothing is allocated.
    """
    # Dispatch on ``kind``: the pass runs on every served query, and an
    # identity test is cheaper than isinstance against the Expr ABC.
    kind = expr.kind
    if kind is OperatorKind.EXTENT or kind is OperatorKind.LITERAL:
        return expr
    if kind is OperatorKind.SELECT or kind is OperatorKind.PROJECT:
        operand = rule_pass(expr.operand, graph, fired)
        if operand is not expr.operand:
            expr = rebuild(expr, (operand,))
        if operand.kind is not OperatorKind.ASSOCIATE:
            return expr
        return _push_down(expr, graph, fired)
    left = rule_pass(expr.left, graph, fired)
    right = rule_pass(expr.right, graph, fired)
    if left is expr.left and right is expr.right:
        return expr
    return rebuild(expr, (left, right))


def _push_down(expr: Expr, graph, fired: list[str]) -> Expr:
    """Push the σ or Π at the root of ``expr`` below its Associate operand
    as far as it goes; the operand has already been through the pass."""
    join = expr.operand
    if join.kind is not OperatorKind.ASSOCIATE:
        return expr
    if isinstance(expr, Select):
        pushed = _select_pushdown_associate(expr)
        if pushed is None:
            return expr
        fired.append("select-pushdown")
        left, right = pushed.left, pushed.right
        if left is not join.left:
            left = _push_down(left, graph, fired)
        else:
            right = _push_down(right, graph, fired)
        return Associate(left, right, join.spec)
    pushed = _project_pushdown(expr, graph)
    if pushed is None:
        return expr
    fired.append("project-pushdown")
    # The new Π(β)[B] may push further into β; the rewritten root cannot
    # fire again (its join carries an explicit spec, its reduced side is
    # no longer linear).
    join = pushed.operand
    left = (
        _push_down(join.left, graph, fired)
        if isinstance(join.left, Project)
        else join.left
    )
    right = (
        _push_down(join.right, graph, fired)
        if isinstance(join.right, Project)
        else join.right
    )
    if left is join.left and right is join.right:
        return pushed
    return Project(Associate(left, right, join.spec), pushed.templates)
