"""A-Complement (``|``) — §3.3.2(2).

``α |[R(A,B)] β`` concatenates pattern pairs over *Complement-patterns*:
``a_m ∈ αⁱ`` and ``b_n ∈ βʲ`` are joined iff ``(~a_m b_n) ∈ [R(A,B)]`` —
i.e. the instances are **not** associated in the domain although their
classes are.

Special retention cases (from the formal definition)::

    γᵏ = αⁱ  if ∃ a_m ∈ αⁱ  and  (β = φ  ∨  no b_n occurs in β)
    γᵏ = βʲ  if ∃ b_n ∈ βʲ  and  (α = φ  ∨  no a_m occurs in α)

i.e. when one operand cannot participate at all (it is empty or holds no
instance of its end class), the other operand's participating patterns are
retained verbatim.

:func:`complement_join` is the main clause alone, without the retention
cases: view maintenance joins a *delta* operand through it, where an
operand holding no end-class instance means "nothing to join", not
"retain the other side".
"""

from __future__ import annotations

from repro.core.assoc_set import AssociationSet
from repro.core.edges import complement
from repro.core.operators.base import orient
from repro.core.pattern import Pattern
from repro.objects.graph import ObjectGraph
from repro.schema.graph import Association

__all__ = ["a_complement", "complement_join"]


def a_complement(
    alpha: AssociationSet,
    beta: AssociationSet,
    graph: ObjectGraph,
    assoc: Association,
    alpha_class: str | None = None,
    beta_class: str | None = None,
) -> AssociationSet:
    """Evaluate ``α |[R(A,B)] β`` against ``graph``."""
    a_cls, b_cls = orient(assoc, alpha_class, beta_class)
    alpha_rows = tuple(alpha.patterns_with_class(a_cls))
    beta_rows = tuple(beta.patterns_with_class(b_cls))
    if not beta_rows:
        # β empty or without B-instances: retain α's participating patterns.
        return AssociationSet(pattern_a for pattern_a, _ in alpha_rows)
    if not alpha_rows:
        return AssociationSet(pattern_b for pattern_b, _ in beta_rows)
    return AssociationSet(complement_join(alpha, beta, graph, assoc, a_cls, b_cls))


def complement_join(
    alpha: AssociationSet,
    beta: AssociationSet,
    graph: ObjectGraph,
    assoc: Association,
    a_cls: str,
    b_cls: str,
) -> set[Pattern]:
    """The main clause of ``α |[R(A,B)] β``: every ``(αⁱ, βʲ, ~a_m b_n)``.

    ``a_cls``/``b_cls`` are the already-oriented end classes.  Operands
    without end-class instances contribute nothing here.
    """
    # Index β's participating instances once.  The original formulation
    # materialized ``complement_partners`` (an extent-sized frozenset) per
    # (pattern_a, a_m); probing the usually-small regular partner set per
    # candidate pair does the same complement test without ever building
    # the complement set.
    b_by_inst: dict = {}
    for pattern_b, b_instances in beta.patterns_with_class(b_cls):
        for b_n in b_instances:
            # complement edges are defined against the domain: only
            # instances present in the extent can appear in [R(A,B)]
            if graph.has_instance(b_n):
                b_by_inst.setdefault(b_n, []).append(pattern_b)

    out: set[Pattern] = set()
    recursive = assoc.left == assoc.right
    from_parts = Pattern._from_parts
    for pattern_a, a_instances in alpha.patterns_with_class(a_cls):
        va, ea = pattern_a._vertices, pattern_a._edges
        for a_m in a_instances:
            partners = graph.partners(assoc, a_m)
            for b_n, b_patterns in b_by_inst.items():
                if b_n in partners or (recursive and b_n == a_m):
                    continue
                connect = frozenset((complement(a_m, b_n),))
                for pattern_b in b_patterns:
                    out.add(
                        from_parts(
                            va | pattern_b._vertices,
                            ea | pattern_b._edges | connect,
                        )
                    )
    return out
