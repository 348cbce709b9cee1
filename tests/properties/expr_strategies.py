"""Shared Hypothesis strategies for random algebra expressions.

Used by the OQL round-trip property, the optimizer soundness property and
the physical/compact equivalence properties.  Expressions are generated
over the fixed A—B—C—D chain schema so that all shorthand association
resolutions are unambiguous.

By default everything generated has an OQL form.  ``printable=False``
adds the shapes OQL cannot spell — the ``forall`` quantifier and
``ValueUnion`` constant lists — so the executors' fallback edges (e.g.
``const in Class`` under ``forall``) are reached too.
"""

from __future__ import annotations

import hypothesis.strategies as st

from repro.core.expression import (
    AssocSpec,
    Associate,
    Complement,
    Difference,
    Divide,
    Intersect,
    NonAssociate,
    Project,
    Select,
    Union,
    ref,
)
from repro.core.predicates import (
    And,
    ClassValues,
    Comparison,
    Const,
    Not,
    Or,
    ValueUnion,
)

CLASSES = ("A", "B", "C", "D")
ADJACENT = {("A", "B"): "AB", ("B", "C"): "BC", ("C", "D"): "CD"}
#: Projection templates: single classes and chains along the schema.
TEMPLATES = (
    ("A",),
    ("B",),
    ("C",),
    ("D",),
    ("A", "B"),
    ("B", "C"),
    ("C", "B"),
    ("A", "B", "C"),
    ("B", "C", "D"),
)

__all__ = [
    "CLASSES",
    "ADJACENT",
    "TEMPLATES",
    "predicates",
    "expressions",
    "chain_expressions",
]

_CONSTANTS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-99, max_value=99),
    st.text(alphabet="abcXYZ ", max_size=6),
)


@st.composite
def comparisons(draw, printable: bool = True):
    """One comparison atom over the chain classes.

    ``Class op const`` in either orientation, ``in`` in either
    orientation, and two-class ``Class op Class``; unprintable draws add
    ``ValueUnion`` constant lists and the ``forall`` quantifier.
    """
    cls = ClassValues(draw(st.sampled_from(CLASSES)))
    op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "in"]))
    if printable or draw(st.booleans()):
        consts = Const(draw(_CONSTANTS))
    else:
        consts = ValueUnion(*(Const(c) for c in draw(st.lists(_CONSTANTS, max_size=3))))
    shape = draw(st.sampled_from(["column-left", "column-right", "two-class"]))
    if shape == "two-class":
        left, right = cls, ClassValues(draw(st.sampled_from(CLASSES)))
    elif shape == "column-left":
        left, right = cls, consts
    else:
        left, right = consts, cls
    quantifier = "exists" if printable else draw(st.sampled_from(["exists", "forall"]))
    return Comparison(left, op, right, quantifier)


@st.composite
def predicates(draw, depth: int = 2, printable: bool = True):
    """A random predicate over the chain classes (printable by default)."""
    if depth == 0 or draw(st.booleans()):
        return draw(comparisons(printable))
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return Not(draw(predicates(depth - 1, printable)))
    left = draw(predicates(depth - 1, printable))
    right = draw(predicates(depth - 1, printable))
    return And(left, right) if kind == "and" else Or(left, right)


@st.composite
def expressions(draw, depth: int = 3, printable: bool = True):
    """A random well-formed expression over the chain schema."""
    if depth == 0:
        return ref(draw(st.sampled_from(CLASSES)))
    kind = draw(
        st.sampled_from(["leaf", "assoc", "binary", "classed", "select", "project"])
    )
    if kind == "leaf":
        return ref(draw(st.sampled_from(CLASSES)))
    if kind == "assoc":
        (left_cls, right_cls), name = draw(st.sampled_from(list(ADJACENT.items())))
        node = draw(st.sampled_from([Associate, Complement, NonAssociate]))
        spec = AssocSpec(left_cls, right_cls, name) if draw(st.booleans()) else None
        return node(ref(left_cls), ref(right_cls), spec)
    left = draw(expressions(depth - 1, printable))
    right = draw(expressions(depth - 1, printable))
    if kind == "binary":
        node = draw(st.sampled_from([Union, Difference]))
        return node(left, right)
    if kind == "classed":
        node = draw(st.sampled_from([Intersect, Divide]))
        classes = draw(st.sets(st.sampled_from(CLASSES), min_size=1, max_size=2))
        return node(left, right, frozenset(classes))
    if kind == "select":
        return Select(left, draw(predicates(printable=printable)))
    templates = tuple(
        draw(st.sampled_from(TEMPLATES))
        for _ in range(draw(st.integers(min_value=1, max_value=2)))
    )
    links = ()
    if draw(st.booleans()):
        pair = draw(
            st.lists(st.sampled_from(CLASSES), min_size=2, max_size=3, unique=True)
        )
        links = (tuple(pair),)
    return Project(left, templates, links)


@st.composite
def _segments(draw, lo: int, hi: int, depth: int):
    """An operand over the chain classes ``CLASSES[lo..hi]``.

    Heads at ``CLASSES[lo]`` and tails at ``CLASSES[hi]`` unless a Project
    hides them, in which case the parent join gets an explicit spec.
    Composite segments are Associates split at a random hop; any segment
    may come σ'd, unioned with a second segment over the same classes, or
    projected onto the classes its parent joins through.
    """
    if lo == hi:
        node = ref(CLASSES[lo])
    else:
        split = draw(st.integers(min_value=lo, max_value=hi - 1))
        left = draw(_segments(lo, split, depth - 1))
        right = draw(_segments(split + 1, hi, depth - 1))
        a_cls, b_cls = CLASSES[split], CLASSES[split + 1]
        spec = None
        unresolvable = left.tail_class is None or right.head_class is None
        if unresolvable or draw(st.booleans()):
            spec = AssocSpec(a_cls, b_cls, ADJACENT[a_cls, b_cls])
        node = Associate(left, right, spec)
    if depth <= 0:
        return node
    wrap = draw(st.sampled_from(["none", "none", "select", "union", "project"]))
    if wrap == "select":
        return Select(node, draw(predicates(depth=1)))
    if wrap == "union":
        return Union(node, draw(_segments(lo, hi, depth - 1)))
    if wrap == "project":
        ends = (CLASSES[lo],) if lo == hi else (CLASSES[lo], CLASSES[hi])
        return Project(node, tuple((cls,) for cls in ends))
    return node


@st.composite
def chain_expressions(draw):
    """σ or Π over an Associate chain along A—B—C—D (the rule-pass shapes).

    The chain's operands are composite, σ'd, unioned or projected
    (:func:`_segments`); its joins carry explicit specs or not.  The root
    is a Project onto templates of the chain's classes or a Select, so
    select-pushdown and project-pushdown both get a chance to fire.
    """
    lo = draw(st.integers(min_value=0, max_value=2))
    hi = draw(st.integers(min_value=lo + 1, max_value=3))
    chain = draw(_segments(lo, hi, depth=2))
    if draw(st.booleans()):
        return Select(chain, draw(predicates(depth=1)))
    inside = set(CLASSES[lo : hi + 1])
    templates = [t for t in TEMPLATES if set(t) <= inside]
    chosen = draw(st.lists(st.sampled_from(templates), min_size=1, max_size=2))
    links = ()
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        links = ((CLASSES[lo], CLASSES[hi]),)
    return Project(chain, tuple(chosen), links)
