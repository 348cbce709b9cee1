"""A-algebra expressions: AST, shorthand resolution, and evaluation.

The paper writes queries as algebraic expressions such as::

    Π(TA*Grad*Student*Person*SS#)[SS#]
    Π(Section#*(Section!Room# + Section!Teacher))[Section#]

This module provides the expression tree behind that notation:

* :class:`ClassExtent` — a bare class name denotes the association-set of
  its extent's Inner-patterns;
* one node per operator, with Python operator overloading so expressions
  embed naturally (``ref("TA") * ref("Grad")``, ``a + b``, ``a - b``,
  ``a & b`` for ``•``, ``a ^ b`` for ``!``, ``a / b`` for ``÷``);
* the paper's shorthand rule for omitting ``[R(A,B)]``: a binary graph
  operator connects "the last class in a linear expression α and the first
  class in a linear expression β" when that association is unique — tracked
  via each node's ``head_class``/``tail_class``;
* an evaluator that accepts any :class:`~repro.obs.span.Tracer`: each
  node opens a span carrying its :class:`~repro.obs.span.OperatorKind`,
  output cardinality and wall time, so the span tree mirrors the
  expression tree.  :class:`EvalTrace` is the backward-compatible flat
  view over that tree (the optimizer's cost model is validated against
  these traces).

Nodes are immutable; rewriting (see :mod:`repro.optimizer`) builds new
trees.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.assoc_set import AssociationSet
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
from repro.core.operators.project import (
    ChainTemplate,
    PathLink,
    _coerce_link,
    _coerce_template,
)
from repro.core.predicates import Predicate
from repro.errors import EvaluationError
from repro.objects.graph import ObjectGraph
from repro.obs.span import OperatorKind, Tracer
from repro.schema.graph import Association

__all__ = [
    "AssocSpec",
    "EvalTrace",
    "OperatorKind",
    "Expr",
    "ClassExtent",
    "Literal",
    "Associate",
    "Complement",
    "NonAssociate",
    "Intersect",
    "Union",
    "Difference",
    "Divide",
    "Select",
    "Project",
    "ref",
]


@dataclass(frozen=True)
class AssocSpec:
    """An explicit ``[R(A,B)]`` annotation on a binary graph operator.

    ``alpha_class`` is the end the left operand joins through and
    ``beta_class`` the end for the right operand; ``name`` picks one of
    several parallel associations.
    """

    alpha_class: str
    beta_class: str
    name: str | None = None

    def __str__(self) -> str:
        label = self.name if self.name is not None else "R"
        return f"[{label}({self.alpha_class},{self.beta_class})]"


class EvalTrace(Tracer):
    """Flat, backward-compatible view over a span-tree trace.

    Historically this recorded ``(expression-text, output-cardinality,
    seconds)`` tuples; it is now a :class:`~repro.obs.span.Tracer` whose
    :attr:`steps` derives those tuples from the completed spans, in
    completion order.  ``total_patterns`` is the sum of all intermediate
    cardinalities — the unit of "work" the paper's optimization section
    reasons about.  New code wanting the tree should pass a plain
    ``Tracer`` (or this, which *is* one) and read ``roots`` instead.
    """

    @property
    def steps(self) -> list[tuple[str, int, float]]:
        """``(expression-text, output-cardinality, seconds)`` tuples."""
        return [
            (span.name, span.output_cardinality or 0, span.seconds)
            for span in self.completed
        ]

    @property
    def total_patterns(self) -> int:
        """Sum of every intermediate cardinality (the paper's work unit)."""
        return sum(size for _, size, _ in self.steps)

    @property
    def total_seconds(self) -> float:
        """Sum of every step's inclusive wall time."""
        return sum(seconds for _, _, seconds in self.steps)

    def pretty(self) -> str:
        """One aligned line per step, completion order."""
        lines = [
            f"{size:8d} patterns  {seconds * 1e3:8.2f} ms  {text}"
            for text, size, seconds in self.steps
        ]
        return "\n".join(lines)


class Expr(ABC):
    """Base class of every A-algebra expression node."""

    #: Structured operator classification, overridden per subclass.
    kind: OperatorKind = OperatorKind.OTHER

    @abstractmethod
    def _apply(
        self, operands: tuple[AssociationSet, ...], graph: ObjectGraph
    ) -> AssociationSet:
        """This node's own reference step over its evaluated children.

        ``operands`` holds one association-set per :meth:`children` entry,
        in order.  :meth:`evaluate` and the physical planner's object
        island both run an operator through here, so the per-operator
        dispatch onto :mod:`repro.core.operators` exists exactly once.
        """

    def _evaluate(self, graph: ObjectGraph, trace: Tracer | None) -> AssociationSet:
        operands = tuple(child.evaluate(graph, trace) for child in self.children())
        return self._apply(operands, graph)

    def evaluate(
        self, graph: ObjectGraph, trace: Tracer | None = None
    ) -> AssociationSet:
        """Evaluate the expression against an object graph.

        Closure property in action: the result is an association-set, so
        it can be wrapped in :class:`Literal` and processed further.
        With a :class:`~repro.obs.span.Tracer` (or :class:`EvalTrace`),
        every node opens a child span, so the recorded span tree mirrors
        this expression tree.
        """
        if trace is None:
            return self._evaluate(graph, None)
        span = trace.begin(str(self), self.kind)
        try:
            result = self._evaluate(graph, trace)
        except BaseException as exc:
            trace.finish(span, error=type(exc).__name__)
            raise
        trace.finish(span, output=len(result))
        return result

    # ------------------------------------------------------------------
    # shorthand association resolution (§3.3.2(1))
    # ------------------------------------------------------------------

    @property
    def head_class(self) -> str | None:
        """First class of this expression's linear rendering (if linear)."""
        return None

    @property
    def tail_class(self) -> str | None:
        """Last class of this expression's linear rendering (if linear)."""
        return None

    def children(self) -> tuple["Expr", ...]:
        """Direct subexpressions (for tree walks and rewriting)."""
        return ()

    # ------------------------------------------------------------------
    # embedded-DSL operator overloads
    # ------------------------------------------------------------------

    def __mul__(self, other: "Expr") -> "Associate":
        return Associate(self, _as_expr(other))

    def __or__(self, other: "Expr") -> "Complement":
        return Complement(self, _as_expr(other))

    def __xor__(self, other: "Expr") -> "NonAssociate":
        return NonAssociate(self, _as_expr(other))

    def __and__(self, other: "Expr") -> "Intersect":
        return Intersect(self, _as_expr(other))

    def __add__(self, other: "Expr") -> "Union":
        return Union(self, _as_expr(other))

    def __sub__(self, other: "Expr") -> "Difference":
        return Difference(self, _as_expr(other))

    def __truediv__(self, other: "Expr") -> "Divide":
        return Divide(self, _as_expr(other))

    def non_assoc(self, other: "Expr", spec: AssocSpec | None = None) -> "NonAssociate":
        return NonAssociate(self, _as_expr(other), spec)

    def where(self, predicate: Predicate) -> "Select":
        return Select(self, predicate)

    def project(
        self,
        templates: Iterable["ChainTemplate | str | Sequence[str]"],
        links: Iterable["PathLink | str | Sequence[str]"] = (),
    ) -> "Project":
        return Project(self, tuple(templates), tuple(links))

    def __str__(self) -> str:  # pragma: no cover - subclasses override
        return self.__class__.__name__


def _as_expr(value: "Expr | AssociationSet") -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, AssociationSet):
        return Literal(value)
    raise EvaluationError(f"cannot use {value!r} as an algebra expression")


def ref(name: str) -> "ClassExtent":
    """A bare class name in an expression (its extent of Inner-patterns)."""
    return ClassExtent(name)


class ClassExtent(Expr):
    """A class name: evaluates to the Inner-patterns of its extent."""

    kind = OperatorKind.EXTENT

    def __init__(self, name: str) -> None:
        self.name = name

    def _apply(self, operands, graph: ObjectGraph) -> AssociationSet:
        return AssociationSet.of_inners(graph.extent(self.name))

    @property
    def head_class(self) -> str | None:
        return self.name

    @property
    def tail_class(self) -> str | None:
        return self.name

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClassExtent) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("ClassExtent", self.name))


class Literal(Expr):
    """An already-computed association-set embedded in an expression.

    This is the closure property made concrete: any query result can be
    re-entered into a new expression.  ``head``/``tail`` optionally declare
    the end classes for the shorthand association resolution; without them
    a binary graph operator touching this literal needs an explicit
    :class:`AssocSpec`.
    """

    kind = OperatorKind.LITERAL

    def __init__(
        self,
        value: AssociationSet,
        label: str = "<literal>",
        head: str | None = None,
        tail: str | None = None,
    ) -> None:
        self.value = value
        self.label = label
        self._head = head
        self._tail = tail if tail is not None else head

    @property
    def head_class(self) -> str | None:
        return self._head

    @property
    def tail_class(self) -> str | None:
        return self._tail

    def _apply(self, operands, graph: ObjectGraph) -> AssociationSet:
        return self.value

    def __str__(self) -> str:
        return self.label

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Literal) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Literal", self.value))


class _BinaryGraphOp(Expr):
    """Common machinery of Associate / A-Complement / NonAssociate."""

    symbol = "?"

    def __init__(self, left: Expr, right: Expr, spec: AssocSpec | None = None) -> None:
        self.left = left
        self.right = right
        self.spec = spec

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def _apply(self, operands, graph: ObjectGraph) -> AssociationSet:
        assoc, a_cls, b_cls = self.resolve(graph)
        return self.operator(*operands, graph, assoc, a_cls, b_cls)

    def resolve(self, graph: ObjectGraph) -> tuple[Association, str, str]:
        """Resolve the association and orientation this node operates over.

        Explicit :class:`AssocSpec` wins; otherwise the paper's shorthand —
        tail class of the left linear expression, head class of the right —
        requires both to be defined and the association to be unique.
        """
        schema = graph.schema
        if self.spec is not None:
            assoc = schema.resolve(
                self.spec.alpha_class, self.spec.beta_class, self.spec.name
            )
            return assoc, self.spec.alpha_class, self.spec.beta_class
        a_cls = self.left.tail_class
        b_cls = self.right.head_class
        if a_cls is None or b_cls is None:
            raise EvaluationError(
                f"{self}: operands are not linear expressions; "
                f"annotate the operator with an explicit [R(A,B)]"
            )
        assoc = schema.resolve(a_cls, b_cls)
        return assoc, a_cls, b_cls

    @property
    def head_class(self) -> str | None:
        return self.left.head_class

    @property
    def tail_class(self) -> str | None:
        return self.right.tail_class

    def __str__(self) -> str:
        spec = str(self.spec) if self.spec is not None else ""
        return f"({self.left} {self.symbol}{spec} {self.right})"

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and other.left == self.left  # type: ignore[attr-defined]
            and other.right == self.right  # type: ignore[attr-defined]
            and other.spec == self.spec  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.left, self.right, self.spec))


class Associate(_BinaryGraphOp):
    """``α * β`` — concatenation over Inter-patterns."""

    symbol = "*"
    kind = OperatorKind.ASSOCIATE

    operator = staticmethod(associate)


class Complement(_BinaryGraphOp):
    """``α | β`` — concatenation over Complement-patterns."""

    symbol = "|"
    kind = OperatorKind.COMPLEMENT

    operator = staticmethod(a_complement)


class NonAssociate(_BinaryGraphOp):
    """``α ! β`` — mutually non-associated pattern pairs."""

    symbol = "!"
    kind = OperatorKind.NON_ASSOCIATE

    operator = staticmethod(non_associate)


class Intersect(Expr):
    """``α •{W} β`` — merge patterns agreeing on the instances of ``{W}``."""

    kind = OperatorKind.INTERSECT

    def __init__(
        self, left: Expr, right: Expr, classes: Iterable[str] | None = None
    ) -> None:
        self.left = left
        self.right = right
        self.classes = frozenset(classes) if classes is not None else None

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    operator = staticmethod(a_intersect)

    def _apply(self, operands, graph: ObjectGraph) -> AssociationSet:
        return self.operator(*operands, self.classes)

    @property
    def head_class(self) -> str | None:
        return self.left.head_class or self.right.head_class

    @property
    def tail_class(self) -> str | None:
        return self.right.tail_class or self.left.tail_class

    def __str__(self) -> str:
        over = "{" + ",".join(sorted(self.classes)) + "}" if self.classes else ""
        return f"({self.left} •{over} {self.right})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Intersect)
            and other.left == self.left
            and other.right == self.right
            and other.classes == self.classes
        )

    def __hash__(self) -> int:
        return hash(("Intersect", self.left, self.right, self.classes))


class Union(Expr):
    """``α + β`` — heterogeneous set union."""

    kind = OperatorKind.UNION

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left = left
        self.right = right

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    operator = staticmethod(a_union)

    def _apply(self, operands, graph: ObjectGraph) -> AssociationSet:
        return self.operator(*operands)

    @property
    def head_class(self) -> str | None:
        left, right = self.left.head_class, self.right.head_class
        return left if left == right else None

    @property
    def tail_class(self) -> str | None:
        left, right = self.left.tail_class, self.right.tail_class
        return left if left == right else None

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Union)
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash(("Union", self.left, self.right))


class Difference(Expr):
    """``α - β`` — drop minuend patterns containing a subtrahend pattern."""

    kind = OperatorKind.DIFFERENCE

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left = left
        self.right = right

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    operator = staticmethod(a_difference)

    def _apply(self, operands, graph: ObjectGraph) -> AssociationSet:
        return self.operator(*operands)

    @property
    def head_class(self) -> str | None:
        return self.left.head_class

    @property
    def tail_class(self) -> str | None:
        return self.left.tail_class

    def __str__(self) -> str:
        return f"({self.left} - {self.right})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Difference)
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash(("Difference", self.left, self.right))


class Divide(Expr):
    """``α ÷{W} β`` — groups of α-patterns jointly containing β."""

    kind = OperatorKind.DIVIDE

    def __init__(
        self, left: Expr, right: Expr, classes: Iterable[str] | None = None
    ) -> None:
        self.left = left
        self.right = right
        self.classes = frozenset(classes) if classes is not None else None

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    operator = staticmethod(a_divide)

    def _apply(self, operands, graph: ObjectGraph) -> AssociationSet:
        return self.operator(*operands, self.classes)

    @property
    def head_class(self) -> str | None:
        return self.left.head_class

    @property
    def tail_class(self) -> str | None:
        return self.left.tail_class

    def __str__(self) -> str:
        over = "{" + ",".join(sorted(self.classes)) + "}" if self.classes else ""
        return f"({self.left} ÷{over} {self.right})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Divide)
            and other.left == self.left
            and other.right == self.right
            and other.classes == self.classes
        )

    def __hash__(self) -> int:
        return hash(("Divide", self.left, self.right, self.classes))


class Select(Expr):
    """``σ(α)[P]``."""

    kind = OperatorKind.SELECT

    def __init__(self, operand: Expr, predicate: Predicate) -> None:
        self.operand = operand
        self.predicate = predicate

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    operator = staticmethod(a_select)

    def _apply(self, operands, graph: ObjectGraph) -> AssociationSet:
        return self.operator(*operands, self.predicate, graph)

    @property
    def head_class(self) -> str | None:
        return self.operand.head_class

    @property
    def tail_class(self) -> str | None:
        return self.operand.tail_class

    def __str__(self) -> str:
        return f"σ({self.operand})[{self.predicate}]"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Select)
            and other.operand == self.operand
            and other.predicate == self.predicate
        )

    def __hash__(self) -> int:
        return hash(("Select", self.operand, self.predicate))


class Project(Expr):
    """``Π(α)[E; T]``."""

    kind = OperatorKind.PROJECT

    def __init__(
        self,
        operand: Expr,
        templates: tuple["ChainTemplate | str | Sequence[str]", ...],
        links: tuple["PathLink | str | Sequence[str]", ...] = (),
    ) -> None:
        self.operand = operand
        self.templates = tuple(_coerce_template(t) for t in templates)
        self.links = tuple(_coerce_link(t) for t in links)

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    operator = staticmethod(a_project)

    def _apply(self, operands, graph: ObjectGraph) -> AssociationSet:
        return self.operator(*operands, self.templates, self.links)

    def __str__(self) -> str:
        e_part = ", ".join(str(t) for t in self.templates)
        t_part = "; " + ", ".join(str(t) for t in self.links) if self.links else ""
        return f"Π({self.operand})[{e_part}{t_part}]"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Project)
            and other.operand == self.operand
            and other.templates == self.templates
            and other.links == self.links
        )

    def __hash__(self) -> int:
        return hash(("Project", self.operand, self.templates, self.links))
