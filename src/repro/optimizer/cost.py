"""Cardinality and cost estimation.

Without statistics the model uses the same flavour of independence-and-
uniformity assumptions System R used — because its job is to *rank*
rewrite alternatives, not to predict wall-clock times:

* a class extent has its true cardinality;
* Associate multiplies the left cardinality by the association's average
  fan-out and by the fraction of the right class's extent present in the
  right operand;
* A-Complement uses the complement fan-out (extent size − fan-out);
* A-Intersect multiplies by a per-class matching probability ``1/|extent|``
  for every intersected class;
* Select applies a fixed default selectivity; Union adds; Difference and
  Divide keep/shrink the left input.

When a :class:`~repro.optimizer.stats.StatisticsCatalog` is supplied (and
has been analyzed), measured statistics replace the guesses: equality and
range selectivities come from equi-depth histograms (conjunction and
disjunction combined under independence), Associate/Complement fan-outs
from the measured fan-out distributions, and A-Intersect matching from
the degree-collision probability.  Every :class:`Estimate` carries its
``source`` (``exact`` / ``histogram`` / ``uniform``) so EXPLAIN can say
where a number came from.

``cost`` accumulates the work of producing every intermediate pattern —
the quantity the paper's §4 discussion of heterogeneous vs homogeneous
processing is about.  The unit is "patterns touched".
"""

from __future__ import annotations

from dataclasses import dataclass

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
from repro.core.predicates import (
    And,
    ClassValues,
    Comparison,
    Const,
    Not,
    Or,
    Predicate,
    ValueUnion,
)
from repro.objects.graph import ObjectGraph
from repro.optimizer.analysis import (
    edge_scannable,
    static_classes,
    value_index_probe,
)

__all__ = ["Estimate", "CostModel", "SELECT_SELECTIVITY"]

#: Default selectivity assumed for an A-Select predicate.
SELECT_SELECTIVITY = 0.33

#: Mirror-image comparison operators, for ``const op ClassValues`` forms.
_MIRROR_OPS = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _in_list_consts(value) -> tuple | None:
    """The constant pool of an IN-list right-hand side, or ``None``.

    Accepts a single :class:`Const` or a :class:`ValueUnion` whose leaves
    are all constants (nested unions flatten, matching ``values()``).
    """
    if isinstance(value, Const):
        return (value.value,)
    if isinstance(value, ValueUnion):
        out: list = []
        for operand in value.operands:
            part = _in_list_consts(operand)
            if part is None:
                return None
            out.extend(part)
        return tuple(out)
    return None


@dataclass(frozen=True)
class Estimate:
    """Estimated output cardinality and cumulative work of an expression.

    ``source`` names where the cardinality came from: ``"exact"`` (known
    by construction), ``"histogram"`` (measured statistics) or
    ``"uniform"`` (the static fallback assumptions).
    """

    cardinality: float
    cost: float
    source: str = "uniform"

    def __add__(self, other: "Estimate") -> "Estimate":
        return Estimate(
            self.cardinality + other.cardinality,
            self.cost + other.cost,
            self.source,
        )


class CostModel:
    """Estimates expressions against one object graph's statistics.

    ``stats`` (optional) supplies measured statistics; without it, or
    before it has been analyzed, behaviour is the original uniformity
    model.
    """

    def __init__(self, graph: ObjectGraph, stats=None) -> None:
        self.graph = graph
        self.schema = graph.schema
        self.stats = stats

    # ------------------------------------------------------------------
    # statistics accessors
    # ------------------------------------------------------------------

    def extent_size(self, cls: str) -> int:
        # Statistics read (no extent copy, no scan-counter pollution).
        return self.graph.extent_size(cls)

    def fanout(self, a_cls: str, b_cls: str, name: str | None = None) -> float:
        """Average number of B-partners per A-instance over ``R(A,B)``."""
        assoc = self.schema.resolve(a_cls, b_cls, name)
        left_size = self.extent_size(a_cls)
        if left_size == 0:
            return 0.0
        return self.graph.edge_count(assoc) / left_size

    @property
    def _live_stats(self):
        """The catalog, but only once it has actually been analyzed."""
        if self.stats is not None and self.stats.analyzed:
            return self.stats
        return None

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------

    def estimate(self, expr: Expr) -> Estimate:
        """Estimated cardinality and cumulative cost of ``expr``, both
        clamped non-negative."""
        est = self._estimate(expr)
        return Estimate(
            max(est.cardinality, 0.0), max(est.cost, 0.0), est.source
        )

    def _estimate(self, expr: Expr) -> Estimate:
        if isinstance(expr, ClassExtent):
            size = self.extent_size(expr.name)
            return Estimate(size, size, "exact")
        if isinstance(expr, Literal):
            size = len(expr.value)
            return Estimate(size, 0.0, "exact")
        if isinstance(expr, Associate):
            return self._binary_graph(expr, complemented=False)
        if isinstance(expr, Complement):
            return self._binary_graph(expr, complemented=True)
        if isinstance(expr, NonAssociate):
            # NonAssociate ⊆ A-Complement; damp the complement estimate.
            return self._binary_graph(expr, complemented=True, damping=0.25)
        if isinstance(expr, Intersect):
            return self._intersect(expr)
        if isinstance(expr, Union):
            left = self.estimate(expr.left)
            right = self.estimate(expr.right)
            card = left.cardinality + right.cardinality
            return Estimate(card, left.cost + right.cost + card)
        if isinstance(expr, (Difference, Divide)):
            left = self.estimate(expr.left)
            right = self.estimate(expr.right)
            # Both operators return a subset of the left operand: never
            # estimate more than the left input produces.
            card = min(left.cardinality * 0.5, left.cardinality)
            work = left.cardinality * max(right.cardinality, 1.0)
            return Estimate(card, left.cost + right.cost + work)
        if isinstance(expr, Select):
            inner = self.estimate(expr.operand)
            selectivity, source = self._selectivity(expr.predicate)
            card = inner.cardinality * selectivity
            if value_index_probe(expr) is not None:
                # Answered from the per-class value index: the filter only
                # ever touches the qualifying patterns, not the whole input.
                return Estimate(card, inner.cost + max(card, 1.0), source)
            from repro.exec.columns import (  # local: avoid cycle
                compiled_select_probe,
            )

            if compiled_select_probe(expr) is not None:
                # Compiled column-mask σ: each row costs a bit test, not a
                # per-pattern object evaluation — an order of magnitude
                # cheaper than the object path over the same input.
                work = max(0.1 * inner.cardinality, 1.0)
                return Estimate(card, inner.cost + work, source)
            return Estimate(card, inner.cost + inner.cardinality, source)
        if isinstance(expr, Project):
            inner = self.estimate(expr.operand)
            return Estimate(
                inner.cardinality, inner.cost + inner.cardinality, inner.source
            )
        raise TypeError(f"unknown expression node {expr!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # predicate selectivity
    # ------------------------------------------------------------------

    def _selectivity(self, predicate: Predicate) -> tuple[float, str]:
        """Estimated fraction of patterns satisfying ``predicate``.

        Histogram-backed where the catalog can answer (equality/range
        comparisons between one class's values and a constant); Boolean
        combinators combine operand selectivities under independence;
        anything opaque falls back to :data:`SELECT_SELECTIVITY`.
        """
        if isinstance(predicate, Comparison):
            sel = self._comparison_selectivity(predicate)
            if sel is not None:
                return sel, "histogram"
            return SELECT_SELECTIVITY, "uniform"
        if isinstance(predicate, And):
            sel, source = 1.0, "uniform"
            for operand in predicate.operands:
                s, src = self._selectivity(operand)
                sel *= s
                if src == "histogram":
                    source = "histogram"
            return sel, source
        if isinstance(predicate, Or):
            miss, source = 1.0, "uniform"
            for operand in predicate.operands:
                s, src = self._selectivity(operand)
                miss *= 1.0 - s
                if src == "histogram":
                    source = "histogram"
            return 1.0 - miss, source
        if isinstance(predicate, Not):
            sel, source = self._selectivity(predicate.operand)
            return 1.0 - sel, source
        return SELECT_SELECTIVITY, "uniform"

    def _comparison_selectivity(self, predicate: Comparison) -> float | None:
        """Histogram answer for ``ClassValues op Const`` (either order)."""
        stats = self._live_stats
        if stats is None or predicate.quantifier != "exists":
            return None
        left, op, right = predicate.left, predicate.op, predicate.right
        if isinstance(left, Const) and isinstance(right, ClassValues):
            mirrored = _MIRROR_OPS.get(op)
            if mirrored is None:
                return None
            left, op, right = right, mirrored, left
        if op == "in" and isinstance(left, ClassValues):
            # IN-list: sum of the per-element equality selectivities,
            # capped at 1 (distinct constants select disjoint rows).
            histogram = stats.histogram(left.cls)
            consts = _in_list_consts(right)
            if histogram is None or consts is None:
                return None
            total = 0.0
            for value in consts:
                sel = histogram.selectivity_eq(value)
                if sel is None:
                    return None
                total += sel
            return min(total, 1.0)
        if not (isinstance(left, ClassValues) and isinstance(right, Const)):
            return None
        histogram = stats.histogram(left.cls)
        if histogram is None:
            return None
        return histogram.selectivity_cmp(op, right.value)

    # ------------------------------------------------------------------
    # graph operators
    # ------------------------------------------------------------------

    def _binary_graph(
        self, expr, complemented: bool, damping: float = 1.0
    ) -> Estimate:
        left = self.estimate(expr.left)
        right = self.estimate(expr.right)
        try:
            assoc, a_cls, b_cls = expr.resolve(self.graph)
        except Exception:
            # Unresolvable statically (e.g. an unhinted literal): fall back
            # to a generic quadratic guess.
            card = left.cardinality * right.cardinality * 0.1 * damping
            return Estimate(card, left.cost + right.cost + card)
        source = "uniform"
        stats = self._live_stats
        summary = (
            stats.fanout_summary(a_cls, b_cls, assoc.name)
            if stats is not None
            else None
        )
        if summary is not None:
            per_instance = (
                summary.complement_mean if complemented else summary.mean
            )
            source = "histogram"
        else:
            per_instance = self.fanout(a_cls, b_cls, assoc.name)
            if complemented:
                per_instance = max(self.extent_size(b_cls) - per_instance, 0.0)
        b_size = self.extent_size(b_cls)
        fraction = right.cardinality / b_size if b_size else 0.0
        card = left.cardinality * per_instance * min(fraction, 1.0) * damping
        work = self._strategy_work(expr, assoc, a_cls, b_cls, left, right, per_instance)
        return Estimate(card, left.cost + right.cost + work + card, source)

    def _strategy_work(
        self, expr, assoc, a_cls: str, b_cls: str, left, right, per_instance: float
    ) -> float:
        """Index-aware work of one binary graph node (patterns touched).

        Mirrors the physical planner's strategy choices: an edge-scannable
        Associate is one pass over the association's edge list; any other
        Associate is an index-nested-loop driven from the cheaper side
        (Associate is commutative, so the executor picks the smaller
        operand).  Complement-flavoured operators keep the generic
        drive-from-the-left estimate.
        """
        if isinstance(expr, Associate):
            if edge_scannable(expr, self.graph):
                return float(self.graph.edge_count(assoc))
            reverse = self.fanout(b_cls, a_cls, assoc.name)
            return min(
                left.cardinality * max(per_instance, 1.0),
                right.cardinality * max(reverse, 1.0),
            )
        return left.cardinality * max(per_instance, 1.0)

    def _intersect(self, expr: Intersect) -> Estimate:
        left = self.estimate(expr.left)
        right = self.estimate(expr.right)
        classes = expr.classes
        if classes is None:
            classes = static_classes(expr.left) & static_classes(expr.right)
        stats = self._live_stats
        source = "uniform"
        match_probability = 1.0
        for cls in classes:
            measured = stats.match_probability(cls) if stats is not None else None
            if measured is not None:
                match_probability *= measured
                source = "histogram"
                continue
            size = self.extent_size(cls) if self.schema.has_class(cls) else 1
            match_probability /= max(size, 1)
        card = left.cardinality * right.cardinality * match_probability
        work = left.cardinality + right.cardinality + card
        return Estimate(card, left.cost + right.cost + work, source)
