"""EXPLAIN ANALYZE: the plan tree with estimated vs actual cardinalities.

:func:`explain_analyze` evaluates an expression under a span tracer, then
walks the tree that actually ran — through the physical executor, the
tree its rule pass rewrote — and its (structurally identical) span tree
in lock-step, pairing each node's **estimated** cardinality from the
optimizer's :class:`~repro.optimizer.cost.CostModel` with the **actual**
cardinality and wall time the evaluation observed.  The per-node *q-error*
(``max(est, act) / min(est, act)``, floored at 1 pattern) is the standard
cost-model accuracy measure; reports feed it into the
``repro_estimate_q_error`` histogram so accuracy is tracked over time.

The expression/optimizer imports happen inside the function bodies so this
module stays importable while :mod:`repro.core.expression` (which imports
:mod:`repro.obs.span`) is itself still initialising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.obs.metrics import MetricsRegistry, Q_ERROR_BUCKETS
from repro.obs.span import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.expression import Expr
    from repro.objects.graph import ObjectGraph
    from repro.optimizer.cost import CostModel

__all__ = ["ExplainNode", "ExplainReport", "explain_analyze"]


@dataclass(frozen=True)
class ExplainNode:
    """One plan node annotated with estimate, actuals and timing."""

    text: str
    kind: str
    estimated: float
    actual: int
    seconds: float
    self_seconds: float
    children: tuple["ExplainNode", ...] = ()
    #: Physical strategy the executor chose ("compact-kernel",
    #: "object-island", ...); None when the naive logical evaluator
    #: produced the trace.
    strategy: str | None = None
    #: Where the estimate came from ("exact", "histogram", "uniform");
    #: None for reports built before sources were tracked.
    source: str | None = None
    #: Cardinality of the compiled selection bitmask a ``compact-select``
    #: node intersected with its operand (the number of vertex ids whose
    #: column values satisfy the predicate); None for every other node.
    mask_card: int | None = None
    #: Per-shard actual cardinalities for nodes executed under the
    #: sharded scatter-gather executor (index = shard id); None for
    #: single-process nodes.  The spread across entries is the skew the
    #: ``repro_shard_skew_ratio`` gauge summarizes.
    shard_cards: tuple[int, ...] | None = None

    @property
    def q_error(self) -> float:
        """``max(est, act) / min(est, act)``, both floored at 1 pattern."""
        est = max(self.estimated, 1.0)
        act = max(float(self.actual), 1.0)
        return max(est, act) / min(est, act)

    def walk(self, depth: int = 0) -> Iterator[tuple["ExplainNode", int]]:
        """Yield ``(node, depth)`` pairs, pre-order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)


@dataclass(frozen=True)
class ExplainReport:
    """The annotated plan tree plus the query's actual result."""

    root: ExplainNode
    result: Any  # the AssociationSet the evaluation produced
    #: The expression tree that ran (the planner's rewrite of the query).
    expr: Any = None
    #: Rule-pass rules that rewrote the query before it ran, in order.
    rewrites: tuple[str, ...] = ()

    def walk(self) -> Iterator[tuple[ExplainNode, int]]:
        """Every plan node with its depth, pre-order."""
        yield from self.root.walk()

    @property
    def total_seconds(self) -> float:
        """Inclusive wall time of the whole evaluation."""
        return self.root.seconds

    @property
    def mean_q_error(self) -> float:
        """Mean per-node q-error (1.0 = every estimate exact)."""
        errors = [node.q_error for node, _ in self.walk()]
        return sum(errors) / len(errors)

    @property
    def max_q_error(self) -> float:
        """Worst per-node q-error."""
        return max(node.q_error for node, _ in self.walk())

    def pretty(self) -> str:
        """The EXPLAIN ANALYZE table: one row per plan node, tree-indented."""
        lines = [
            "EXPLAIN ANALYZE",
            f"{'est.card':>10}  {'act.card':>8}  {'ms':>8}  {'q-err':>7}  "
            f"{'src':<9}  node",
        ]
        if self.rewrites:
            lines.insert(1, f"rewritten by: {', '.join(self.rewrites)}")
        for node, depth in self.walk():
            via = f" via {node.strategy}" if node.strategy is not None else ""
            if node.mask_card is not None:
                via += f" (mask={node.mask_card})"
            if node.shard_cards is not None:
                via += f" (shards={'/'.join(str(c) for c in node.shard_cards)})"
            source = node.source if node.source is not None else "-"
            lines.append(
                f"{node.estimated:>10.1f}  {node.actual:>8}  "
                f"{node.seconds * 1e3:>8.3f}  {node.q_error:>7.2f}  "
                f"{source:<9}  "
                f"{'  ' * depth}{node.text} [{node.kind}]{via}"
            )
        lines.append(
            f"total: {len(self.result)} pattern(s) in "
            f"{self.total_seconds * 1e3:.3f} ms; mean q-error "
            f"{self.mean_q_error:.2f}, max {self.max_q_error:.2f}"
        )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.pretty()


def explain_analyze(
    expr: "Expr",
    graph: "ObjectGraph",
    cost_model: "CostModel | None" = None,
    metrics: MetricsRegistry | None = None,
    executor: Any = None,
) -> ExplainReport:
    """Evaluate ``expr`` with tracing and pair estimates with actuals.

    ``cost_model`` defaults to a fresh :class:`CostModel` over ``graph``;
    if ``metrics`` is given, every node's q-error is observed in the
    ``repro_estimate_q_error`` histogram (labelled by operator kind).
    With an ``executor`` (:class:`repro.exec.Executor`) the evaluation
    runs through the physical engine — each report node then carries the
    chosen ``strategy`` — with the sub-plan cache bypassed so every node
    truly executes (a cache hit would truncate the plan tree mid-report).
    Without one, the naive logical evaluator runs and ``strategy`` stays
    ``None``.  The report describes the tree that ran: under an executor,
    the planner's rule pass may have rewritten ``expr``, and the rules
    that fired land on ``ExplainReport.rewrites``.
    """
    from repro.optimizer.cost import CostModel

    model = cost_model if cost_model is not None else CostModel(graph)
    tracer = Tracer()
    rewrites: tuple[str, ...] = ()
    if executor is not None:
        plan = executor.plan(expr)
        expr, rewrites = plan.expr, plan.rewrites
        result = executor.run(expr, trace=tracer, use_cache=False, plan=plan)
    else:
        result = expr.evaluate(graph, tracer)
    root_span = tracer.roots[-1]

    def build(node: "Expr", span: Span) -> ExplainNode:
        children = tuple(
            build(child, child_span)
            for child, child_span in zip(node.children(), span.children, strict=True)
        )
        estimate = model.estimate(node)
        return ExplainNode(
            text=str(node),
            kind=node.kind.label,
            estimated=estimate.cardinality,
            actual=span.output_cardinality or 0,
            seconds=span.seconds,
            self_seconds=span.self_seconds,
            children=children,
            strategy=span.attributes.get("strategy"),
            source=getattr(estimate, "source", None),
            mask_card=span.attributes.get("mask_card"),
        )

    root = build(expr, root_span)
    if metrics is not None:
        histogram = metrics.histogram(
            "repro_estimate_q_error",
            "Cost-model estimate vs actual cardinality q-error per plan node",
            buckets=Q_ERROR_BUCKETS,
        )
        for node, _ in root.walk():
            histogram.observe(node.q_error, kind=node.kind)
    return ExplainReport(root, result, expr, rewrites)
