"""Scatter-gather execution of a distributed plan over a worker pool.

The coordinator rewrites the annotated query into one expression per
shard, ships them to the pool, and merges the per-shard results with a
set union at each scatter region's root — decode-at-root is preserved
because workers return fully decoded results (as compact wire blobs,
rebuilt/memoized on the coordinator; see :mod:`repro.shard.wire`).

Per-shard rewriting follows the :class:`~repro.shard.planner.DistNode`
annotation:

* a partitioned ``ClassExtent(C)`` leaf becomes ``σ(C)[shard(C)=i/n]``
  (answered by the ``shard-hash`` compact kernel inside the worker);
* graph-pure local subtrees ship verbatim — every worker holds the full
  dataset, so "broadcast" of such operands costs nothing;
* gathered local subtrees and shuffle partitions travel as
  :class:`~repro.core.expression.Literal` operands, with the operator's
  association resolved at the coordinator so shorthand still works;
* shuffle nodes materialize both children, re-partition their rows on
  the pairing class (duplicates sent wherever they can match — the
  gather's set union collapses them) and dispatch per-shard literal
  pairs.

The executor also feeds observability: ``shard.scatter`` spans with one
``shard[i]`` child per worker (worker span trees grafted underneath when
tracing), per-shard cardinalities on every :class:`DistNode`, the
``repro_shard_{tasks_total,bytes_shuffled_total,skew_ratio}`` metrics,
and a sharded ``EXPLAIN ANALYZE`` report built from the annotated tree.
"""

from __future__ import annotations

import copy
import pickle
import time
from typing import TYPE_CHECKING

from repro.core.assoc_set import AssociationSet
from repro.core.expression import (
    AssocSpec,
    Associate,
    ClassExtent,
    Difference,
    Divide,
    Expr,
    Intersect,
    Literal,
    Project,
    Select,
    Union,
    _BinaryGraphOp,
)
from repro.errors import EvaluationError
from repro.obs.explain import ExplainNode, ExplainReport
from repro.obs.metrics import Q_ERROR_BUCKETS
from repro.shard.partition import ShardFilter, shard_of
from repro.shard.planner import DistNode, DistPlan
from repro.shard.wire import decode_result

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.span import Span, Tracer

__all__ = ["ShardedExecutor"]


class ShardedExecutor:
    """Runs :class:`DistPlan`-annotated queries against a shard pool."""

    def __init__(self, graph, pool, executor, metrics=None) -> None:
        self.graph = graph
        self.pool = pool
        self.executor = executor
        self._trace: "Tracer | None" = None
        self._want_spans = False
        self._use_cache = True
        self._plan: DistPlan | None = None
        # blob -> Pattern memo for the wire format: warm gathers rebuild
        # nothing, and duplicates across shards collapse to one object.
        self._wire_memo: dict = {}
        if metrics is not None:
            self._m_tasks = metrics.counter(
                "repro_shard_tasks_total",
                "Per-shard worker queries dispatched by the sharded executor",
            )
            self._m_bytes = metrics.counter(
                "repro_shard_bytes_shuffled_total",
                "Bytes of re-partitioned operand rows shipped during shuffles",
            )
            self._m_skew = metrics.gauge(
                "repro_shard_skew_ratio",
                "Max/mean per-shard result cardinality of the last scatter",
            )
        else:
            self._m_tasks = None
            self._m_bytes = None
            self._m_skew = None

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def run(
        self,
        plan: DistPlan,
        trace: "Tracer | None" = None,
        want_spans: bool = False,
        use_cache: bool = True,
    ) -> AssociationSet:
        """Evaluate the plan's query; exact scatter-gather semantics.

        ``trace`` receives coordinator-side ``shard.scatter`` spans;
        ``want_spans`` additionally pulls each worker's span tree back
        (cache bypassed in the workers so the trees are complete).
        ``use_cache`` is forwarded both to the workers' executors and to
        the coordinator's own executor for local subtrees.
        """
        self._trace = trace
        self._want_spans = want_spans
        self._use_cache = use_cache
        self._plan = plan
        for node in plan.root.walk():
            node.shard_cards = []
            node.actual = None
            node.seconds = 0.0
        try:
            return self._value_of(plan.root)
        finally:
            self._trace = None
            self._plan = None

    def explain(self, plan: DistPlan, cost_model, metrics=None) -> ExplainReport:
        """Sharded ``EXPLAIN ANALYZE``: run traced, annotate the tree.

        Every node carries the chosen distributed strategy and, inside
        scatter regions, the per-shard actual cardinalities whose spread
        is the skew ``repro_shard_skew_ratio`` summarizes.
        """
        result = self.run(plan, want_spans=True)
        root = self._explain_node(plan.root, cost_model)
        if metrics is not None:
            histogram = metrics.histogram(
                "repro_estimate_q_error",
                "Cost-model estimate vs actual cardinality q-error per plan node",
                buckets=Q_ERROR_BUCKETS,
            )
            for node, _ in root.walk():
                histogram.observe(node.q_error, kind=node.kind)
        return ExplainReport(root, result)

    # ------------------------------------------------------------------
    # evaluation over the annotated tree
    # ------------------------------------------------------------------

    def _value_of(self, node: DistNode) -> AssociationSet:
        started = time.perf_counter()
        if node.partitioned:
            result = self._scatter(node)
        elif node.strategy == "shuffle":
            result = self._shuffle(node)
        else:
            result = self.executor.run(
                self._rebuild_local(node), use_cache=self._use_cache
            )
        node.actual = len(result)
        node.seconds = max(node.seconds, time.perf_counter() - started)
        return result

    def _rebuild_local(self, node: DistNode) -> Expr:
        """The coordinator-side expression for a local node.

        Partitioned / shuffled descendants are evaluated (recursively)
        and spliced back in as gathered Literals; untouched subtrees are
        returned as-is so plan-cache keys stay stable.
        """
        if node.partitioned or node.strategy == "shuffle":
            value = self._value_of(node)
            return self._gather_literal(node.expr, value, "gather")
        if not node.children:
            return node.expr
        rebuilt = tuple(self._rebuild_local(child) for child in node.children)
        if all(new is old.expr for new, old in zip(rebuilt, node.children)):
            return node.expr
        return self._replace_children(node.expr, rebuilt)

    def _gather_literal(self, expr: Expr, value: AssociationSet, verb: str) -> Literal:
        return Literal(
            value,
            label=f"{verb}({expr})",
            head=expr.head_class,
            tail=expr.tail_class,
        )

    def _replace_children(self, expr: Expr, children: tuple) -> Expr:
        """``expr`` with its operands swapped for rewritten ones.

        Binary graph operators get an explicit association spec resolved
        at the coordinator — a Literal operand loses the linear-shorthand
        head/tail the original operand provided.
        """
        new = copy.copy(expr)
        if isinstance(expr, _BinaryGraphOp):
            new.left, new.right = children
            if expr.spec is None:
                assoc, a_cls, b_cls = expr.resolve(self.graph)
                new.spec = AssocSpec(a_cls, b_cls, assoc.name)
        elif isinstance(expr, (Intersect, Union, Difference, Divide)):
            new.left, new.right = children
        elif isinstance(expr, (Select, Project)):
            (new.operand,) = children
        else:  # pragma: no cover - planner never distributes other nodes
            raise EvaluationError(f"cannot rewrite {expr!r} for sharded execution")
        return new

    # ------------------------------------------------------------------
    # scatter regions
    # ------------------------------------------------------------------

    def _scatter(self, node: DistNode) -> AssociationSet:
        exprs = self._shard_exprs(node)
        results = self._dispatch(node, exprs)
        return self._merge(results)

    def _shard_exprs(self, node: DistNode) -> list:
        """One expression per shard for a partitioned node."""
        shards = self._plan.shards
        expr = node.expr
        if isinstance(expr, ClassExtent):
            return [
                Select(expr, ShardFilter(expr.name, i, shards))
                for i in range(shards)
            ]
        if isinstance(expr, Select):
            operands = self._shard_exprs(node.children[0])
            return [Select(operand, expr.predicate) for operand in operands]
        if node.strategy == "co-partitioned":
            lefts = self._shard_exprs(node.children[0])
            rights = self._shard_exprs(node.children[1])
            return [
                self._replace_children(expr, pair) for pair in zip(lefts, rights)
            ]
        if node.strategy == "broadcast":
            left, right = node.children
            if left.partitioned:
                parts = self._shard_exprs(left)
                other = self._rebuild_local(right)
                return [self._replace_children(expr, (p, other)) for p in parts]
            parts = self._shard_exprs(right)
            other = self._rebuild_local(left)
            return [self._replace_children(expr, (other, p)) for p in parts]
        raise EvaluationError(  # pragma: no cover - annotation invariant
            f"node {expr!r} is partitioned but has no scatter strategy"
        )

    # ------------------------------------------------------------------
    # shuffle
    # ------------------------------------------------------------------

    def _shuffle(self, node: DistNode) -> AssociationSet:
        """Re-partition both operands on the pairing class and scatter.

        Rows are duplicated to every shard where they can find a match;
        the gather's set union collapses the duplicates, so the result
        is exactly the single-process one.
        """
        left, right = node.children
        left_value = self._value_of(left)
        right_value = self._value_of(right)
        expr = node.expr
        shards = self._plan.shards
        if isinstance(expr, Associate):
            assoc, a_cls, b_cls = expr.resolve(self.graph)
            left_parts = self._partition_by_instances(left_value, a_cls, shards)
            right_parts = self._partition_by_partners(
                right_value, b_cls, assoc, shards
            )
            spec = AssocSpec(a_cls, b_cls, assoc.name)
            shard_exprs = [
                Associate(
                    self._gather_literal(expr.left, left_parts[i], "shuffle"),
                    self._gather_literal(expr.right, right_parts[i], "shuffle"),
                    spec,
                )
                if left_parts[i] and right_parts[i]
                else None
                for i in range(shards)
            ]
        elif isinstance(expr, Intersect) and expr.classes:
            anchor = sorted(expr.classes)[0]
            left_parts = self._partition_by_instances(left_value, anchor, shards)
            right_parts = self._partition_by_instances(right_value, anchor, shards)
            shard_exprs = [
                Intersect(
                    self._gather_literal(expr.left, left_parts[i], "shuffle"),
                    self._gather_literal(expr.right, right_parts[i], "shuffle"),
                    expr.classes,
                )
                if left_parts[i] and right_parts[i]
                else None
                for i in range(shards)
            ]
        else:  # pragma: no cover - planner only shuffles Associate/Intersect
            raise EvaluationError(f"cannot shuffle {expr!r}")
        if self._m_bytes is not None:
            self._m_bytes.inc(
                sum(len(pickle.dumps(e)) for e in shard_exprs if e is not None)
            )
        results = self._dispatch(node, shard_exprs)
        return self._merge(results)

    def _partition_by_instances(
        self, value: AssociationSet, cls: str, shards: int
    ) -> list:
        """Patterns routed to the shards their ``cls`` instances hash to.

        Patterns without a ``cls`` instance cannot pair (Associate) or
        merge (explicit-W Intersect) and are dropped — exactly what the
        single-process operator does with them.
        """
        parts: list[set] = [set() for _ in range(shards)]
        for pattern, instances in value.patterns_with_class(cls):
            for iid in instances:
                parts[shard_of(iid.oid, shards)].add(pattern)
        return [AssociationSet.from_frozen(frozenset(p)) for p in parts]

    def _partition_by_partners(
        self, value: AssociationSet, cls: str, assoc, shards: int
    ) -> list:
        """β-side routing for a shuffled Associate: a pattern follows its
        ``cls`` instances' association partners, which is where the
        α-side rows it can pair with were sent."""
        partners = self.graph.partners
        parts: list[set] = [set() for _ in range(shards)]
        for pattern, instances in value.patterns_with_class(cls):
            targets = set()
            for iid in instances:
                for partner in partners(assoc, iid):
                    targets.add(shard_of(partner.oid, shards))
            for target in targets:
                parts[target].add(pattern)
        return [AssociationSet.from_frozen(frozenset(p)) for p in parts]

    # ------------------------------------------------------------------
    # dispatch / merge / observability
    # ------------------------------------------------------------------

    def _dispatch(self, node: DistNode, exprs: list) -> list:
        """Scatter ``exprs`` over the pool, recording spans and metrics."""
        trace = self._trace
        span = None
        if trace is not None:
            span = trace.begin(
                "shard.scatter",
                node.expr.kind,
                strategy=node.strategy or "scatter",
                cls=self._plan.cls,
                shards=self._plan.shards,
            )
        try:
            results = self.pool.scatter(
                exprs, want_trace=self._want_spans, use_cache=self._use_cache
            )
        except BaseException as exc:
            if span is not None:
                trace.finish(span, error=type(exc).__name__)
            raise
        memo = self._wire_memo
        results = [
            (decode_result(entry[0], memo), entry[1], entry[2])
            if entry is not None
            else None
            for entry in results
        ]
        cards = [len(r[0]) if r is not None else 0 for r in results]
        node.shard_cards = cards
        if self._m_tasks is not None:
            self._m_tasks.inc(sum(1 for e in exprs if e is not None))
        if self._m_skew is not None:
            total = sum(cards)
            mean = total / len(cards) if cards else 0.0
            self._m_skew.set(max(cards) / mean if mean else 1.0)
        for index, entry in enumerate(results):
            if entry is None:
                continue
            if span is not None:
                child = trace.begin(
                    f"shard[{index}]", node.expr.kind, worker_seconds=entry[1]
                )
                trace.finish(child, output=cards[index])
                if entry[2] is not None:
                    child.children.append(entry[2])
            # A worker whose rule pass rewrote its expression ran another
            # tree (the root span renders differently): its spans cannot
            # annotate this one.
            if (
                entry[2] is not None
                and node.partitioned
                and entry[2].name == str(exprs[index])
            ):
                self._attach_spans(node, entry[2])
        if span is not None:
            trace.finish(span, output=sum(cards))
        return results

    def _merge(self, results: list) -> AssociationSet:
        """Gather: set union of the per-shard results at the region root."""
        sets = [entry[0] for entry in results if entry is not None]
        if not sets:
            return AssociationSet.from_frozen(frozenset())
        return AssociationSet.from_frozen(frozenset().union(*sets))

    def _attach_spans(self, node: DistNode, span: "Span") -> None:
        """Harvest per-shard actuals from one worker's span tree.

        The per-shard expression tree mirrors the region's annotated
        subtree (extent leaves gain a σ wrapper, local operands collapse
        to embedded subtrees or Literals), so a guarded parallel walk
        recovers each interior node's per-shard cardinality.
        """
        node.seconds = max(node.seconds, span.seconds)
        # Shape guard: a partitioned extent's span is its σ wrapper and a
        # gathered Literal's span is a leaf — child counts disagree in
        # both cases, stopping the walk exactly where shapes diverge.
        if len(span.children) == len(node.children):
            for child_node, child_span in zip(node.children, span.children):
                self._attach_child(child_node, child_span)

    def _attach_child(self, node: DistNode, span: "Span") -> None:
        node.shard_cards.append(span.output_cardinality or 0)
        self._attach_spans(node, span)

    # ------------------------------------------------------------------
    # EXPLAIN ANALYZE
    # ------------------------------------------------------------------

    def _explain_node(self, node: DistNode, model) -> ExplainNode:
        children = tuple(
            self._explain_node(child, model) for child in node.children
        )
        try:
            estimate = model.estimate(node.expr)
            estimated = estimate.cardinality
            source = getattr(estimate, "source", None)
        except Exception:  # pragma: no cover - exotic literal estimates
            estimated, source = 0.0, None
        cards = tuple(node.shard_cards) if node.shard_cards else None
        if node.actual is not None:
            actual = node.actual
        elif cards is not None:
            # interior scatter-region node: the coordinator never merges
            # it, so the per-shard total is the observable actual
            actual = sum(cards)
        else:
            actual = 0
        strategy = node.strategy
        if strategy is None and node.partitioned:
            strategy = "partitioned"
        child_seconds = sum(c.seconds for c in node.children)
        return ExplainNode(
            text=str(node.expr),
            kind=node.expr.kind.label,
            estimated=estimated,
            actual=actual,
            seconds=node.seconds,
            self_seconds=max(0.0, node.seconds - child_seconds),
            children=children,
            strategy=strategy,
            source=source,
            shard_cards=cards,
        )
