"""Span-tree tracing: structure, timing, and the EvalTrace adapter."""

import pytest

from repro.core.expression import EvalTrace, ref
from repro.datasets import university
from repro.obs import OperatorKind, Span, Tracer


@pytest.fixture(scope="module")
def ds():
    return university()


class TestTracerBasics:
    def test_begin_finish_produces_root(self):
        tracer = Tracer()
        span = tracer.begin("work", OperatorKind.OTHER)
        tracer.finish(span, output=3)
        assert tracer.roots == [span]
        assert span.output_cardinality == 3
        assert span.end >= span.start
        assert tracer.open_spans == 0

    def test_nesting_follows_begin_order(self):
        tracer = Tracer()
        outer = tracer.begin("outer", OperatorKind.OTHER)
        inner = tracer.begin("inner", OperatorKind.OTHER)
        tracer.finish(inner)
        tracer.finish(outer)
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        # completion order is post-order
        assert tracer.completed == [inner, outer]

    def test_context_manager_closes_on_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom", OperatorKind.OTHER):
                raise ValueError("x")
        assert tracer.open_spans == 0
        assert tracer.roots[0].attributes["error"] == "ValueError"

    def test_finish_sized_output(self):
        tracer = Tracer()
        span = tracer.begin("s", OperatorKind.OTHER)
        tracer.finish(span, output=["a", "b"])
        assert span.output_cardinality == 2


class TestSpanTreeMirrorsExpression:
    def test_structure_matches_expression_nesting(self, ds):
        expr = (ref("TA") * ref("Grad")) - ref("Grad")
        tracer = Tracer()
        expr.evaluate(ds.graph, tracer)
        assert len(tracer.roots) == 1
        root = tracer.roots[0]

        def shape(span):
            return (span.kind, tuple(shape(c) for c in span.children))

        def expr_shape(node):
            return (node.kind, tuple(expr_shape(c) for c in node.children()))

        assert shape(root) == expr_shape(expr)
        assert root.kind is OperatorKind.DIFFERENCE
        # root (depth 0) → Associate (1) → extents (2)
        assert root.max_depth == 2

    def test_input_cardinalities_are_child_outputs(self, ds):
        expr = ref("TA") * ref("Grad")
        tracer = Tracer()
        expr.evaluate(ds.graph, tracer)
        root = tracer.roots[0]
        assert list(root.input_cardinalities) == [
            child.output_cardinality for child in root.children
        ]
        assert list(root.input_cardinalities) == [
            len(ds.graph.extent("TA")),
            len(ds.graph.extent("Grad")),
        ]

    def test_self_seconds_excludes_children(self, ds):
        expr = ref("TA") * ref("Grad")
        tracer = Tracer()
        expr.evaluate(ds.graph, tracer)
        root = tracer.roots[0]
        child_total = sum(c.seconds for c in root.children)
        assert root.self_seconds == pytest.approx(root.seconds - child_total)
        assert root.seconds >= child_total

    def test_walk_is_preorder_with_depths(self, ds):
        expr = ref("TA") * ref("Grad")
        tracer = Tracer()
        expr.evaluate(ds.graph, tracer)
        walked = list(tracer.roots[0].walk())
        assert [depth for _, depth in walked] == [0, 1, 1]
        assert walked[0][0] is tracer.roots[0]

    def test_error_during_evaluate_closes_spans(self, ds):
        from repro.core.expression import Select
        from repro.core.predicates import Callback

        def boom(pattern, graph):
            raise RuntimeError("predicate failure")

        expr = Select(ref("TA"), Callback(boom, "boom"))
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            expr.evaluate(ds.graph, tracer)
        assert tracer.open_spans == 0
        assert tracer.roots[0].attributes["error"] == "RuntimeError"


class TestEvalTraceAdapter:
    def test_steps_match_span_completion_order(self, ds):
        expr = ref("TA") * ref("Grad")
        trace = EvalTrace()
        result = expr.evaluate(ds.graph, trace)
        assert isinstance(trace, Tracer)
        assert [name for name, _, _ in trace.steps] == ["TA", "Grad", "(TA * Grad)"]
        assert trace.steps[-1][1] == len(result)
        assert trace.total_patterns == sum(count for _, count, _ in trace.steps)
        assert trace.total_seconds >= 0

    def test_pretty_has_header_and_rows(self, ds):
        trace = EvalTrace()
        (ref("TA") * ref("Grad")).evaluate(ds.graph, trace)
        text = trace.pretty()
        assert "patterns" in text
        assert "(TA * Grad)" in text


class TestOperatorKindEnum:
    def test_span_kind_is_operator_kind(self, ds):
        tracer = Tracer()
        ref("TA").evaluate(ds.graph, tracer)
        assert isinstance(tracer.roots[0].kind, OperatorKind)
        assert tracer.roots[0].kind.label == "extent"

    def test_span_dataclass_defaults(self):
        span = Span("x", OperatorKind.OTHER, start=1.0, end=3.0)
        assert span.seconds == 2.0
        assert span.children == []
        assert span.attributes == {}
