"""EXPLAIN ANALYZE: estimated vs actual cardinalities on real plans."""

import pytest

from repro.core.expression import ref
from repro.datasets import university
from repro.engine.database import Database
from repro.obs import OperatorKind, explain_analyze


@pytest.fixture()
def db():
    return Database.from_dataset(university())


class TestExplainAnalyze:
    def test_tree_mirrors_expression(self, db):
        expr = db.compile("pi(TA * Grad)[TA]")
        report = db.explain_analyze(expr)
        assert report.root.kind == OperatorKind.PROJECT.label
        kinds = [node.kind for node, _ in report.walk()]
        assert kinds == [
            OperatorKind.PROJECT.label,
            OperatorKind.ASSOCIATE.label,
            OperatorKind.EXTENT.label,
            OperatorKind.EXTENT.label,
        ]

    def test_actuals_are_true_cardinalities(self, db):
        report = db.explain_analyze("TA * Grad")
        assert report.root.actual == len(report.result)
        extents = {node.text: node.actual for node, _ in report.walk() if not node.children}
        assert extents == {
            "TA": len(db.graph.extent("TA")),
            "Grad": len(db.graph.extent("Grad")),
        }

    def test_estimates_come_from_cost_model(self, db):
        from repro.optimizer.cost import CostModel

        expr = db.compile("TA * Grad")
        report = db.explain_analyze(expr)
        assert report.root.estimated == pytest.approx(
            CostModel(db.graph).estimate(expr).cardinality
        )

    def test_q_error_at_least_one(self, db):
        report = db.explain_analyze("pi(TA * Grad * Student * Person * SS#)[SS#]")
        for node, _ in report.walk():
            assert node.q_error >= 1.0
        assert report.max_q_error >= report.mean_q_error >= 1.0

    def test_pretty_renders_columns(self, db):
        text = str(db.explain_analyze("TA * Grad"))
        assert "EXPLAIN ANALYZE" in text
        assert "est.card" in text and "act.card" in text
        assert "q-err" in text
        assert "total:" in text

    def test_timings_accumulate(self, db):
        report = db.explain_analyze("TA * Grad")
        assert report.total_seconds > 0
        for node, _ in report.walk():
            assert node.seconds >= node.self_seconds >= 0

    def test_q_error_histogram_populated(self, db):
        assert "repro_estimate_q_error" not in db.metrics
        report = db.explain_analyze("TA * Grad")
        histogram = db.metrics.get("repro_estimate_q_error")
        assert histogram is not None
        node_count = sum(1 for _ in report.walk())
        labelled = sum(series.count for _, series in histogram.samples())
        assert labelled == node_count

    def test_function_form_without_database(self, db):
        expr = ref("TA") * ref("Grad")
        report = explain_analyze(expr, db.graph)
        assert report.root.actual == len(report.result)
        assert report.result == expr.evaluate(db.graph)

    def test_counts_as_a_query(self, db):
        before = db.metrics.counter("repro_queries_total").value()
        db.explain_analyze("TA * Grad")
        assert db.metrics.counter("repro_queries_total").value() == before + 1

    def test_rejects_non_expression(self, db):
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError):
            db.explain_analyze(42)


class TestExplainRewrittenPlans:
    """EXPLAIN reports the tree the planner's rule pass actually ran."""

    @pytest.fixture()
    def chain_db(self):
        from repro.datagen import valued_chain_dataset

        return Database.from_dataset(
            valued_chain_dataset(n_classes=3, extent_size=30, density=0.1, seed=11)
        )

    def test_report_follows_the_rewritten_tree(self, chain_db):
        result = chain_db.query("pi(V0*V1*V2)[V0]", explain=True)
        report = result.report
        text = report.pretty()
        assert "rewritten by: project-pushdown" in text
        assert "Π((V1 * V2))[V1] [A-Project]" in text
        assert report.rewrites == ("project-pushdown",)
        assert result.plan_expr is report.expr
        # Pre-order over the plan's expression pairs node for node with
        # the report; each actual is that subtree's true cardinality.
        nodes = [node for node, _ in report.walk()]
        subtrees = list(_preorder(report.expr))
        assert [node.text for node in nodes] == [str(e) for e in subtrees]
        for node, subtree in zip(nodes, subtrees):
            assert node.actual == len(subtree.evaluate(chain_db.graph)), node.text
        assert report.result == chain_db.compile("pi(V0*V1*V2)[V0]").evaluate(
            chain_db.graph
        )

    def test_actuals_match_the_spans_that_ran(self, chain_db):
        from repro.obs.span import Tracer

        expr = chain_db.compile("sigma(V0*V1*V2)[V2 = 999983]")
        report = chain_db.explain_analyze(expr)
        tracer = Tracer()
        chain_db.executor.run(expr, trace=tracer, use_cache=False)
        spans = list(_span_preorder(tracer.roots[-1]))
        nodes = [node for node, _ in report.walk()]
        assert [(n.text, n.actual) for n in nodes] == [
            (s.name, s.output_cardinality) for s in spans
        ]

    def test_unrewritten_report_has_no_rewrite_line(self, db):
        report = db.explain_analyze("pi(TA * Grad)[TA]")
        assert report.rewrites == ()
        assert "rewritten by" not in report.pretty()


def _preorder(expr):
    yield expr
    for child in expr.children():
        yield from _preorder(child)


def _span_preorder(span):
    yield span
    for child in span.children:
        yield from _span_preorder(child)
