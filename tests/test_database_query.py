"""The Database.query facade and QueryResult."""

import warnings

import pytest

from repro.core.assoc_set import AssociationSet
from repro.core.expression import ref
from repro.datasets import university
from repro.engine import Database, QueryResult
from repro.errors import EvaluationError
from repro.obs.span import Tracer

Q1 = "pi(TA * Grad * Student * Person * SS#)[SS#]"


@pytest.fixture()
def db():
    return Database.from_dataset(university())


class TestQuery:
    def test_accepts_expr_and_oql(self, db):
        from_expr = db.query(ref("TA") * ref("Grad"))
        from_text = db.query("TA * Grad")
        assert isinstance(from_expr, QueryResult)
        assert from_expr.set == from_text.set

    def test_matches_reference_evaluator(self, db):
        expr = db.compile(Q1)
        assert db.query(expr).set == expr.evaluate(db.graph)

    def test_rejects_non_expression(self, db):
        with pytest.raises(EvaluationError):
            db.query(42)

    def test_trace_records_span_tree(self, db):
        trace = Tracer()
        db.query("TA * Grad", trace=trace)
        assert trace.roots and trace.roots[-1].name == "(TA * Grad)"
        assert len(trace.roots[-1].children) == 2

    def test_counts_queries_once(self, db):
        db.query("TA * Grad")
        db.query(ref("TA"), explain=True)
        assert db.metrics.counter("repro_queries_total").value() == 2

    def test_explain_attaches_report(self, db):
        result = db.query(Q1, explain=True)
        assert result.report is not None
        assert "EXPLAIN ANALYZE" in str(result.report)
        assert result.set == result.report.result

    def test_uncached_agrees_with_reference(self, db):
        expr = db.compile("TA * Grad + Section ! Room#")
        reference = expr.evaluate(db.graph)
        assert db.query(expr, use_cache=False).set == reference

    def test_use_cache_false_bypasses_cache(self, db):
        db.query("TA * Grad", use_cache=False)
        assert len(db.executor.cache) == 0
        db.query("TA * Grad")
        assert len(db.executor.cache) > 0


class TestQueryResult:
    def test_set_iteration_and_len(self, db):
        result = db.query("TA * Grad")
        assert isinstance(result.set, AssociationSet)
        assert len(result) == len(result.set)
        assert set(iter(result)) == result.set.patterns
        for pattern in result:
            assert pattern in result

    def test_instances_accessor(self, db):
        result = db.query("TA * Grad")
        tas = result.instances("TA")
        assert tas and all(i.cls == "TA" for i in tas)
        assert result.instances("Course") == frozenset()

    def test_values_accessor_answers_query1(self, db):
        numbers = db.query(Q1).values("SS#")
        assert numbers == {db.graph.value(i) for i in db.query(Q1).instances("SS#")}
        assert numbers  # Figure 1's population has TAs

    def test_equality_with_sets_and_results(self, db):
        one, two = db.query("TA * Grad"), db.query("TA * Grad")
        assert one == two
        assert one == two.set
        assert one != db.query("Section ! Room#")

    def test_str_is_informative(self, db):
        assert "pattern(s)" in str(db.query("TA * Grad"))


class TestDeprecatedShims:
    """The entry points that replaced the removed shims: verb-specific
    errors and bulk operations that raise no deprecation warning."""

    def test_explain_analyze_raises_verb_specific_error(self, db):
        with pytest.raises(EvaluationError, match="explain"):
            db.explain_analyze(42)

    def test_bulk_operations_are_warning_free(self, db):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            db.update_where("SS#", "SS#", lambda value: value)
            db.delete_where("TA * Grad", "TA")


class TestRestore:
    def test_restore_rebuilds_executor(self, db):
        snapshot = db.snapshot()
        reference = db.query("TA * Grad").set
        old_executor = db.executor
        for ta in list(db.query("TA * Grad").instances("TA")):
            db.delete(ta)
        assert len(db.query("TA * Grad")) == 0
        db.restore(snapshot)
        assert db.executor is not old_executor
        assert db.query("TA * Grad").set == reference
