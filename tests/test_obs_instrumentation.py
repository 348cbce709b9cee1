"""Engine instrumentation: metrics recorded by database, graph, optimizer, rules."""

import pytest

from repro.core.expression import ref
from repro.datasets import university
from repro.engine.database import Database
from repro.optimizer import Optimizer
from repro.rules import RuleEngine
from repro.rules.rule import Rule


@pytest.fixture()
def db():
    return Database.from_dataset(university())


class TestDatabaseMetrics:
    def test_queries_counted_and_timed(self, db):
        db.query("TA * Grad")
        db.query(ref("TA"))
        assert db.metrics.counter("repro_queries_total").value() == 2
        histogram = db.metrics.histogram("repro_query_seconds")
        assert sum(series.count for _, series in histogram.samples()) == 2

    def test_query_seconds_labelled_by_strategy(self, db):
        # TA * Grad and a bare extent are kernel nodes; a Project with
        # path links has no kernel and plans an object island.
        assert db.query("TA * Grad").strategy == "compact-kernel"
        assert db.query(ref("TA")).strategy == "compact-kernel"
        linked = "pi(TA * Grad)[TA, Grad; TA:Grad]"
        assert db.query(linked).strategy == "object-island"
        assert db.query("TA * Grad", explain=True).strategy == "explain"
        histogram = db.metrics.histogram("repro_query_seconds")
        strategies = {labels["strategy"] for labels, _ in histogram.samples()}
        assert strategies == {"compact-kernel", "object-island", "explain"}
        assert histogram.count(strategy="compact-kernel") == 2

    def test_mutation_events_by_kind(self, db):
        created = db.insert("Person")
        db.delete(created["Person"])
        events = db.metrics.counter("repro_mutation_events_total")
        assert events.value(kind="insert") == 1
        assert events.value(kind="delete") == 1
        assert events.value(kind="link") == 0

    def test_restore_reattaches_gauges(self, db):
        snapshot = db.snapshot()
        db.insert("Person")
        db.restore(snapshot)
        gauge = db.metrics.gauge("repro_instances")
        assert gauge.value() == sum(1 for _ in db.graph.instances())


class TestGraphMetrics:
    def test_instance_and_edge_gauges_track_live_counts(self, db):
        gauge_i = db.metrics.gauge("repro_instances")
        gauge_e = db.metrics.gauge("repro_edges")
        assert gauge_i.value() == sum(1 for _ in db.graph.instances())
        base_edges = gauge_e.value()
        created = db.insert(["Person", "Student"])
        assert gauge_i.value() == sum(1 for _ in db.graph.instances())
        db.delete(created["Student"])
        db.delete(created["Person"])
        assert gauge_e.value() == base_edges

    def test_extent_scans_by_class(self, db):
        scans = db.metrics.counter("repro_extent_scans_total")
        before = scans.value(cls="TA")
        db.query("TA * Grad")
        assert scans.value(cls="TA") == before + 1
        assert scans.value(cls="Grad") >= 1


class TestOptimizerMetrics:
    def test_plans_and_rewrites_counted(self, db):
        optimizer = Optimizer(db.graph, metrics=db.metrics)
        optimizer.optimize(db.compile("TA * (Grad * Student)"))
        assert db.metrics.counter("repro_plans_considered_total").total() > 0
        assert db.metrics.counter("repro_rewrites_applied_total").total() > 0
        assert db.metrics.histogram("repro_planning_seconds").count() == 1

    def test_optimizer_without_metrics_still_works(self, db):
        best = Optimizer(db.graph).optimize(db.compile("TA * Grad"))
        assert best.estimate.cost > 0


class TestRuleEngineMetrics:
    def test_firings_counted_by_rule(self, db):
        engine = RuleEngine(db)
        seen = []
        engine.register(
            Rule.make(
                name="on-insert",
                condition=ref("Person"),
                action=lambda database, event, result: seen.append(event.kind),
                on=("insert",),
            )
        )
        db.insert("Person")
        assert seen == ["insert"]
        firings = db.metrics.counter("repro_rule_firings_total")
        assert firings.value(rule="on-insert") == 1
        assert db.metrics.histogram("repro_rule_trigger_seconds").count() == 1
