"""Feedback-driven adaptive re-optimization through ``Database.query``."""

import pytest

from repro.core.expression import ClassExtent, Select, Associate
from repro.core.predicates import ClassValues, Comparison, Const
from repro.datagen import skewed_dataset
from repro.engine.database import Database


@pytest.fixture()
def dataset():
    return skewed_dataset(extent_size=120, seed=13)


def rare_chain(dataset):
    """σ(L)[L = rare] * M * R — the query uniformity mis-plans."""
    selected = Select(
        ClassExtent("L"),
        Comparison(ClassValues("L"), "=", Const(dataset.rare_value)),
    )
    return Associate(Associate(selected, ClassExtent("M")), ClassExtent("R"))


def test_misestimated_query_replans_and_converges(dataset):
    """The acceptance loop: run 1 mis-plans, records reality, re-plans;
    run 2 picks the cheaper join order and returns the same patterns."""
    db = Database(dataset.schema, dataset.graph)  # not analyzed: uniform model
    db.replan_threshold = 2.0
    expr = rare_chain(dataset)

    first = db.query(expr, optimize=True)
    assert db.metrics.counter("repro_replan_total").value() == 1
    assert len(db.stats.feedback) > 0  # actuals recorded for the re-plan

    second = db.query(expr, optimize=True)
    assert second.plan_expr != first.plan_expr
    # the re-plan starts from the selective filter instead of the wide pair
    assert str(second.plan_expr).startswith("((σ")
    assert second.set == first.set == expr.evaluate(dataset.graph)


def test_query_q_error_histogram_observed(dataset):
    db = Database(dataset.schema, dataset.graph)
    db.query(rare_chain(dataset), optimize=True)
    histogram = db.metrics.histogram("repro_plan_q_error")
    assert sum(series.count for _, series in histogram.samples()) == 1


def test_within_threshold_plan_is_remembered(dataset):
    db = Database(dataset.schema, dataset.graph)
    db.analyze()  # histogram estimates: the first plan is already right
    expr = rare_chain(dataset)
    first = db.query(expr, optimize=True)
    second = db.query(expr, optimize=True)
    assert first.plan_expr == second.plan_expr
    assert db.metrics.counter("repro_replan_total").value() == 0


def test_replan_threshold_override(dataset):
    db = Database(dataset.schema, dataset.graph)
    db.replan_threshold = 1e9
    db.query(rare_chain(dataset), optimize=True)
    assert db.metrics.counter("repro_replan_total").value() == 0


def test_stats_refresh_invalidates_remembered_plans(dataset):
    db = Database(dataset.schema, dataset.graph)
    db.replan_threshold = 1e9
    expr = rare_chain(dataset)
    first = db.query(expr, optimize=True)
    # ANALYZE bumps the stats version; the remembered choice was ranked
    # with numbers now known to be wrong, so the next run re-plans and the
    # histogram flips it to the selective-first order immediately.
    db.analyze()
    second = db.query(expr, optimize=True)
    assert first.plan_expr != second.plan_expr
    assert second.set == first.set


def test_stats_counters_flow_through_shared_registry(dataset):
    """`repro serve` renders Database.metrics: the catalog's gauges and
    the replan counter must be visible in the same Prometheus frame."""
    from repro.obs import metrics_to_prometheus

    db = Database(dataset.schema, dataset.graph)
    db.analyze()
    db.replan_threshold = 2.0
    db.query(rare_chain(dataset), optimize=True)
    frame = metrics_to_prometheus(db.metrics)
    assert "repro_stats_version 1" in frame
    assert "repro_stats_refresh_total" in frame
    assert "repro_replan_total" in frame
    assert "repro_plan_q_error" in frame
