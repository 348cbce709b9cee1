"""Estimate-quality properties of the statistics catalog.

Three guarantees back the cost model's estimates:

* on uniform data, histogram equality estimates stay within a bounded
  q-error of the truth (equi-depth buckets bound per-bucket error);
* on skewed datagen data, histogram selectivities strictly beat the fixed
  ``SELECT_SELECTIVITY`` guess for both the hot and the rare value;
* a targeted ANALYZE replaces exactly the statistics of the refreshed
  classes and their associations — untouched ones keep theirs.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.expression import ClassExtent, Select
from repro.core.predicates import ClassValues, Comparison, Const
from repro.datagen import skewed_dataset
from repro.engine.database import Database
from repro.optimizer.cost import SELECT_SELECTIVITY, CostModel
from repro.optimizer.stats import EquiDepthHistogram

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def q_error(estimated: float, actual: float) -> float:
    estimated = max(estimated, 1e-9)
    actual = max(actual, 1e-9)
    return max(estimated, actual) / min(estimated, actual)


@given(
    st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=400),
    st.integers(min_value=0, max_value=400),
)
@RELAXED
def test_histogram_equality_q_error_bounded(values, probe):
    """Equality estimates stay within one bucket's worth of the truth.

    A mixed bucket spreads its count over its distinct values, so the
    estimate can be off by at most the bucket's count; with ceil(n/bins)
    target depth (runs never split) that bounds absolute error by roughly
    2·n/bins, i.e. a q-error factor of ~2·depth against any value that
    actually occurs.
    """
    hist = EquiDepthHistogram.build(values)
    actual = values.count(probe)
    estimated = hist.selectivity_eq(probe) * len(values)
    depth = max(b.count for b in hist.bins)
    if actual == 0:
        # absent values may only be *over*estimated, and by < one bucket
        assert estimated <= depth
    else:
        assert q_error(estimated, actual) <= 2 * depth


@given(
    st.lists(st.integers(min_value=0, max_value=20), min_size=8, max_size=400),
)
@RELAXED
def test_histogram_never_underestimates_a_heavy_hitter_badly(values):
    """Any value filling ≥ 2 buckets' worth of the data is estimated
    within 2x (its runs occupy whole exact buckets plus edge buckets)."""
    hist = EquiDepthHistogram.build(values)
    depth = max(b.count for b in hist.bins)
    for probe in set(values):
        actual = values.count(probe)
        if actual < 2 * depth:
            continue
        estimated = hist.selectivity_eq(probe) * len(values)
        assert q_error(estimated, actual) <= 2.0


@given(
    st.integers(min_value=60, max_value=200),
    st.integers(min_value=0, max_value=2**31),
)
@RELAXED
def test_histogram_beats_fixed_selectivity_on_skew(extent, seed):
    """For hot and rare equality selects over skewed datagen data, the
    histogram's q-error is strictly below the fixed-0.33 guess's."""
    dataset = skewed_dataset(extent_size=extent, seed=seed)
    db = Database(dataset.schema, dataset.graph)
    db.analyze()
    uniform = CostModel(db.graph)
    stats = CostModel(db.graph, stats=db.stats)
    for value in (dataset.hot_value, dataset.rare_value):
        expr = Select(
            ClassExtent("L"), Comparison(ClassValues("L"), "=", Const(value))
        )
        actual = len(expr.evaluate(db.graph))
        fixed_q = q_error(SELECT_SELECTIVITY * extent, actual)
        histogram_q = q_error(stats.estimate(expr).cardinality, actual)
        assert uniform.estimate(expr).cardinality == SELECT_SELECTIVITY * extent
        assert histogram_q < fixed_q


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=10, deadline=None)
def test_targeted_analyze_keeps_untouched_stats(seed):
    """Targeted ANALYZE rebuilds the refreshed classes' statistics and
    bumps the version once; every other class and association keeps the
    very same statistics objects."""
    dataset = skewed_dataset(extent_size=60, seed=seed)
    db = Database(dataset.schema, dataset.graph)
    db.analyze()
    stats = db.stats
    classes = {c: stats.class_stats(c) for c in db.schema.class_names}
    assocs = {a.key: stats.association_stats(a.key) for a in db.schema.associations}
    version = stats.version

    stats.analyze(classes=["L"])

    assert stats.version == version + 1
    assert stats.class_stats("L") is not classes["L"]
    for cls, before in classes.items():
        if cls != "L":
            assert stats.class_stats(cls) is before, cls
    for assoc in db.schema.associations:
        refreshed = "L" in (assoc.left, assoc.right)
        assert (stats.association_stats(assoc.key) is assocs[assoc.key]) != refreshed
