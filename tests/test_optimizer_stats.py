"""Statistics catalog: histograms, fan-outs, incremental upkeep."""

import pytest

from repro.core.expression import ClassExtent, Difference, Divide, Select
from repro.core.predicates import ClassValues, Comparison, Const
from repro.datagen import skewed_dataset
from repro.engine.database import Database
from repro.optimizer.cost import CostModel
from repro.optimizer.stats import EquiDepthHistogram, StatisticsCatalog


@pytest.fixture(scope="module")
def skewed():
    return skewed_dataset(extent_size=120, seed=13)


@pytest.fixture()
def analyzed_db(skewed):
    db = Database(skewed.schema, skewed.graph)
    db.analyze()
    return db


class TestEquiDepthHistogram:
    def test_uniform_equality_selectivity(self):
        hist = EquiDepthHistogram.build(list(range(160)))
        assert hist.total == 160
        for value in (0, 40, 159):
            sel = hist.selectivity_eq(value)
            # distinct values: true selectivity 1/160; estimate within a
            # bucket's resolution of it
            assert 0 < sel <= 1 / 10

    def test_heavy_hitter_is_exact(self):
        # 65% one value: the run occupies whole lo == hi buckets, so its
        # equality selectivity is exact — the equi-depth skew property.
        values = [7] * 130 + list(range(1000, 1070))
        hist = EquiDepthHistogram.build(values)
        assert hist.selectivity_eq(7) == pytest.approx(130 / 200)

    def test_range_selectivity(self):
        hist = EquiDepthHistogram.build(list(range(100)))
        assert hist.selectivity_cmp("<", 50) == pytest.approx(0.5, abs=0.1)
        assert hist.selectivity_cmp(">=", 50) == pytest.approx(0.5, abs=0.1)
        assert hist.selectivity_cmp("<", -1) == 0.0
        assert hist.selectivity_cmp(">", 1000) == 0.0

    def test_incomparable_values_fall_back(self):
        assert EquiDepthHistogram.build([1, "a", None, 3.5]) is None
        hist = EquiDepthHistogram.build(list(range(10)))
        assert hist.selectivity_eq("not-a-number") is None

    def test_empty(self):
        hist = EquiDepthHistogram.build([])
        assert hist.total == 0
        assert hist.selectivity_eq(1) == 0.0


class TestStatisticsCatalog:
    def test_dormant_until_analyze(self, skewed):
        catalog = StatisticsCatalog(skewed.graph)
        assert not catalog.analyzed
        assert "not analyzed" in catalog.summary()
        assert catalog.histogram("L") is None

    def test_analyze_measures_classes_and_fanouts(self, skewed):
        catalog = StatisticsCatalog(skewed.graph)
        assert catalog.analyze() == 1
        stats = catalog.class_stats("L")
        assert stats.count == skewed.extent_size
        assert stats.histogram is not None
        # M is an entity class: no values, no histogram
        assert catalog.class_stats("M").histogram is None
        # generator wiring: 6 L-partners and 20 R-partners per M instance
        assert catalog.fanout_summary("M", "L").mean == pytest.approx(6.0)
        assert catalog.fanout_summary("M", "R").mean == pytest.approx(20.0)
        assert catalog.fanout_summary("M", "R").complement_mean == pytest.approx(
            skewed.extent_size - 20.0
        )
        assert "L" in catalog.summary()

    def test_histogram_separates_hot_from_rare(self, skewed):
        catalog = StatisticsCatalog(skewed.graph)
        catalog.analyze()
        hist = catalog.histogram("L")
        hot = hist.selectivity_eq(skewed.hot_value)
        rare = hist.selectivity_eq(skewed.rare_value)
        assert hot == pytest.approx(0.65, abs=0.05)
        assert rare < hot / 10

    def test_sampled_analyze(self, skewed):
        catalog = StatisticsCatalog(skewed.graph)
        catalog.analyze(sample=40)
        stats = catalog.class_stats("L")
        assert stats.sampled
        assert stats.count == skewed.extent_size  # counts stay exact
        assert stats.histogram.total == 40

    def test_targeted_analyze_keeps_other_classes(self, skewed):
        catalog = StatisticsCatalog(skewed.graph)
        catalog.analyze()
        before_a = catalog.class_stats("A")
        refreshed = []
        catalog.subscribe(refreshed.append)
        assert catalog.analyze(classes=["L"]) == 2
        assert refreshed == [frozenset({"L"})]
        assert catalog.class_stats("A") is before_a

    def test_match_probability_uniformish(self, skewed):
        catalog = StatisticsCatalog(skewed.graph)
        assert catalog.match_probability("M") is None
        catalog.analyze()
        p = catalog.match_probability("M")
        # every M participates with similar degree: close to 1/|extent|
        assert p == pytest.approx(1 / skewed.extent_size, rel=0.5)

    def test_mutation_events_auto_refresh(self):
        dataset = skewed_dataset(extent_size=20, seed=13)
        db = Database(dataset.schema, dataset.graph)
        db.analyze()
        catalog = db.stats
        version = catalog.version
        # threshold = max(min_stale_events, 0.25 * 20) = 8 events
        for i in range(catalog.min_stale_events):
            db.insert_value("L", 5000 + i)
        assert catalog.version > version
        assert catalog.class_stats("L").count == 20 + catalog.min_stale_events

    def test_link_events_refresh_association_fanouts(self):
        """Fan-outs refresh on their own counter even when both end
        classes' columns are materialized, so class refreshes run as
        column-only rescans that skip the association."""
        from repro.datagen import valued_chain_dataset

        # The served benchmark's dataset (benchmarks/e2e/loadgen.py).
        dataset = valued_chain_dataset(
            n_classes=4, extent_size=300, density=0.02, seed=11
        )
        db = Database.from_dataset(dataset)
        db.query("sigma(V0)[V0 > 25] * V1")
        db.query("sigma(V1)[V1 > 25]")
        assoc = db.schema.resolve("V0", "V1")
        linked = set(db.graph.edges(assoc))
        analyzed = db.stats.association_stats(assoc.key).edges
        threshold = max(
            db.stats.min_stale_events, int(db.stats.stale_fraction * analyzed)
        )
        free = (
            (a, b)
            for a in sorted(db.graph.extent("V0"))
            for b in sorted(db.graph.extent("V1"))
            if (a, b) not in linked
        )
        for _ in range(threshold):
            db.link(*next(free))
        stats = db.stats.association_stats(assoc.key)
        assert stats.edges == db.graph.edge_count(assoc) == analyzed + threshold
        refreshes = db.metrics.counter("repro_stats_refresh_total")
        assert refreshes.value(reason="auto-assoc") == 1

    def test_stats_counters_flow_through_shared_registry(self, skewed):
        """`repro serve` renders Database.metrics: the catalog's gauge and
        counters must be visible in the same Prometheus frame."""
        from repro.obs import metrics_to_prometheus

        db = Database(skewed.schema, skewed.graph)
        db.analyze()
        frame = metrics_to_prometheus(db.metrics)
        assert "repro_stats_version 1" in frame
        assert "repro_stats_refresh_total" in frame

    def test_out_of_band_rebuild(self, skewed):
        catalog = StatisticsCatalog(skewed.graph)
        catalog.analyze()
        version = catalog.version
        catalog.on_out_of_band()
        assert catalog.version == version + 1

    def test_refresh_metrics(self, skewed):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        catalog = StatisticsCatalog(skewed.graph, metrics)
        catalog.analyze()
        catalog.analyze(classes=["L"])
        counter = metrics.counter("repro_stats_refresh_total")
        assert counter.value(reason="analyze") == 2
        assert metrics.gauge("repro_stats_version").value() == 2


class TestCostModelWithStats:
    def rare_select(self, dataset):
        return Select(
            ClassExtent("L"),
            Comparison(ClassValues("L"), "=", Const(dataset.rare_value)),
        )

    def test_source_progression(self, skewed):
        catalog = StatisticsCatalog(skewed.graph)
        model = CostModel(skewed.graph, stats=catalog)
        expr = self.rare_select(skewed)
        assert model.estimate(ClassExtent("L")).source == "exact"
        # dormant catalog: the uniformity fallback
        assert model.estimate(expr).source == "uniform"
        catalog.analyze()
        estimate = model.estimate(expr)
        assert estimate.source == "histogram"
        assert estimate.cardinality < 0.33 * skewed.extent_size / 2

    def test_difference_divide_capped_at_left(self, skewed):
        model = CostModel(skewed.graph)
        left, right = ClassExtent("L"), ClassExtent("L")
        for expr in (Difference(left, right), Divide(left, right, ("L",))):
            estimate = model.estimate(expr)
            assert 0 <= estimate.cardinality <= model.estimate(left).cardinality
