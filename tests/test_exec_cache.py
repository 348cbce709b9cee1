"""The memoizing sub-plan cache: keys, dependencies, invalidation."""

import pytest

from repro.core.expression import Intersect, Literal, Select, Union, ref
from repro.core.assoc_set import AssociationSet
from repro.core.predicates import Callback, ClassValues, Comparison, Const
from repro.exec import PlanCache, canonicalize, expr_dependencies
from repro.exec.cache import ANY, expr_value_dependencies
from repro.obs.metrics import MetricsRegistry


class TestCanonicalize:
    def test_union_operands_are_ordered(self):
        assert canonicalize(ref("B") + ref("A")) == canonicalize(ref("A") + ref("B"))

    def test_intersect_operands_are_ordered(self):
        left = Intersect(ref("B"), ref("A"), frozenset({"A"}))
        right = Intersect(ref("A"), ref("B"), frozenset({"A"}))
        assert canonicalize(left) == canonicalize(right)

    def test_nested_commutativity_normalizes(self):
        one = (ref("C") + ref("B")) * ref("A")
        two = (ref("B") + ref("C")) * ref("A")
        assert canonicalize(one) == canonicalize(two)

    def test_noncommutative_order_is_preserved(self):
        assert canonicalize(ref("A") - ref("B")) != canonicalize(ref("B") - ref("A"))

    def test_canonical_form_is_semantically_equal(self):
        expr = (ref("B") + ref("A")).project(["A"])
        assert str(canonicalize(canonicalize(expr))) == str(canonicalize(expr))


class TestDependencies:
    def test_extents_and_predicates_collected(self):
        expr = Select(
            ref("A") * ref("B"), Comparison(ClassValues("C"), "=", Const(1))
        )
        assert expr_dependencies(expr) == frozenset({"A", "B", "C"})

    def test_literal_depends_on_nothing(self):
        assert expr_dependencies(Literal(AssociationSet.empty())) == frozenset()

    def test_opaque_predicate_poisons(self):
        expr = Select(ref("A"), Callback(lambda pattern, graph: True))
        assert ANY in expr_dependencies(expr)


class TestPlanCache:
    def test_hit_and_miss_counters(self):
        metrics = MetricsRegistry()
        cache = PlanCache(metrics)
        key = canonicalize(ref("A") * ref("B"))
        assert cache.get(key) is None
        cache.put(key, AssociationSet.empty(), frozenset({"A", "B"}))
        assert cache.get(key) == AssociationSet.empty()
        assert metrics.counter("repro_plan_cache_misses_total").value() == 1
        assert metrics.counter("repro_plan_cache_hits_total").value() == 1

    def test_invalidation_is_class_selective(self):
        cache = PlanCache()
        cache.put(ref("A"), AssociationSet.empty(), frozenset({"A"}))
        cache.put(ref("B"), AssociationSet.empty(), frozenset({"B"}))
        assert cache.invalidate_classes({"A"}) == 1
        assert cache.get(ref("A")) is None
        assert cache.get(ref("B")) is not None

    def test_any_poison_invalidates_on_every_mutation(self):
        cache = PlanCache()
        cache.put(ref("A"), AssociationSet.empty(), frozenset({ANY}))
        assert cache.invalidate_classes({"Unrelated"}) == 1

    def test_clear_counts_as_invalidations(self):
        metrics = MetricsRegistry()
        cache = PlanCache(metrics)
        cache.put(ref("A"), AssociationSet.empty(), frozenset({"A"}))
        cache.put(ref("B"), AssociationSet.empty(), frozenset({"B"}))
        cache.clear()
        assert len(cache) == 0
        counter = metrics.counter("repro_plan_cache_invalidations_total")
        assert counter.value() == 2

    def test_commutative_queries_share_one_entry(self):
        cache = PlanCache()
        cache.put(
            canonicalize(ref("A") + ref("B")),
            AssociationSet.empty(),
            frozenset({"A", "B"}),
        )
        assert cache.get(canonicalize(ref("B") + ref("A"))) is not None
        assert len(cache) == 1


class TestUpdateKindInvalidation:
    """Attribute-only updates invalidate against value deps, not class deps."""

    def test_value_dependencies_collect_predicate_classes_only(self):
        join = ref("A") * ref("B")
        assert expr_value_dependencies(join) == frozenset()
        selected = Select(
            join, Comparison(ClassValues("A"), "<", Const(2))
        )
        assert expr_value_dependencies(selected) == frozenset({"A"})

    def test_update_spares_edge_only_entries(self):
        cache = PlanCache()
        key = canonicalize(ref("A") * ref("B"))
        cache.put(key, AssociationSet.empty(), frozenset({"A", "B"}))
        # An attribute-only update on A cannot change a pure join.
        assert cache.invalidate_classes({"A"}, kind="update") == 0
        assert cache.get(key) is not None
        # A structural event on A still evicts.
        assert cache.invalidate_classes({"A"}, kind="delete") == 1

    def test_update_evicts_value_readers(self):
        cache = PlanCache()
        key = canonicalize(
            Select(ref("A") * ref("B"), Comparison(ClassValues("A"), "<", Const(2)))
        )
        cache.put(key, AssociationSet.empty(), frozenset({"A", "B"}))
        assert cache.invalidate_classes({"A"}, kind="update") == 1

    def test_update_on_opaque_entry_still_evicts(self):
        cache = PlanCache()
        key = canonicalize(Select(ref("A"), Callback(lambda p, g: True)))
        cache.put(key, AssociationSet.empty(), frozenset({ANY, "A"}))
        assert cache.invalidate_classes({"A"}, kind="update") == 1

    def test_database_update_keeps_join_cached(self):
        """End-to-end: the invalidation counter stays flat on an update."""
        from repro.datasets import university
        from repro.engine.database import Database

        db = Database.from_dataset(university())
        db.query("TA * Grad")  # populate the cache
        counter = db.metrics.counter("repro_plan_cache_invalidations_total")
        gpa = min(db.graph.extent("GPA"))
        before = counter.value()
        db.update_value(gpa, 1.11)
        # GPA participates in plans only through edges here — the cached
        # join result must survive and the counter must not move.
        assert counter.value() == before
        hits_before = db.metrics.counter("repro_plan_cache_hits_total").value()
        db.query("TA * Grad")
        assert (
            db.metrics.counter("repro_plan_cache_hits_total").value()
            > hits_before
        )
        # A structural mutation on a dependency class still invalidates.
        db.delete(min(db.graph.extent("TA")))
        assert counter.value() > before
