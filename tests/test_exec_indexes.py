"""Event-driven maintenance of the executor's derived state and cache.

Every :class:`MutationEvent` the Database emits must leave the
:class:`~repro.exec.arena.PatternArena` and the sub-plan cache exactly
as a from-scratch rebuild would — answers after insert/link/unlink/delete
always match the reference evaluator on the mutated graph.  Mutations
that bypass the event stream are caught by the graph version guard.
"""

import pytest

from repro.core.expression import Select, ref
from repro.core.predicates import ClassValues, Comparison, Const
from repro.datasets import university
from repro.engine.database import Database
from tests.properties.strategies import chain_schema


@pytest.fixture()
def db():
    return Database(chain_schema())


@pytest.fixture()
def uni():
    return Database.from_dataset(university())


def check(db, expr):
    """Physical answer == reference answer on the current graph."""
    result = db.query(expr).set
    assert result == expr.evaluate(db.graph)
    return result


class TestEventDrivenInvalidation:
    def test_link_and_unlink_refresh_edge_scan(self, db):
        a = db.insert("A")["A"]
        b = db.insert("B")["B"]
        q = ref("A") * ref("B")
        assert len(check(db, q)) == 0
        db.link(a, b)
        assert len(check(db, q)) == 1
        db.unlink(a, b)
        assert len(check(db, q)) == 0

    def test_insert_extends_cached_extent(self, db):
        db.insert("A")
        q = ref("A")
        assert len(check(db, q)) == 1
        db.insert("A")
        assert len(check(db, q)) == 2

    def test_delete_shrinks_extent_and_edges(self, db):
        a = db.insert("A")["A"]
        b = db.insert("B")["B"]
        db.link(a, b)
        q = ref("A") * ref("B")
        assert len(check(db, q)) == 1
        db.delete(a)
        assert len(check(db, q)) == 0
        assert len(check(db, ref("A"))) == 0

    def test_multiclass_insert_refreshes_isa_edges(self, uni):
        q = ref("TA") * ref("Grad")
        before = check(uni, q)
        uni.insert(["TA", "Grad", "Student", "Teacher", "Person"])
        after = check(uni, q)
        assert len(after) == len(before) + 1

    def test_update_invalidates_value_dependent_select(self, uni):
        instance = uni.insert_value("SS#", 99_999)
        q = Select(ref("SS#"), Comparison(ClassValues("SS#"), "=", Const(99_999)))
        assert len(check(uni, q)) == 1
        uni.update_value(instance, 11_111)
        assert len(check(uni, q)) == 0

    def test_mutation_invalidates_only_dependent_entries(self, db):
        db.insert("A")
        db.insert("D")
        db.query(ref("A"))
        db.query(ref("C") * ref("D"))
        cached_before = len(db.executor.cache)
        db.insert("D")  # touches C*D's dependencies, not A's
        assert len(db.executor.cache) == cached_before - 1
        invalidations = db.metrics.counter("repro_plan_cache_invalidations_total")
        assert invalidations.value() >= 1


class TestVersionGuard:
    def test_out_of_band_mutation_forces_reset(self, db):
        db.insert("A")
        q = ref("A")
        assert len(check(db, q)) == 1
        # Bypass the Database: no event fires, only graph.version moves.
        db.graph.add_instance("A", 777)
        assert len(check(db, q)) == 2
        resets = db.metrics.counter("repro_executor_resets_total")
        assert resets.value() == 1

    def test_event_driven_mutations_do_not_reset(self, db):
        db.insert("A")
        db.query(ref("A"))
        db.insert("A")
        db.query(ref("A"))
        resets = db.metrics.counter("repro_executor_resets_total")
        assert resets.value() == 0
