"""Materialized views: lifecycle, delta rules, fallbacks, persistence.

The acceptance shape of :mod:`repro.views`: every materialization must
stay bit-identical to a fresh evaluation of its defining expression
after any mutation (the property suite randomizes this; here the cases
are targeted), unsound operators must demonstrably fall back to scoped
recompute (asserted through ``repro_view_recompute_total``), and
definitions must survive a durable checkpoint/recovery cycle.
"""

import pytest

from repro.core.assoc_set import AssociationSet
from repro.core.expression import ClassExtent, Literal, Select
from repro.core.predicates import Callback, TruePredicate
from repro.datasets import university
from repro.engine.database import Database
from repro.errors import ViewError
from repro.schema.graph import SchemaGraph
from repro.views.serialize import expr_from_dict, expr_to_dict


@pytest.fixture()
def db():
    return Database.from_dataset(university())


def _fresh(db, view_name):
    """The view's defining expression, evaluated from scratch."""
    return frozenset(db.query(db.view(view_name).expr, use_cache=False).set)


class TestLifecycle:
    def test_create_query_and_introspect(self, db):
        view = db.create_view("ta_grad", "TA * Grad")
        assert view.patterns == _fresh(db, "ta_grad")
        assert "ta_grad" in db.views
        rows = db.views()  # the registry is callable: info rows
        assert rows[0]["name"] == "ta_grad"
        assert rows[0]["patterns"] == len(view.patterns)
        assert rows[0]["version"] == 1

    def test_duplicate_name_rejected(self, db):
        db.create_view("v", "TA")
        with pytest.raises(ViewError):
            db.create_view("v", "Grad")

    def test_drop(self, db):
        db.create_view("v", "TA")
        db.drop_view("v")
        assert "v" not in db.views
        with pytest.raises(ViewError):
            db.view("v")

    def test_refresh_view_matches_incremental(self, db):
        db.create_view("v", "TA * Grad")
        db.delete(min(db.graph.extent("TA")))
        incremental = db.view("v").patterns
        assert db.refresh_view("v") == incremental

    def test_oql_and_expr_definitions_agree(self, db):
        via_text = db.create_view("a", "TA * Grad")
        via_expr = db.create_view("b", ClassExtent("TA") * ClassExtent("Grad"))
        assert via_text.patterns == via_expr.patterns


class TestDeltaRules:
    """Targeted per-event checks; the property suite randomizes these."""

    def test_link_and_unlink_maintain_join(self, db):
        view = db.create_view("v", "TA * Grad")
        pattern = min(view.patterns, key=str)
        ta = next(i for i in pattern.vertices if i.cls == "TA")
        grad = next(i for i in pattern.vertices if i.cls == "Grad")
        before = view.version
        db.unlink(ta, grad)
        assert pattern not in view.patterns
        assert view.patterns == _fresh(db, "v")
        assert view.version > before
        db.link(ta, grad)
        assert pattern in view.patterns
        assert view.patterns == _fresh(db, "v")

    def test_insert_and_delete_maintain_extent_and_join(self, db):
        ext = db.create_view("gpas", "GPA")
        join = db.create_view("v", "TA * Grad")
        created = db.insert_value("GPA", 1.23)
        assert any(created in p for p in ext.patterns)
        db.delete(created)
        assert not any(created in p for p in ext.patterns)
        assert ext.patterns == _fresh(db, "gpas")
        assert join.patterns == _fresh(db, "v")

    def test_update_refilters_select(self, db):
        view = db.create_view("low", "sigma(GPA)[GPA < 1.0]")
        created = db.insert_value("GPA", 2.0)
        assert not any(created in p for p in view.patterns)
        db.update_value(created, 0.5)
        assert any(created in p for p in view.patterns)
        db.update_value(created, 3.0)
        assert not any(created in p for p in view.patterns)
        assert view.patterns == _fresh(db, "low")

    def test_union_and_difference_maintained(self, db):
        union = db.create_view("u", "TA + Grad")
        diff = db.create_view("d", "Grad - TA")
        created = db.insert(["TA", "Grad"])
        assert union.patterns == _fresh(db, "u")
        assert diff.patterns == _fresh(db, "d")
        db.delete(created["TA"])
        assert union.patterns == _fresh(db, "u")
        assert diff.patterns == _fresh(db, "d")


class TestRecomputeFallbacks:
    """Unsound delta rules must fall back to scoped recompute, visibly."""

    def _recomputes(self, db, reason):
        return db.metrics.counter("repro_view_recompute_total").value(reason=reason)

    def test_complement_maintained_without_recompute(self, db):
        view = db.create_view("v", "TA | Grad")
        assoc = db.schema.resolve("TA", "Grad")
        ta, grad = min(db.graph.edges(assoc))
        db.unlink(ta, grad)  # creates (~ta grad): joined across, not rescanned
        assert view.patterns == _fresh(db, "v")
        db.link(ta, grad)  # destroys it again: an anchored removal
        assert view.patterns == _fresh(db, "v")
        db.insert(["TA", "Grad"])  # child additions on both sides
        assert view.patterns == _fresh(db, "v")
        assert view.recomputes == 0

    def test_complement_retention_boundary_recomputes(self, db):
        view = db.create_view("v", "TA | Grad")
        victims = sorted(db.graph.extent("TA"))
        for victim in victims[:-1]:
            db.delete(victim)
        assert view.recomputes == 0
        before = self._recomputes(db, "complement-rescan")
        # The last TA goes: the left operand holds no end-class instance,
        # so the retention clause now keeps every Grad pattern verbatim.
        db.delete(victims[-1])
        assert self._recomputes(db, "complement-rescan") > before
        assert view.recomputes == 1
        assert view.patterns == _fresh(db, "v")
        assert view.patterns == frozenset(db.query("Grad").set)

    def test_nonassociate_falls_back(self, db):
        db.create_view("v", "TA ! Grad")
        before = self._recomputes(db, "nonassociate-rescan")
        db.insert(["TA", "Grad"])
        assert self._recomputes(db, "nonassociate-rescan") > before
        assert db.view("v").patterns == _fresh(db, "v")

    def test_opaque_select_falls_back(self, db):
        expr = Select(ClassExtent("GPA"), TruePredicate())
        db.create_view("v", expr)
        before = self._recomputes(db, "opaque-predicate")
        db.insert_value("GPA", 3.3)
        assert self._recomputes(db, "opaque-predicate") > before
        assert db.view("v").patterns == _fresh(db, "v")

    def test_sound_join_does_not_recompute_on_link(self, db):
        view = db.create_view("v", "TA * Grad")
        pattern = min(view.patterns, key=str)
        ta = next(i for i in pattern.vertices if i.cls == "TA")
        grad = next(i for i in pattern.vertices if i.cls == "Grad")
        counter = db.metrics.counter("repro_view_recompute_total")
        before = sum(value for _, value in counter.samples())
        db.unlink(ta, grad)
        db.link(ta, grad)
        assert sum(value for _, value in counter.samples()) == before

    def test_delta_counters_track_changes(self, db):
        view = db.create_view("v", "TA * Grad")
        pattern = min(view.patterns, key=str)
        ta = next(i for i in pattern.vertices if i.cls == "TA")
        grad = next(i for i in pattern.vertices if i.cls == "Grad")
        delta = db.metrics.counter("repro_view_delta_total")
        db.unlink(ta, grad)
        assert delta.value(view="v", op="remove") == 1
        db.link(ta, grad)
        assert delta.value(view="v", op="add") == 1
        gauge = db.metrics.gauge("repro_view_patterns")
        assert gauge.value(view="v") == len(view.patterns)


class TestSharedClassPair:
    """Two associations between the same classes: edges carry no
    association, so an event on R2 must not be read as one on R1."""

    @pytest.fixture()
    def pair_db(self):
        schema = SchemaGraph("pair")
        for cls in ("A", "B", "C"):
            schema.add_entity_class(cls)
        schema.add_association("A", "B", "R1")
        schema.add_association("A", "B", "R2")
        schema.add_association("B", "C", "BC")
        return Database.open(schema=schema, analyze=False)

    @pytest.mark.parametrize(
        "op, action, anchor_hit",
        [
            ("*", "unlink", True),  # R1 still links a, b: keep (a b)
            ("*", "link", False),
            ("|", "link", True),  # R1 still does not: keep (~a b)
            ("|", "unlink", False),
        ],
    )
    def test_event_on_other_association(self, pair_db, op, action, anchor_hit):
        db = pair_db
        a, b, c = (db.insert(cls)[cls] for cls in ("A", "B", "C"))
        db.link(b, c)
        if op == "*":
            db.link(a, b, "R1")
        if action == "unlink":
            db.link(a, b, "R2")
        direct = db.create_view("direct", f"A {op}[R1(A,B)] B")
        nested = db.create_view("nested", f"(A {op}[R1(A,B)] B) * C")
        assert direct.patterns
        before = db.metrics.counter("repro_view_recompute_total").value(
            reason="shared-class-pair"
        )
        getattr(db, action)(a, b, "R2")
        assert direct.patterns == _fresh(db, "direct")
        assert nested.patterns == _fresh(db, "nested")
        after = db.metrics.counter("repro_view_recompute_total").value(
            reason="shared-class-pair"
        )
        assert (after > before) == anchor_hit


class TestOutOfBandGuard:
    def test_direct_graph_write_forces_refresh(self, db):
        view = db.create_view("gpas", "GPA")
        stale_len = len(view.patterns)
        # Bypass the event stream entirely: the materialization is now
        # stale and the version guard must notice on the next DML.
        db.graph.add_instance("GPA", value=0.66)
        assert len(view.patterns) == stale_len
        before = db.metrics.counter("repro_view_recompute_total").value(
            reason="out_of_band"
        )
        db.insert_value("GPA", 0.77)
        assert (
            db.metrics.counter("repro_view_recompute_total").value(
                reason="out_of_band"
            )
            > before
        )
        assert view.patterns == _fresh(db, "gpas")
        assert len(view.patterns) == stale_len + 2


class TestSerialization:
    ROUND_TRIPS = [
        "TA",
        "TA * Grad",
        "TA | Grad",
        "TA ! Grad",
        "TA + Grad",
        "Grad - TA",
        "TA & Grad",
        "(TA * Grad) / {TA} (TA * Grad)",
        "sigma(GPA)[GPA < 2.0]",
        "pi(TA * Grad)[TA]",
        "sigma(Student * GPA)[GPA >= 3.0 and not GPA > 3.9]",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIPS)
    def test_round_trip(self, db, text):
        expr = db.compile(text)
        assert expr_from_dict(expr_to_dict(expr)) == expr

    def test_literal_rejected(self, db):
        with pytest.raises(ViewError):
            db.create_view("v", Literal(AssociationSet(frozenset())))

    def test_callback_predicate_rejected(self, db):
        expr = Select(ClassExtent("GPA"), Callback(lambda p, g: True))
        with pytest.raises(ViewError):
            db.create_view("v", expr)


class TestDurability:
    def test_views_survive_checkpoint_recovery(self, db, tmp_path):
        store = tmp_path / "store"
        with Database.open(store, schema=db.schema, graph=db.graph) as durable:
            durable.create_view("v", "TA * Grad")
            expected = durable.view("v").patterns
            assert expected
        with Database.open(store) as recovered:
            assert "v" in recovered.views
            assert recovered.view("v").patterns == expected

    def test_wal_replay_maintains_views(self, db, tmp_path):
        from repro.storage.engine import FileEngine

        store = tmp_path / "store"
        durable = Database.open(
            FileEngine(store, sync="always", background=False),
            schema=db.schema,
            graph=db.graph,
        )
        durable.create_view("gpas", "GPA")
        baseline = len(durable.view("gpas").patterns)
        # Mutations land in the WAL tail after the view-ddl checkpoint;
        # recovery must replay them *through* the maintainer, not around
        # it.  No close(): reopen the way a post-crash process would.
        durable.insert_value("GPA", 0.11)
        durable.insert_value("GPA", 0.22)
        recovered = Database.open(FileEngine(store, create=False, sync="always"))
        view = recovered.view("gpas")
        assert len(view.patterns) == baseline + 2
        assert view.patterns == frozenset(
            recovered.query("GPA", use_cache=False).set
        )
