"""Query-driven bulk DML and the value index."""

import pytest

from repro.core.expression import ref
from repro.core.predicates import value_equals
from repro.datasets import university
from repro.engine.database import Database


@pytest.fixture()
def db():
    return Database.from_dataset(university())


class TestValueIndex:
    def test_find_by_value(self, db):
        hits = db.graph.find_by_value("Name", "Alice")
        assert len(hits) == 1
        assert db.graph.value(next(iter(hits))) == "Alice"

    def test_miss(self, db):
        assert db.graph.find_by_value("Name", "Nobody") == frozenset()

    def test_index_tracks_updates(self, db):
        gpa = db.insert_value("GPA", 1.11)
        assert gpa in db.graph.find_by_value("GPA", 1.11)
        db.update_value(gpa, 2.22)
        assert gpa not in db.graph.find_by_value("GPA", 1.11)
        assert gpa in db.graph.find_by_value("GPA", 2.22)

    def test_index_tracks_deletes(self, db):
        gpa = db.insert_value("GPA", 1.11)
        db.delete(gpa)
        assert db.graph.find_by_value("GPA", 1.11) == frozenset()

    def test_unhashable_values_fall_back(self, db):
        gpa = db.insert_value("GPA", [1, 2])
        assert gpa in db.graph.find_by_value("GPA", [1, 2])

    def test_attach_reuse_goes_through_index(self, db):
        person = db.insert(["Student", "Person"])["Person"]
        name = db.builder.attach(person, "Name", "Alice")
        assert db.graph.value(name) == "Alice"
        assert len(db.graph.find_by_value("Name", "Alice")) == 1


class TestSelectInstances:
    def test_select_instances(self, db):
        tas = db.query(ref("TA") * ref("Grad")).instances("TA")
        assert len(tas) == 2
        assert all(i.cls == "TA" for i in tas)

    def test_select_from_oql(self, db):
        sections = db.query("Section ! Teacher").instances("Section")
        assert len(sections) == 1


class TestBulkDML:
    def test_delete_where(self, db):
        """Drop all sections without teachers (and their edges)."""
        deleted = db.delete_where("Section ! Teacher", "Section")
        assert deleted == 1
        assert len(db.extent("Section")) == 4
        # The pattern no longer matches anything.
        assert db.query("Section ! Teacher").instances("Section") == frozenset()

    def test_delete_where_emits_events(self, db):
        events = []
        db.subscribe(lambda database, event: events.append(event.kind))
        db.delete_where("Section ! Teacher", "Section")
        assert events == ["delete"]

    def test_update_where(self, db):
        """Grade inflation: +0.1 GPA for students in CIS sections."""
        query = (
            ref("GPA")
            * ref("Student")
            * ref("Section")
            * ref("Course")
            * ref("Department")
            * ref("Name").where(value_equals("Name", "CIS"))
        )
        updated = db.update_where(query, "GPA", lambda v: round(v + 0.1, 2))
        assert updated == 3  # Carol, Dave, Eve (their GPA objects)
        values = {db.graph.value(i) for i in db.graph.extent("GPA")}
        assert 3.6 in values and 3.3 in values and 3.9 in values

    def test_update_where_zero_matches(self, db):
        updated = db.update_where(
            ref("Name").where(value_equals("Name", "Nobody")), "Name", str.upper
        )
        assert updated == 0
