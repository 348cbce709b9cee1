"""The Database facade: DML, events, value collection, compilation."""

import pytest

from repro.core.expression import ref
from repro.datasets import university
from repro.engine.database import Database, MutationEvent
from repro.errors import EvaluationError
from repro.schema.graph import SchemaGraph


@pytest.fixture()
def db():
    return Database.from_dataset(university())


class TestQueries:
    def test_evaluate_expr_and_text_agree(self, db):
        text = db.query("pi(TA * Grad)[TA]")
        expr = db.query((ref("TA") * ref("Grad")).project(["TA"]))
        assert text == expr

    def test_evaluate_rejects_garbage(self, db):
        with pytest.raises(EvaluationError):
            db.query(42)  # type: ignore[arg-type]

    def test_values_collects_across_patterns(self, db):
        result = db.query("pi(Student * GPA)[GPA]")
        assert result.values("GPA") == {3.9, 3.4, 3.5, 3.2, 3.8, 2.9}

    def test_values_of_absent_class(self, db):
        result = db.query("pi(Student * GPA)[GPA]")
        assert result.values("Name") == set()

    def test_extent(self, db):
        assert len(db.extent("TA")) == 2


class TestDML:
    def test_insert_multi_class(self, db):
        created = db.insert(["Grad", "Student", "Person"])
        assert set(created) == {"Grad", "Student", "Person"}
        assert db.graph.has_instance(created["Grad"])

    def test_insert_value_and_update(self, db):
        gpa = db.insert_value("GPA", 1.0)
        assert db.graph.value(gpa) == 1.0
        db.update_value(gpa, 2.0)
        assert db.graph.value(gpa) == 2.0

    def test_link_unlink(self, db):
        student = db.insert(["Student", "Person"])["Student"]
        section = next(iter(sorted(db.graph.extent("Section"))))
        db.link(student, section)
        assoc = db.schema.resolve("Student", "Section")
        assert db.graph.are_associated(assoc, student, section)
        db.unlink(student, section)
        assert not db.graph.are_associated(assoc, student, section)

    def test_delete(self, db):
        gpa = db.insert_value("GPA", 0.5)
        db.delete(gpa)
        assert not db.graph.has_instance(gpa)


class TestEvents:
    def test_event_stream(self, db):
        events: list[MutationEvent] = []
        db.subscribe(lambda database, event: events.append(event))
        gpa = db.insert_value("GPA", 1.5)
        db.update_value(gpa, 1.6)
        db.delete(gpa)
        assert [e.kind for e in events] == ["insert", "update", "delete"]
        assert events[0].instances == (gpa,)

    def test_link_event_carries_association(self, db):
        events: list[MutationEvent] = []
        db.subscribe(lambda database, event: events.append(event))
        student = db.insert(["Student", "Person"])["Student"]
        section = next(iter(sorted(db.graph.extent("Section"))))
        db.link(student, section)
        link_events = [e for e in events if e.kind == "link"]
        # add_object links generalization edges too; the explicit one last.
        assert link_events[-1].association == "Student__Section"


class TestConstruction:
    def test_fresh_database(self):
        schema = SchemaGraph("fresh")
        schema.add_entity_class("Thing")
        db = Database(schema)
        assert len(db.extent("Thing")) == 0
        db.insert("Thing")
        assert len(db.extent("Thing")) == 1

    def test_str(self, db):
        assert "university" in str(db)
