"""Database snapshot/restore (save-point semantics)."""

import pytest

from repro.core.expression import ref
from repro.datasets import university
from repro.engine.database import Database


@pytest.fixture()
def db():
    return Database.from_dataset(university())


def test_restore_undoes_inserts(db):
    before = db.snapshot()
    db.insert_value("GPA", 0.1)
    db.insert(["Student", "Person"])
    assert len(db.extent("GPA")) == 7
    db.restore(before)
    assert len(db.extent("GPA")) == 6
    assert len(db.extent("Student")) == 6


def test_restore_undoes_unlink(db):
    teachers = db.schema.resolve("Teacher", "Section")
    teacher = next(
        t for t in sorted(db.graph.extent("Teacher")) if db.graph.partners(teachers, t)
    )
    section = next(iter(sorted(db.graph.partners(teachers, teacher))))
    before = db.snapshot()
    db.unlink(teacher, section)
    assert not db.graph.are_associated(teachers, teacher, section)
    db.restore(before)
    assert db.graph.are_associated(teachers, teacher, section)


def test_queries_work_after_restore(db):
    before = db.snapshot()
    for ta in sorted(db.graph.extent("TA")):
        db.delete(ta)
    assert len(db.extent("TA")) == 0
    db.restore(before)
    result = db.query("pi(TA * Grad * Student * Person * SS#)[SS#]")
    assert result.values("SS#") == {333, 444}


def test_restore_emits_no_events(db):
    before = db.snapshot()
    events = []
    db.subscribe(lambda database, event: events.append(event))
    db.restore(before)
    assert events == []


def test_rule_rollback_scenario(db):
    """Snapshot → let a destructive change happen → roll back."""
    before = db.snapshot()
    rooms = db.schema.resolve("Section", "Room#")
    for section in sorted(db.graph.extent("Section")):
        for room in sorted(db.graph.partners(rooms, section)):
            db.unlink(section, room)
    unroomed = db.query(ref("Section") ^ ref("Room#")).set
    # Every section pairs with every (now-orphaned) room: 5 × 4 patterns.
    assert unroomed.instances_of("Section") == db.graph.extent("Section")
    assert len(unroomed) == 20
    db.restore(before)
    unroomed = db.query(ref("Section") ^ ref("Room#")).set
    assert len(unroomed) == 1  # only the paper's section 102 again
