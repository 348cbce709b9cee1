"""Knowledge rules: event filtering, conditions, actions, recursion guard."""

import pytest

from repro.core.expression import ref
from repro.datasets import university
from repro.engine.database import Database
from repro.errors import RuleError
from repro.rules import Rule, RuleEngine


@pytest.fixture()
def db():
    """A fresh (mutable) university database per test."""
    return Database.from_dataset(university())


@pytest.fixture()
def engine(db):
    return RuleEngine(db)


def unteachered_sections():
    """Condition: some section has no teacher (Query 4's ! pattern)."""
    return ref("Section") ^ ref("Teacher")


class TestRuleSpecification:
    def test_invalid_event_kind(self):
        with pytest.raises(RuleError):
            Rule.make("r", unteachered_sections(), lambda *a: None, on=["boom"])

    def test_invalid_when(self):
        with pytest.raises(RuleError):
            Rule.make("r", unteachered_sections(), lambda *a: None, when="maybe")

    def test_duplicate_registration(self, engine):
        rule = Rule.make("r", unteachered_sections(), lambda *a: None)
        engine.register(rule)
        with pytest.raises(RuleError):
            engine.register(rule)

    def test_unregister(self, engine):
        rule = Rule.make("r", unteachered_sections(), lambda *a: None)
        engine.register(rule)
        engine.unregister("r")
        assert engine.rules == ()
        with pytest.raises(RuleError):
            engine.unregister("r")


class TestTriggering:
    def test_fires_on_matching_event(self, db, engine):
        log = []
        engine.register(
            Rule.make(
                "orphan-sections",
                unteachered_sections(),
                lambda d, e, result: log.append(len(result)),
                on=["unlink"],
                classes=["Section", "Teacher"],
            )
        )
        teacher = min(db.graph.extent("Teacher"))
        section = min(
            db.graph.partners(db.schema.resolve("Teacher", "Section"), teacher)
        )
        db.unlink(teacher, section)
        assert log  # the rule fired
        assert engine.firings[0].rule == "orphan-sections"

    def test_event_kind_filter(self, db, engine):
        log = []
        engine.register(
            Rule.make(
                "never-on-insert",
                unteachered_sections(),
                lambda d, e, r: log.append(e.kind),
                on=["delete"],
            )
        )
        db.insert_value("Room#", "R99")
        assert log == []

    def test_class_filter(self, db, engine):
        log = []
        engine.register(
            Rule.make(
                "gpa-watch",
                ref("GPA"),
                lambda d, e, r: log.append(e.kind),
                on=["insert"],
                classes=["GPA"],
            )
        )
        db.insert_value("Room#", "R99")
        assert log == []
        db.insert_value("GPA", 4.0)
        assert log == ["insert"]

    def test_when_empty_mode(self, db, engine):
        """An existence rule: fire when NO pattern satisfies the condition."""
        log = []
        engine.register(
            Rule.make(
                "must-have-tas",
                ref("TA"),
                lambda d, e, r: log.append("violated"),
                on=["delete"],
                when="empty",
            )
        )
        for ta in sorted(db.graph.extent("TA")):
            db.delete(ta)
        assert log == ["violated"]  # fired once: on the second deletion

    def test_corrective_action(self, db, engine):
        """A repairing action: link unroomed sections to a default room."""

        def assign_default_room(d, event, result):
            default = d.insert_value("Room#", "R-DEFAULT")
            for pattern in result:
                for section in pattern.instances_of("Section"):
                    d.link(section, default)

        engine.register(
            Rule.make(
                "assign-room",
                ref("Section") ^ ref("Room#"),
                assign_default_room,
                on=["insert"],
                classes=["Section"],
            )
        )
        created = db.insert("Section")
        rooms = db.schema.resolve("Section", "Room#")
        assert db.graph.partners(rooms, created["Section"])
        # Including the pre-existing unroomed section 102.
        assert not (ref("Section") ^ ref("Room#")).evaluate(db.graph)

    def test_recursion_guard(self, db, engine):
        def spiral(d, event, result):
            d.insert_value("GPA", 0.0)  # retriggers itself

        engine.register(
            Rule.make("spiral", ref("GPA"), spiral, on=["insert"], classes=["GPA"])
        )
        with pytest.raises(RuleError):
            db.insert_value("GPA", 1.0)

    def test_disable(self, db, engine):
        log = []
        engine.register(
            Rule.make("r", ref("GPA"), lambda d, e, r: log.append(1), on=["insert"])
        )
        engine.enabled = False
        db.insert_value("GPA", 3.0)
        assert log == []


class TestMaintenance:
    def test_check_all_and_violations(self, db, engine):
        engine.register(
            Rule.make("no-room", ref("Section") ^ ref("Room#"), lambda *a: None)
        )
        engine.register(
            Rule.make("no-teacher", ref("Section") ^ ref("Teacher"), lambda *a: None)
        )
        status = engine.check_all()
        assert status == {"no-room": True, "no-teacher": True}
        assert engine.violations() == {"no-room": 1, "no-teacher": 1}
