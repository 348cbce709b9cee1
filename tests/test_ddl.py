"""The schema DDL: parsing, printing, round-trips."""

import pytest

from repro.schema.ddl import DDLError, parse_ddl, schema_to_ddl
from repro.schema.graph import AssociationKind

UNIVERSITY_DDL = """
schema mini-university

entity Person, Student, Teacher, TA   // the lattice
domain SS#, Name

isa Student : Person
isa Teacher : Person
isa TA : Student
isa TA : Teacher

assoc Person -- SS#
assoc Person -- Name
"""

BOM_DDL = """
schema bom
entity Part, Usage
domain Quantity
assoc Part -- Usage as parent
assoc Part -- Usage as child
assoc Usage -- Quantity
"""


class TestParsing:
    def test_university_fragment(self):
        schema = parse_ddl(UNIVERSITY_DDL)
        assert schema.name == "mini-university"
        assert schema.class_def("SS#").is_primitive
        assert not schema.class_def("TA").is_primitive
        assert schema.superclasses("TA") == {"Student", "Teacher", "Person"}
        assert schema.resolve("Person", "SS#")

    def test_named_parallel_associations(self):
        schema = parse_ddl(BOM_DDL)
        assert len(schema.associations_between("Part", "Usage")) == 2
        assert schema.resolve("Part", "Usage", "parent")

    def test_comments_and_blank_lines(self):
        schema = parse_ddl("// header\nschema s\n\nentity A // trailing\n")
        assert schema.class_names == ("A",)

    def test_forward_references_allowed(self):
        schema = parse_ddl("schema s\nassoc A -- B\nentity A, B\n")
        assert schema.resolve("A", "B")

    def test_keywords_case_insensitive(self):
        schema = parse_ddl("SCHEMA s\nENTITY A\nDomain V\nAssoc A -- V\n")
        assert schema.resolve("A", "V")


class TestErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty DDL"),
            ("entity A\n", "first declaration"),
            ("schema s\nschema t\n", "duplicate schema"),
            ("schema\n", "needs a name"),
            ("schema s\nwidget A\n", "unknown declaration"),
            ("schema s\nentity A,\n", "empty name"),
            ("schema s\nentity A, B\nisa A B\n", "isa needs"),
            ("schema s\nentity A, B\nassoc A B\n", "assoc needs"),
        ],
    )
    def test_malformed(self, text, fragment):
        with pytest.raises(DDLError) as info:
            parse_ddl(text)
        assert fragment in str(info.value)

    def test_error_carries_line_number(self):
        with pytest.raises(DDLError) as info:
            parse_ddl("schema s\nentity A\nwidget B\n")
        assert info.value.line == 3


class TestRoundTrip:
    def test_print_parse_round_trip(self):
        schema = parse_ddl(BOM_DDL)
        reparsed = parse_ddl(schema_to_ddl(schema))
        assert set(reparsed.class_names) == set(schema.class_names)
        assert {a.key for a in reparsed.associations} == {
            a.key for a in schema.associations
        }

    def test_university_schema_round_trips(self, uni):
        text = schema_to_ddl(uni.schema)
        reparsed = parse_ddl(text)
        assert set(reparsed.class_names) == set(uni.schema.class_names)
        assert {a.key for a in reparsed.associations} == {
            a.key for a in uni.schema.associations
        }
        for assoc in reparsed.associations:
            original = uni.schema.association(assoc.key)
            assert assoc.kind is original.kind

    def test_queries_run_on_ddl_schema(self):
        """End to end: DDL schema → population → OQL query."""
        from repro.engine.database import Database

        schema = parse_ddl(UNIVERSITY_DDL)
        db = Database(schema)
        created = db.insert(["TA", "Student", "Teacher", "Person"])
        db.link(created["Person"], db.insert_value("SS#", 123))
        result = db.query("pi(TA * Student * Person * SS#)[SS#]")
        assert result.values("SS#") == {123}


def test_generalization_kind_preserved():
    schema = parse_ddl(UNIVERSITY_DDL)
    assert schema.resolve("TA", "Student").kind is AssociationKind.GENERALIZATION
    assert schema.resolve("Person", "Name").kind is AssociationKind.AGGREGATION
