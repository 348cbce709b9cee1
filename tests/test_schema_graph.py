"""Schema Graph (§3.1): classes, associations, lattices, validation."""

import pytest

from repro.errors import (
    AmbiguousAssociationError,
    DuplicateDefinitionError,
    SchemaError,
    UnknownAssociationError,
    UnknownClassError,
)
from repro.schema.graph import AssociationKind, ClassKind, SchemaGraph


@pytest.fixture()
def sg():
    graph = SchemaGraph("test")
    graph.add_entity_class("A")
    graph.add_entity_class("B")
    graph.add_domain_class("V")
    return graph


class TestClasses:
    def test_kinds(self, sg):
        assert sg.class_def("A").kind is ClassKind.NONPRIMITIVE
        assert sg.class_def("V").is_primitive

    def test_duplicate_rejected(self, sg):
        with pytest.raises(DuplicateDefinitionError):
            sg.add_entity_class("A")

    def test_unknown_lookup(self, sg):
        with pytest.raises(UnknownClassError):
            sg.class_def("Z")

    def test_contains_and_names(self, sg):
        assert "A" in sg and "Z" not in sg
        assert set(sg.class_names) == {"A", "B", "V"}


class TestAssociations:
    def test_default_name(self, sg):
        assoc = sg.add_association("A", "B")
        assert assoc.name == "A__B"

    def test_resolve_unique(self, sg):
        assoc = sg.add_association("A", "B")
        assert sg.resolve("A", "B") == assoc
        assert sg.resolve("B", "A") == assoc  # bi-directional

    def test_resolve_ambiguous_requires_name(self, sg):
        sg.add_association("A", "B", "r1")
        sg.add_association("A", "V")
        sg.add_association("B", "A", "r2")
        sg.add_association("A", "B", "a0")
        with pytest.raises(AmbiguousAssociationError):
            sg.resolve("A", "B")
        assert sg.resolve("A", "B", "r2").name == "r2"
        # Declaration order, from either end, whatever PYTHONHASHSEED is.
        for a, b in (("A", "B"), ("B", "A")):
            names = [assoc.name for assoc in sg.associations_between(a, b)]
            assert names == ["r1", "r2", "a0"]
        assert sg.associations_between("B", "V") == ()

    def test_resolve_missing(self, sg):
        with pytest.raises(UnknownAssociationError):
            sg.resolve("A", "V")
        sg.add_association("A", "B", "r1")
        with pytest.raises(UnknownAssociationError):
            sg.resolve("A", "B", "nope")

    def test_duplicate_rejected(self, sg):
        sg.add_association("A", "B", "r")
        with pytest.raises(DuplicateDefinitionError):
            sg.add_association("B", "A", "r")

    def test_unknown_endpoint_rejected(self, sg):
        with pytest.raises(UnknownClassError):
            sg.add_association("A", "Z")

    def test_incident_and_neighbors(self, sg):
        sg.add_association("A", "B")
        sg.add_association("A", "V")
        assert {a.name for a in sg.incident("A")} == {"A__B", "A__V"}
        assert sg.neighbors("A") == {"B", "V"}

    def test_association_other_and_joins(self, sg):
        assoc = sg.add_association("A", "B")
        assert assoc.other("A") == "B"
        assert assoc.joins("B", "A")
        with pytest.raises(SchemaError):
            assoc.other("V")


class TestGeneralization:
    @pytest.fixture()
    def lattice(self):
        graph = SchemaGraph()
        for name in ("Person", "Student", "Teacher", "Grad", "TA"):
            graph.add_entity_class(name)
        graph.add_generalization("Student", "Person")
        graph.add_generalization("Teacher", "Person")
        graph.add_generalization("Grad", "Student")
        graph.add_generalization("TA", "Grad")
        graph.add_generalization("TA", "Teacher")
        return graph

    def test_direct(self, lattice):
        assert lattice.direct_superclasses("TA") == {"Grad", "Teacher"}
        assert lattice.direct_subclasses("Person") == {"Student", "Teacher"}

    def test_transitive(self, lattice):
        assert lattice.superclasses("TA") == {"Grad", "Teacher", "Student", "Person"}
        assert lattice.subclasses("Person") == {"Student", "Teacher", "Grad", "TA"}

    def test_generalization_path(self, lattice):
        assert lattice.generalization_path("TA", "Person") in (
            ["TA", "Grad", "Student", "Person"],
            ["TA", "Teacher", "Person"],
        )
        # BFS returns a *shortest* path — via Teacher.
        assert lattice.generalization_path("TA", "Person") == [
            "TA",
            "Teacher",
            "Person",
        ]
        assert lattice.generalization_path("Person", "TA") is None
        assert lattice.generalization_path("TA", "TA") == ["TA"]

    def test_kind_metadata(self, lattice):
        assoc = lattice.resolve("TA", "Grad")
        assert assoc.kind is AssociationKind.GENERALIZATION

    def test_cycle_detected(self):
        graph = SchemaGraph()
        graph.add_entity_class("A")
        graph.add_entity_class("B")
        graph.add_generalization("A", "B")
        graph.add_generalization("B", "A")
        with pytest.raises(SchemaError):
            graph.validate()

    def test_primitive_subclass_rejected(self):
        graph = SchemaGraph()
        graph.add_entity_class("A")
        graph.add_domain_class("V")
        graph.add_generalization("V", "A")
        with pytest.raises(SchemaError):
            graph.validate()


class TestTraversal:
    def test_path_between(self, sg):
        sg.add_entity_class("C")
        sg.add_association("A", "B")
        sg.add_association("B", "C")
        path = sg.path_between("A", "C")
        assert [a.name for a in path] == ["A__B", "B__C"]
        assert sg.path_between("A", "A") == []
        assert sg.path_between("A", "V") is None

    def test_validate_clean_schema(self, sg):
        sg.add_association("A", "B")
        sg.validate()
