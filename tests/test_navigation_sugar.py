"""§2 navigation sugar: shortest-path expansion of class-pair shorthand."""

import pytest

from repro.core.expression import ref
from repro.engine.database import Database
from repro.errors import OQLCompileError
from repro.oql.sugar import navigate


@pytest.fixture(scope="module")
def db(uni):
    return Database.from_dataset(uni)


def test_single_class(uni, db):
    expr = navigate(uni.schema, "TA")
    assert db.query(expr) == db.extent("TA")


def test_ta_to_ssn_matches_query1_values(uni, db):
    """The paper's TA—SS# shorthand: a shorter lattice route than the
    spelled-out Query 1 chain, but the same answer."""
    expr = navigate(uni.schema, "TA", "SS#")
    # Shortest path goes TA → Teacher → Person → SS#.
    assert "Teacher" in str(expr)
    result = db.query(expr.project(["SS#"]))
    assert result.values("SS#") == {333, 444}


def test_multi_hop_targets(uni, db):
    """source—t1—t2 chains through intermediate anchors."""
    expr = navigate(uni.schema, "Department", "Course", "Section#")
    result = db.query(expr)
    assert result
    for pattern in result:
        assert pattern.has_class("Department")
        assert pattern.has_class("Section#")


def test_adjacent_classes_single_hop(uni, db):
    expr = navigate(uni.schema, "Student", "GPA")
    assert db.query(expr).values("GPA") == {
        3.9,
        3.4,
        3.5,
        3.2,
        3.8,
        2.9,
    }


def test_no_path_raises(uni):
    from repro.schema.graph import SchemaGraph

    schema = SchemaGraph()
    schema.add_entity_class("X")
    schema.add_entity_class("Y")
    with pytest.raises(OQLCompileError):
        navigate(schema, "X", "Y")


def test_explicit_specs_pin_associations(uni):
    """The expansion annotates every hop, so evaluation never falls back
    to (possibly ambiguous) shorthand resolution."""
    from repro.core.expression import Associate

    expr = navigate(uni.schema, "TA", "SS#")
    node = expr
    while isinstance(node, Associate):
        assert node.spec is not None
        node = node.left
