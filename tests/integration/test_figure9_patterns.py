"""FIG9: the result *patterns* of Queries 3–5 have the drawn shapes.

Figure 9 sketches the association patterns each query matches.  Beyond
the value-level answers (tested elsewhere), the unprojected results must
have the figure's shapes: Query 3's pattern is a *network* (two paths
meeting at the same Department — a cycle), Query 4's are short chains,
Query 5's are linear six-class chains grouped per student.
"""

import pytest

from repro.core.expression import Divide, Intersect, ref
from repro.core.predicates import ClassValues, Comparison, Const, Or
from repro.engine.database import Database


@pytest.fixture(scope="module")
def db(uni):
    return Database.from_dataset(uni)


def test_query3_pattern_is_a_network(db, uni):
    """Name—Person—Student with major-Department and the Grad—TA—Teacher
    path closing back on the SAME Department: a cycle through Student."""
    expr = (
        (ref("Student") * ref("Person") * ref("Name"))
        & (ref("Student") * ref("Department"))
        & (ref("Student") * ref("Grad") * ref("TA") * ref("Teacher") * ref("Department"))
    )
    result = db.query(expr)
    assert len(result) == 1  # Alice only
    (pattern,) = result
    assert pattern.is_connected()
    assert pattern.classes() == {
        "Name",
        "Person",
        "Student",
        "Department",
        "Grad",
        "TA",
        "Teacher",
    }
    # One Department instance reached along two paths — a genuine cycle:
    # |E| >= |V| for the merged pattern.
    (dept,) = pattern.instances_of("Department")
    assert pattern.degree(dept) == 2  # Student-major edge + Teacher edge
    assert len(pattern.edges) >= len(pattern.vertices)
    # The department really is CIS.
    dept_names = db.graph.partners(db.schema.resolve("Department", "Name"), dept)
    assert {db.graph.value(n) for n in dept_names} == {"CIS"}


def test_query4_patterns_are_chains(db):
    expr = ref("Section#") * (
        (ref("Section") ^ ref("Room#")) + (ref("Section") ^ ref("Teacher"))
    )
    result = db.query(expr)
    assert len(result) == 2
    shapes = {frozenset(p.classes()) for p in result}
    # Section 102 (no room, all rooms taken) is a retained bare section →
    # a 2-chain after the Section# join.  Section 201 (no teacher) pairs
    # with Bob's teacher instance, which teaches nothing — a 3-chain with
    # a complement edge (the ! main clause).
    assert shapes == {
        frozenset({"Section#", "Section"}),
        frozenset({"Section#", "Section", "Teacher"}),
    }
    for pattern in result:
        assert pattern.is_connected()
        assert len(pattern.edges) == len(pattern) - 1  # chains
    three = next(p for p in result if p.has_class("Teacher"))
    assert any(edge.is_complement for edge in three.edges)


def test_query5_patterns_are_linear_six_chains(db):
    chain = (
        ref("Name")
        * ref("Person")
        * ref("Student")
        * ref("Enrollment")
        * ref("Course")
        * ref("Course#")
    )
    divisor = ref("Course#").where(
        Or(
            Comparison(ClassValues("Course#"), "=", Const(6010)),
            Comparison(ClassValues("Course#"), "=", Const(6020)),
        )
    )
    result = db.query(Divide(chain, divisor, ["Student"]))
    assert len(result) == 2  # Carol's two enrollments
    for pattern in result:
        assert len(pattern) == 6
        assert len(pattern.edges) == 5  # a path: |E| = |V| − 1
        degrees = sorted(pattern.degree(v) for v in pattern.vertices)
        assert degrees == [1, 1, 2, 2, 2, 2]
    # Both patterns share Carol's Student instance (the ÷{Student} group).
    students = {v for p in result for v in p.instances_of("Student")}
    assert len(students) == 1


def test_figure9_shapes_render(db, uni):
    """The figure-notation renderer handles all three shapes."""
    from repro.viz import render_pattern

    expr = (
        (ref("Student") * ref("Person") * ref("Name"))
        & (ref("Student") * ref("Department"))
        & (ref("Student") * ref("Grad") * ref("TA") * ref("Teacher") * ref("Department"))
    )
    (network,) = db.query(expr)
    text = render_pattern(network)
    assert "•" in text and "," in text  # non-chain fallback listing edges
