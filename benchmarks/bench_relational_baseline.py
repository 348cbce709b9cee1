"""BENCH-REL: A-algebra vs the relational-algebra baseline.

The paper's qualitative comparison made quantitative: the same queries on
the same (scaled) university population, via the association-based engine
and via joins over the shredded relational image.  Both sides are
asserted to agree before timing.

Also measures the shredding itself — the "mapping from a network
representation" cost the paper attributes to relational/nested-relational
approaches.
"""

import pytest

from repro.relational import map_object_graph
from repro.relational import queries as rq
from repro.relational.mapping import value_attr

ALGEBRA_QUERIES = {
    "q1": ("pi(TA * Grad * Student * Person * SS#)[SS#]", "SS#"),
    "q3": (
        """pi(Student * Person * Name & Student * Department
            & Student * Grad * TA * Teacher * Department)[Name]""",
        "Name",
    ),
    "q4": (
        "pi(Section# * (Section ! Room# + Section ! Teacher))[Section#]",
        "Section#",
    ),
    "q5": (
        """pi((Name * Person * Student * Enrollment * Course * Course#)
            /{Student} sigma(Course#)[Course# = 1000 or Course# = 1001])[Name]""",
        "Name",
    ),
}

RELATIONAL_QUERIES = {
    "q1": (rq.query1, value_attr("SS#")),
    "q3": (rq.query3, value_attr("Name")),
    "q4": (rq.query4, value_attr("Section#")),
}


def relational_query5(rdb):
    """Query 5 against the scaled population's course numbers."""
    from repro.relational.algebra import Relation

    enrollments = (
        rdb.cls("Student")
        .natural_join(rdb.assoc("Student", "Enrollment"))
        .natural_join(rdb.assoc("Enrollment", "Course"))
        .natural_join(rdb.assoc("Course", "Course#"))
        .natural_join(rdb.cls("Course#"))
        .project(["Student", value_attr("Course#")])
    )
    wanted = Relation("wanted", (value_attr("Course#"),), [(1000,), (1001,)])
    qualifying = enrollments.divide(wanted)
    return (
        qualifying.natural_join(rdb.assoc("Student", "Person"))
        .natural_join(rdb.assoc("Person", "Name"))
        .natural_join(rdb.cls("Name"))
        .project([value_attr("Name")])
    )


@pytest.mark.parametrize("name", ["q1", "q3", "q4", "q5"])
def test_algebra_side(benchmark, scaled_db, name):
    query, cls = ALGEBRA_QUERIES[name]
    expr = scaled_db.compile(query)
    result = benchmark(expr.evaluate, scaled_db.graph)
    assert result is not None


@pytest.mark.parametrize("name", ["q1", "q3", "q4"])
def test_relational_side(benchmark, scaled_rdb, scaled_db, name):
    fn, attr = RELATIONAL_QUERIES[name]
    relation = benchmark(fn, scaled_rdb)
    # Agreement with the algebra engine.
    query, cls = ALGEBRA_QUERIES[name]
    algebra = scaled_db.query(query).values(cls)
    assert relation.column(attr) == algebra


def test_relational_side_q5(benchmark, scaled_rdb, scaled_db):
    relation = benchmark(relational_query5, scaled_rdb)
    query, cls = ALGEBRA_QUERIES["q5"]
    algebra = scaled_db.query(query).values(cls)
    assert relation.column(value_attr("Name")) == algebra


def test_shredding_cost(benchmark, scaled_uni):
    """Mapping the object graph to relations — the paper's 'extra process'."""
    rdb = benchmark(map_object_graph, scaled_uni.graph)
    assert rdb.table_count() > 20


def test_query2_needs_two_relational_queries(benchmark, scaled_rdb):
    """The two relational halves of Query 2 executed back to back."""

    def both():
        return (
            rq.query2_specialties(scaled_rdb),
            rq.query2_student_records(scaled_rdb),
        )

    specialties, records = benchmark(both)
    assert specialties.attributes != records.attributes
