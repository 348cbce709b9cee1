"""BENCH-REL correctness leg: the relational baseline must agree with the
A-algebra on every paper query over the university database."""

import pytest

from repro.engine.database import Database
from repro.relational import map_object_graph
from repro.relational import queries as rq
from repro.relational.mapping import value_attr


@pytest.fixture(scope="module")
def rdb(uni):
    return map_object_graph(uni.graph)


@pytest.fixture(scope="module")
def adb(uni):
    return Database.from_dataset(uni)


def test_mapping_shape(rdb, uni):
    assert set(rdb.classes) == set(uni.schema.class_names)
    assert rdb.table_count() == len(uni.schema.class_names) + len(
        uni.schema.associations
    )
    # Primitive relations carry values.
    names = rdb.cls("Name")
    assert value_attr("Name") in names.attributes


def test_query1_agreement(rdb):
    assert rq.query1(rdb).column(value_attr("SS#")) == {333, 444}


def test_query2_requires_two_relational_queries(rdb):
    """The paper's point: one A-algebra expression, two relational ones."""
    specialties = rq.query2_specialties(rdb)
    records = rq.query2_student_records(rdb)
    assert specialties.column(value_attr("Specialty")) == {"Databases", "AI"}
    assert records.column(value_attr("GPA")) == {3.5, 3.2, 3.8}
    assert records.column(value_attr("EarnedCredit")) == {60, 90, 45}
    # Their schemas are incompatible — the relational UNION is illegal.
    from repro.relational.algebra import RelationalError

    with pytest.raises(RelationalError):
        specialties.union(records)


def test_query3_agreement(rdb):
    assert rq.query3(rdb).column(value_attr("Name")) == {"Alice"}


def test_query4_agreement(rdb):
    assert rq.query4(rdb).column(value_attr("Section#")) == {102, 201}


def test_query5_agreement(rdb):
    assert rq.query5(rdb).column(value_attr("Name")) == {"Carol"}


def test_agreement_on_scaled_population():
    """Both engines answer Query 1 identically on a scaled random DB."""
    from repro.datagen import university_scaled

    scaled = university_scaled(n_students=60, n_courses=10, seed=3)
    adb = Database.from_dataset(scaled)
    rdb = map_object_graph(scaled.graph)

    algebra_result = adb.query("pi(TA * Grad * Student * Person * SS#)[SS#]")
    algebra_values = algebra_result.values("SS#")
    relational_values = rq.query1(rdb).column(value_attr("SS#"))
    assert algebra_values == relational_values
    assert algebra_values  # non-trivial population


def test_query4_agreement_on_scaled_population():
    from repro.datagen import university_scaled

    scaled = university_scaled(n_students=60, n_courses=10, seed=5)
    adb = Database.from_dataset(scaled)
    rdb = map_object_graph(scaled.graph)
    algebra = adb.query(
        "pi(Section# * (Section ! Room# + Section ! Teacher))[Section#]"
    ).values("Section#")
    relational = rq.query4(rdb).column(value_attr("Section#"))
    assert algebra == relational
