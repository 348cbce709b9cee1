"""The paper's five queries written in OQL text and run end-to-end."""

import pytest

from repro.engine.database import Database

QUERY_1 = "pi(TA * Grad * Student * Person * SS#)[SS#]"

QUERY_2 = """
pi(sigma(Name)[Name = 'CIS'] * Department * Course *
   (Section * Teacher * Faculty * Specialty
    + Section * (Student * GPA & Student * EarnedCredit)))
  [Section, Specialty, GPA, EarnedCredit;
   Section:Specialty, Section:GPA, Section:EarnedCredit]
"""

QUERY_3 = """
pi(Student * Person * Name & Student * Department
   & Student * Grad * TA * Teacher * Department)[Name]
"""

QUERY_4 = "pi(Section# * (Section ! Room# + Section ! Teacher))[Section#]"

QUERY_5 = """
pi((Name * Person * Student * Enrollment * Course * Course#)
   /{Student} sigma(Course#)[Course# = 6010 or Course# = 6020])[Name]
"""


@pytest.fixture(scope="module")
def db(uni):
    return Database.from_dataset(uni)


def test_query_1(db):
    result = db.query(QUERY_1)
    assert result.values("SS#") == {333, 444}


def test_query_2(db):
    result = db.query(QUERY_2)
    assert result.values("Specialty") == {"Databases", "AI"}
    assert result.values("GPA") == {3.5, 3.2, 3.8}
    assert result.values("EarnedCredit") == {60, 90, 45}


def test_query_3(db):
    result = db.query(QUERY_3)
    assert result.values("Name") == {"Alice"}


def test_query_4(db):
    result = db.query(QUERY_4)
    assert result.values("Section#") == {102, 201}


def test_query_5(db):
    result = db.query(QUERY_5)
    assert result.values("Name") == {"Carol"}


def test_oql_matches_dsl(db):
    """The OQL text compiles to the same tree the Python DSL builds."""
    from repro.core.expression import ref

    compiled = db.compile(QUERY_1)
    built = (
        ref("TA") * ref("Grad") * ref("Student") * ref("Person") * ref("SS#")
    ).project(["SS#"])
    assert compiled == built


def test_comments_allowed(db):
    result = db.query(
        "pi(TA * Grad * Student * Person * SS#)[SS#] -- the paper's Query 1"
    )
    assert result.values("SS#") == {333, 444}
