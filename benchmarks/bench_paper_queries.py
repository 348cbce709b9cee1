"""FIG3/FIG9 (Queries 1–5): end-to-end query benchmarks.

Measured on the paper's own population (micro) and on the scaled random
university (macro, 200 students).  Answers are asserted against ground
truth on the paper population.
"""

import pytest

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


@pytest.mark.parametrize(
    "name,query,cls,expected",
    [
        ("q1", QUERY_1, "SS#", {333, 444}),
        ("q3", QUERY_3, "Name", {"Alice"}),
        ("q4", QUERY_4, "Section#", {102, 201}),
        ("q5", QUERY_5, "Name", {"Carol"}),
    ],
)
def test_paper_population(benchmark, uni_db, name, query, cls, expected):
    expr = uni_db.compile(query)
    result = benchmark(expr.evaluate, uni_db.graph)
    answer = uni_db.query(expr)
    assert result == answer.set and answer.values(cls) == expected


def test_paper_population_q2(benchmark, uni_db):
    expr = uni_db.compile(QUERY_2)
    result = benchmark(expr.evaluate, uni_db.graph)
    answer = uni_db.query(expr)
    assert result == answer.set and answer.values("Specialty") == {"Databases", "AI"}


@pytest.mark.parametrize(
    "name,query",
    [
        ("q1", QUERY_1),
        ("q2", QUERY_2),
        ("q3", QUERY_3),
        ("q4", QUERY_4),
        ("q5", QUERY_5),
    ],
)
def test_scaled_population(benchmark, scaled_db, name, query):
    expr = scaled_db.compile(query)
    result = benchmark(expr.evaluate, scaled_db.graph)
    assert result is not None


def test_compilation_overhead(benchmark, uni_db):
    """OQL text → expression tree (parser throughput)."""
    benchmark(uni_db.compile, QUERY_2)
