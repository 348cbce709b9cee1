"""End-to-end reproductions of the paper's Queries 1–5 (§2, §3.3.4).

Each test builds the exact algebra expression printed in the paper (modulo
notation) and checks the answer against the hand-derived ground truth of
the university population (see ``repro/datasets/university.py``).
"""

import pytest

from repro.core.expression import Divide, Intersect, ref
from repro.core.predicates import Comparison, ClassValues, Const, Or, value_equals
from repro.engine.database import Database


@pytest.fixture(scope="module")
def db(uni):
    return Database.from_dataset(uni)


def test_query_1_ta_ssns(db):
    """Query 1: Π(TA*Grad*Student*Person*SS#)[SS#] → the TAs' SS#s."""
    expr = (
        ref("TA") * ref("Grad") * ref("Student") * ref("Person") * ref("SS#")
    ).project(["SS#"])
    result = db.query(expr)
    assert result.values("SS#") == {333, 444}


def test_query_1_intermediate_chain(db):
    """The unprojected chain keeps one pattern per TA, five classes long."""
    expr = ref("TA") * ref("Grad") * ref("Student") * ref("Person") * ref("SS#")
    result = db.query(expr)
    assert len(result) == 2
    for pattern in result:
        assert pattern.classes() == {"TA", "Grad", "Student", "Person", "SS#"}
        # Dynamic inheritance: the four person-lattice instances share an OID.
        non_primitive = [v for v in pattern.vertices if v.cls != "SS#"]
        assert len({v.oid for v in non_primitive}) == 1


def test_query_2_specialties_and_student_records(db):
    """Query 2: the heterogeneous OR query of Figure 3."""
    cis = ref("Name").where(value_equals("Name", "CIS"))
    teacher_branch = (
        ref("Section") * ref("Teacher") * ref("Faculty") * ref("Specialty")
    )
    student_branch = ref("Section") * Intersect(
        ref("Student") * ref("GPA"),
        ref("Student") * ref("EarnedCredit"),
    )
    expr = (
        cis * ref("Department") * ref("Course") * (teacher_branch + student_branch)
    ).project(
        ["Section", "Specialty", "GPA", "EarnedCredit"],
        ["Section:Specialty", "Section:GPA", "Section:EarnedCredit"],
    )
    result = db.query(expr)

    assert result.values("Specialty") == {"Databases", "AI"}
    assert result.values("GPA") == {3.5, 3.2, 3.8}
    assert result.values("EarnedCredit") == {60, 90, 45}
    # Sections touched: 101 and 301 carry specialties; 101, 102, 201 carry
    # student records; section 401 (an EE section) must NOT appear.
    assert result.values("Section#") == set()  # projected away
    section_ids = {
        v.oid for p in result for v in p.vertices if v.cls == "Section"
    }
    assert len(section_ids) == 4  # sections 101, 102, 201, 301


def test_query_2_shapes_are_heterogeneous(db):
    """The result mixes Section—Specialty pairs with GPA—Section—EC stars."""
    from repro.core.homogeneity import is_homogeneous

    cis = ref("Name").where(value_equals("Name", "CIS"))
    expr = (
        cis
        * ref("Department")
        * ref("Course")
        * (
            ref("Section") * ref("Teacher") * ref("Faculty") * ref("Specialty")
            + ref("Section")
            * Intersect(ref("Student") * ref("GPA"), ref("Student") * ref("EarnedCredit"))
        )
    ).project(
        ["Section", "Specialty", "GPA", "EarnedCredit"],
        ["Section:Specialty", "Section:GPA", "Section:EarnedCredit"],
    )
    result = db.query(expr).set
    assert not is_homogeneous(result)
    shapes = {frozenset(p.classes()) for p in result}
    assert frozenset({"Section", "Specialty"}) in shapes
    assert frozenset({"Section", "GPA", "EarnedCredit"}) in shapes


def test_query_3_students_teaching_in_major_department(db):
    """Query 3: Π(Student*Person*Name • Student*Department •
    Student*Grad*TA*Teacher*Department)[Name] → {"Alice"}.

    Alice majors in CIS and teaches in CIS; Bob majors in EE but teaches
    in CIS, so the second intersect (over {Student, Department}) drops him.
    """
    expr = (
        (ref("Student") * ref("Person") * ref("Name"))
        & (ref("Student") * ref("Department"))
        & (ref("Student") * ref("Grad") * ref("TA") * ref("Teacher") * ref("Department"))
    ).project(["Name"])
    result = db.query(expr)
    assert result.values("Name") == {"Alice"}


def test_query_4_sections_without_room_or_teacher(db):
    """Query 4: Π(Section#*(Section!Room# + Section!Teacher))[Section#].

    Section 102 has no room; section 201 has no teacher.
    """
    expr = (
        ref("Section#")
        * ((ref("Section") ^ ref("Room#")) + (ref("Section") ^ ref("Teacher")))
    ).project(["Section#"])
    result = db.query(expr)
    assert result.values("Section#") == {102, 201}


def test_query_4_branches_individually(db):
    no_room = db.query(ref("Section") ^ ref("Room#"))
    assert len(no_room) == 1
    no_teacher = db.query(ref("Section") ^ ref("Teacher"))
    assert len(no_teacher) == 1
    assert no_room != no_teacher


def test_query_5_students_taking_6010_and_6020(db):
    """Query 5: divide over {Student} by the two course numbers → Carol."""
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
    expr = Divide(chain, divisor, ["Student"]).project(["Name"])
    result = db.query(expr)
    assert result.values("Name") == {"Carol"}


def test_query_5_dave_excluded(db):
    """Dave is enrolled in 6010 only — his group fails coverage."""
    chain = (
        ref("Name")
        * ref("Person")
        * ref("Student")
        * ref("Enrollment")
        * ref("Course")
        * ref("Course#")
    )
    unprojected = db.query(chain)
    dave_patterns = [
        p
        for p in unprojected
        if any(db.graph.value(v) == "Dave" for v in p.instances_of("Name"))
    ]
    assert len(dave_patterns) == 1  # one enrollment only


def test_closure_query_result_feeds_another_query(db):
    """Closure: a query result is an association-set usable as an operand."""
    from repro.core.expression import Literal

    first = db.query(ref("TA") * ref("Grad")).set
    second = (
        Literal(first, "ta-grads", head="TA", tail="Grad")
        * ref("Student")
        * ref("Person")
    ).project(["Person"])
    result = db.query(second)
    assert len(result) == 2
