"""OQL parser edge cases beyond the main grammar tests."""

import pytest

from repro.core.expression import Project, Select
from repro.core.predicates import Const
from repro.errors import OQLSyntaxError
from repro.oql import compile_oql


@pytest.fixture(scope="module")
def schema(uni):
    return uni.schema


class TestNesting:
    def test_sigma_inside_pi_inside_sigma(self, schema):
        expr = compile_oql(
            "sigma(pi(sigma(GPA)[GPA > 3])[GPA])[GPA < 4]", schema
        )
        assert isinstance(expr, Select)
        assert isinstance(expr.operand, Project)

    def test_deeply_parenthesized(self, schema):
        expr = compile_oql("(((TA)))", schema)
        assert str(expr) == "TA"

    def test_unary_operand_of_binary(self, schema):
        expr = compile_oql("sigma(Name)[Name = 'CIS'] * Department", schema)
        assert expr.left.__class__ is Select


class TestLiterals:
    def test_negative_numbers(self, schema):
        expr = compile_oql("sigma(GPA)[GPA > -1]", schema)
        assert expr.predicate.right == Const(-1)

    def test_negative_float(self, schema):
        expr = compile_oql("sigma(GPA)[GPA > -2.5]", schema)
        assert expr.predicate.right == Const(-2.5)

    def test_minus_without_number_rejected(self, schema):
        with pytest.raises(OQLSyntaxError):
            compile_oql("sigma(GPA)[GPA > -]", schema)

    def test_float_vs_member_access(self, schema):
        expr = compile_oql("sigma(GPA)[GPA = 3.5]", schema)
        assert expr.predicate.right == Const(3.5)


class TestEvaluationOfNestedForms(object):
    def test_nested_sigma_pi_semantics(self, uni):
        from repro.engine.database import Database

        db = Database.from_dataset(uni)
        result = db.query("sigma(pi(sigma(GPA)[GPA > 3])[GPA])[GPA < 3.6]")
        values = {db.graph.value(v) for p in result for v in p.vertices}
        assert values == {3.2, 3.4, 3.5}

    def test_pi_of_union_of_pi(self, uni):
        from repro.engine.database import Database

        db = Database.from_dataset(uni)
        result = db.query(
            "pi(pi(Section * Teacher)[Section] + pi(Section * Student)[Section])"
            "[Section]"
        )
        assert len(result) == 5  # every section has a teacher or students


class TestWhitespaceAndLayout:
    def test_multiline_query(self, schema):
        expr = compile_oql(
            """
            pi(
               TA * Grad
            )[TA]
            """,
            schema,
        )
        assert isinstance(expr, Project)

    def test_no_spaces_at_all(self, schema):
        expr = compile_oql("pi(TA*Grad)[TA]", schema)
        assert isinstance(expr, Project)

    def test_dense_annotation(self, schema):
        expr = compile_oql("TA*[isa_TA_Grad(TA,Grad)]Grad", schema)
        assert expr.spec.name == "isa_TA_Grad"


class TestPrecedenceInteraction:
    def test_divide_chain_left_associative(self, schema):
        from repro.core.expression import Divide

        expr = compile_oql("Student / Course# / Section#", schema)
        assert isinstance(expr, Divide)
        assert isinstance(expr.left, Divide)

    def test_mixed_full_ladder(self, schema):
        expr = compile_oql(
            "TA * Grad | Student ! Teacher & Person / Course# - Section# + Name",
            schema,
        )
        # + is the loosest binder: the root must be a Union.
        from repro.core.expression import Union

        assert isinstance(expr, Union)
