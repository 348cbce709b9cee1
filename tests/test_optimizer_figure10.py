"""FIG10: the paper's §4 optimization example, end to end.

    expr = A * (B*E*F + B * (C*D*H • C*G))
         = A * (B*E*F + B*C*D*H • B*C*G)            (law d)
         = A*B*E*F + A*(B*C*D*H • B*C*G)            (law a)
         = A*B*E*F + A*B*C*D*H • A*B*C*G            (law d)

All four forms must evaluate identically; the rewrite closure must contain
the paper's final parallel-friendly form; and both union branches of that
form must be homogeneous association-sets (the paper's parallelism
argument).
"""

import pytest

from repro.core.expression import Associate, Intersect, Union, ref
from repro.core.homogeneity import is_homogeneous
from repro.core.operators import a_union
from repro.datagen import figure10_dataset
from repro.optimizer import Optimizer


@pytest.fixture(scope="module")
def ds():
    return figure10_dataset(extent_size=8, density=0.2, seed=7)


def original_expr():
    return ref("A") * (
        ref("B") * ref("E") * ref("F")
        + ref("B") * Intersect(ref("C") * ref("D") * ref("H"), ref("C") * ref("G"))
    )


def step1_expr():
    """A * (B*E*F + (B*C*D*H •{B,C} B*C*G))."""
    return ref("A") * (
        ref("B") * ref("E") * ref("F")
        + Intersect(
            ref("B") * (ref("C") * ref("D") * ref("H")),
            ref("B") * (ref("C") * ref("G")),
            ["B", "C"],
        )
    )


def step2_expr():
    """A*B*E*F + A*(B*C*D*H •{B,C} B*C*G)."""
    return ref("A") * (ref("B") * ref("E") * ref("F")) + ref("A") * Intersect(
        ref("B") * (ref("C") * ref("D") * ref("H")),
        ref("B") * (ref("C") * ref("G")),
        ["B", "C"],
    )


def final_expr():
    """A*B*E*F + (A*B*C*D*H •{A,B,C} A*B*C*G)."""
    return ref("A") * (ref("B") * ref("E") * ref("F")) + Intersect(
        ref("A") * (ref("B") * (ref("C") * ref("D") * ref("H"))),
        ref("A") * (ref("B") * (ref("C") * ref("G"))),
        ["A", "B", "C"],
    )


def test_all_four_forms_agree(ds):
    reference = original_expr().evaluate(ds.graph)
    assert reference  # the workload is non-trivial
    for form in (step1_expr, step2_expr, final_expr):
        assert form().evaluate(ds.graph) == reference


def test_rewrite_closure_reaches_final_form(ds):
    optimizer = Optimizer(ds.graph, max_candidates=400)
    exprs = {candidate.expr for candidate in optimizer.equivalents(original_expr())}
    assert final_expr() in exprs


def test_final_form_branches_are_homogeneous(ds):
    """§4: each A-Union branch of the final expression "produces a
    homogeneous association-set with simpler structure"."""
    final = final_expr()
    assert isinstance(final, Union)
    left = final.left.evaluate(ds.graph)
    right = final.right.evaluate(ds.graph)
    assert is_homogeneous(left)
    for pattern in right:
        assert pattern.classes() == {"A", "B", "C", "D", "H", "G"}


def test_final_form_branches_evaluate_independently(ds):
    """§4: the final form is "particularly suitable for a parallel system" —
    its two A-Union branches, evaluated separately and lumped together,
    give the whole final form and the original expression."""
    final = final_expr()
    separately = a_union(final.left.evaluate(ds.graph), final.right.evaluate(ds.graph))
    assert separately == final.evaluate(ds.graph)
    assert separately == original_expr().evaluate(ds.graph)


def test_original_form_is_heterogeneous(ds):
    """The unrewritten inner union mixes chain shapes with branch shapes."""
    inner = ref("B") * ref("E") * ref("F") + ref("B") * Intersect(
        ref("C") * ref("D") * ref("H"), ref("C") * ref("G")
    )
    result = inner.evaluate(ds.graph)
    assert not is_homogeneous(result)


def test_optimizer_equivalents_all_agree(ds):
    optimizer = Optimizer(ds.graph, max_candidates=60)
    reference = original_expr().evaluate(ds.graph)
    for candidate in optimizer.equivalents(original_expr()):
        assert candidate.expr.evaluate(ds.graph) == reference, str(candidate.expr)


def test_optimizer_never_worse_than_original(ds):
    optimizer = Optimizer(ds.graph, max_candidates=200)
    best = optimizer.optimize(original_expr())
    original_estimate = optimizer.cost_model.estimate(original_expr())
    assert best.estimate.cost <= original_estimate.cost
