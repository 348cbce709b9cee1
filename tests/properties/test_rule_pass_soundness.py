"""Soundness of the physical planner's rule pass.

:func:`repro.optimizer.rewrites.rule_pass` rewrites every served query
(select-pushdown, project-pushdown and the rotations the latter needs)
with no search and no cost model, so it must be exact on every input.
The property draws σ and Π over Associate chains with composite, σ'd,
unioned and projected operands (:func:`chain_expressions`) and demands
that both the rewritten tree and its compact plan reproduce
:meth:`Expr.evaluate` of the original.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, event, given, settings

from repro.exec import Executor
from repro.optimizer.rewrites import rule_pass
from tests.properties.expr_strategies import chain_expressions
from tests.properties.strategies import object_graphs


@given(st.data())
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_rule_pass_and_its_plan_match_the_reference(data):
    graph = data.draw(object_graphs(max_extent=3, valued=True))
    expr = data.draw(chain_expressions())
    reference = expr.evaluate(graph)
    fired: list[str] = []
    rewritten = rule_pass(expr, graph, fired)
    event(f"rules fired: {len(fired)}")
    assert (rewritten is expr) == (not fired)
    assert rewritten.evaluate(graph) == reference, f"{expr} -> {rewritten}"
    executor = Executor(graph)
    assert executor.run(expr, use_cache=False) == reference
    assert executor.run(expr) == reference
