"""Differential property: the physical executor agrees with the reference.

The logical evaluator (:meth:`Expr.evaluate`) is the semantic ground
truth; the executor in :mod:`repro.exec` is an accelerator.  These
properties quantify over random object graphs and random expressions
covering all nine operators (via the shared strategies) and demand
bit-identical results from every execution mode — cold cache, warm
cache and cache bypassed.

A second battery drives the same differential with the deterministic
:mod:`repro.datagen` generators (the benchmark datasets), plus
invalidation under interleaved mutations.
"""

import random

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.expression import ClassExtent, Literal
from repro.datagen import chain_dataset, figure10_dataset, workload
from repro.exec import Executor, canonicalize
from tests.properties.expr_strategies import chain_expressions, expressions
from tests.properties.strategies import object_graphs

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(st.data())
@RELAXED
def test_executor_matches_reference_all_modes(data):
    graph = data.draw(object_graphs(max_extent=3))
    expr = data.draw(expressions(depth=2))
    reference = expr.evaluate(graph)
    executor = Executor(graph)
    assert executor.run(expr) == reference, "cold cache diverged"
    assert executor.run(expr) == reference, "warm cache diverged"
    assert executor.run(expr, use_cache=False) == reference, "uncached diverged"


@given(st.data())
@RELAXED
def test_plan_keys_are_canonical_forms(data):
    """The planner keys each node from its children's keys in one step;
    that must give the same key canonicalizing the node's subtree does."""
    graph = data.draw(object_graphs(max_extent=3, valued=True))
    expr = data.draw(st.one_of(expressions(depth=3), chain_expressions()))
    for node, _ in Executor(graph).plan(expr).walk():
        if node.key is None:
            assert isinstance(node.expr, (ClassExtent, Literal))
        else:
            assert node.key == canonicalize(node.expr), str(node.expr)


@given(st.data())
@RELAXED
def test_executor_stays_correct_across_mutations(data):
    """Interleave queries with out-of-band graph mutations.

    Direct ``graph.add_edge``/``remove_edge`` calls bypass the mutation
    event stream; the version guard must still keep every answer fresh.
    """
    graph = data.draw(object_graphs(max_extent=3))
    expr = data.draw(expressions(depth=2))
    executor = Executor(graph)
    assert executor.run(expr) == expr.evaluate(graph)

    assoc = graph.schema.resolve("A", "B")
    a = sorted(graph.extent("A"))[0]
    b = sorted(graph.extent("B"))[0]
    edges = set(graph.edges(assoc))
    if (a, b) in edges or (b, a) in edges:
        graph.remove_edge(assoc, a, b)
    else:
        graph.add_edge(assoc, a, b)
    assert executor.run(expr) == expr.evaluate(graph), "stale after mutation"


def test_executor_matches_reference_on_datagen_workloads():
    """Random-walk query workloads over the benchmark datasets."""
    for ds in (
        chain_dataset(n_classes=5, extent_size=12, density=0.15, seed=3),
        figure10_dataset(extent_size=10, density=0.2, seed=7),
    ):
        executor = Executor(ds.graph)
        for expr in workload(ds.schema, n_queries=20, max_hops=4, seed=11):
            reference = expr.evaluate(ds.graph)
            assert executor.run(expr) == reference


def test_executor_cache_survives_repeated_random_queries():
    """Re-running a shuffled workload hits the cache, never changes answers."""
    ds = chain_dataset(n_classes=4, extent_size=10, density=0.2, seed=5)
    queries = workload(ds.schema, n_queries=10, seed=2)
    executor = Executor(ds.graph)
    reference = {str(q): q.evaluate(ds.graph) for q in queries}
    rng = random.Random(9)
    for _ in range(3):
        rng.shuffle(queries)
        for expr in queries:
            assert executor.run(expr) == reference[str(expr)]
