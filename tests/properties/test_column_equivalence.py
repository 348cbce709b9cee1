"""Differential properties for the column store and compiled σ masks.

Three batteries, all demanding bit-identical :class:`AssociationSet`
results between the compiled column-mask σ path and the logical
reference ``Expr.evaluate`` (the per-pattern object path):

1. randomized valued graphs × randomized predicate trees (comparisons in
   both orientations, IN-lists, and/or/not, mixed value types including
   NaN, big ints, bools, strings and None);
2. mid-stream mutations — event-driven value updates, inserts, deletes
   and link changes must keep the incrementally-maintained columns in
   lockstep with the graph;
3. ``rollback()`` and out-of-band writes — state changes that bypass the
   event stream must trip the version guard and rebuild the columns.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.expression import Select, ref
from repro.core.predicates import (
    And,
    ClassValues,
    Comparison,
    Const,
    Not,
    Or,
    ValueUnion,
)
from repro.datagen import SyntheticDataset
from repro.engine.database import Database
from repro.exec import Executor, compiled_select_probe
from repro.objects.graph import ObjectGraph
from repro.schema.graph import SchemaGraph

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Deliberately adversarial value pool: None (invalid rows), bools (int
#: promotion), a big int past the 64-bit array range (object promotion),
#: NaN (object promotion + identity-sensitive ``in``), mixed int/float
#: and strings (TypeError → False ordering comparisons).
VALUE_POOL = (
    None,
    True,
    False,
    0,
    1,
    2,
    -3,
    10**20,
    0.5,
    -1.5,
    float("nan"),
    "",
    "a",
    "zz",
)

#: Constants predicates compare against: the pool itself plus values that
#: appear in no column (empty equality groups, out-of-range bisects).
CONST_POOL = VALUE_POOL + (99, -99.5, "absent",)


def valued_schema() -> SchemaGraph:
    schema = SchemaGraph("valued")
    schema.add_domain_class("P")
    schema.add_domain_class("Q")
    schema.add_entity_class("E")
    schema.add_association("P", "E", "PE")
    schema.add_association("E", "Q", "EQ")
    return schema


@st.composite
def valued_graphs(draw, max_extent: int = 4) -> ObjectGraph:
    """A random object graph whose primitive classes carry mixed values."""
    schema = valued_schema()
    graph = ObjectGraph(schema)
    oid = 0
    for cls in ("P", "Q"):
        for _ in range(draw(st.integers(min_value=1, max_value=max_extent))):
            oid += 1
            graph.add_instance(cls, oid, draw(st.sampled_from(VALUE_POOL)))
    for _ in range(draw(st.integers(min_value=1, max_value=max_extent))):
        oid += 1
        graph.add_instance("E", oid)
    for left, right, name in (("P", "E", "PE"), ("E", "Q", "EQ")):
        assoc = schema.resolve(left, right, name)
        for a in sorted(graph.extent(left)):
            for b in sorted(graph.extent(right)):
                if draw(st.booleans()):
                    graph.add_edge(assoc, a, b)
    return graph


@st.composite
def sigma_predicates(draw, max_depth: int = 2):
    """A random compilable predicate tree over ``ClassValues("P"/"Q")``."""
    consts = st.sampled_from(CONST_POOL)
    # Referencing "Q" inside σ(P) compiles to an always-empty operand —
    # the degenerate folding paths are part of the contract under test.
    cls = draw(st.sampled_from(("P", "P", "P", "Q")))
    op = st.sampled_from(("=", "!=", "<", "<=", ">", ">="))

    def leaf():
        shape = draw(st.integers(min_value=0, max_value=2))
        if shape == 0:
            return Comparison(ClassValues(cls), draw(op), Const(draw(consts)))
        if shape == 1:
            return Comparison(Const(draw(consts)), draw(op), ClassValues(cls))
        pool = draw(st.lists(consts, min_size=1, max_size=3))
        return Comparison(
            ClassValues(cls), "in", ValueUnion(*(Const(v) for v in pool))
        )

    def tree(depth):
        if depth == 0 or draw(st.booleans()):
            return leaf()
        combiner = draw(st.integers(min_value=0, max_value=2))
        if combiner == 0:
            return And(tree(depth - 1), tree(depth - 1))
        if combiner == 1:
            return Or(tree(depth - 1), tree(depth - 1))
        return Not(tree(depth - 1))

    return tree(max_depth)


def _assert_matches_reference(
    executor: Executor, graph: ObjectGraph, predicate
) -> None:
    """Compiled σ, cold and warm, == ``evaluate`` for σ(P)[predicate]."""
    expr = Select(ref("P"), predicate)
    reference = expr.evaluate(graph)
    assert executor.run(expr, use_cache=False) == reference, (
        f"compiled σ diverged on {predicate}"
    )
    assert executor.run(expr) == reference, f"cached σ diverged on {predicate}"


# ----------------------------------------------------------------------
# 1. random graphs × random predicates
# ----------------------------------------------------------------------


@given(st.data())
@RELAXED
def test_compiled_select_matches_object_path_and_reference(data):
    graph = data.draw(valued_graphs())
    executor = Executor(graph)
    for _ in range(3):
        predicate = data.draw(sigma_predicates())
        expr = Select(ref("P"), predicate)
        # every generated shape must lower to a compact σ — the mask path,
        # unless the value-index probe wins first on a plain equality
        assert compiled_select_probe(expr) == "P"
        assert executor.plan(expr).strategy in (
            "compact-select",
            "compact-kernel",
        )
        _assert_matches_reference(executor, graph, predicate)


# ----------------------------------------------------------------------
# 2. mid-stream mutations keep columns in lockstep
# ----------------------------------------------------------------------


@given(st.data())
@RELAXED
def test_columns_stay_correct_across_event_driven_mutations(data):
    graph = data.draw(valued_graphs())
    db = Database.from_dataset(
        SyntheticDataset(graph.schema, graph, 0, 0.0, 0)
    )
    predicates = [data.draw(sigma_predicates()) for _ in range(2)]

    def check():
        for predicate in predicates:
            expr = Select(ref("P"), predicate)
            assert db.query(expr, use_cache=False).set == expr.evaluate(db.graph)
            assert db.query(expr).set == expr.evaluate(db.graph)

    # Plain-equality predicates may plan through the value index and
    # never touch the columns — materialize explicitly so the event
    # maintenance below is always exercised.
    db.executor.arena.columns.column("P")
    check()
    assert db.executor.arena.columns.is_materialized("P")

    # update: retype an existing value (may force an object promotion)
    target = sorted(db.graph.extent("P"))[0]
    db.update_value(target, data.draw(st.sampled_from(VALUE_POOL)))
    check()

    # insert: a fresh row appended to the column
    db.insert_value("P", data.draw(st.sampled_from(VALUE_POOL)))
    check()

    # delete: the victim's row goes dead, masks must not resurrect it
    victim = sorted(db.graph.extent("P"))[-1]
    db.delete(victim)
    check()

    # link/unlink touch no column but must not disturb the masks either
    p = sorted(db.graph.extent("P"))[0]
    e = sorted(db.graph.extent("E"))[0]
    if (p, e) in set(db.graph.edges(db.schema.resolve("P", "E", "PE"))):
        db.unlink(p, e)
    else:
        db.link(p, e)
    check()


# ----------------------------------------------------------------------
# 3. rollback / out-of-band writes reset the columns
# ----------------------------------------------------------------------


@given(st.data())
@RELAXED
def test_rollback_resets_columns_through_version_guard(data):
    graph = data.draw(valued_graphs())
    db = Database.from_dataset(
        SyntheticDataset(graph.schema, graph, 0, 0.0, 0)
    )
    predicate = data.draw(sigma_predicates())
    expr = Select(ref("P"), predicate)
    assert db.query(expr, use_cache=False).set == expr.evaluate(db.graph)

    saved = db.snapshot()
    target = sorted(db.graph.extent("P"))[0]
    db.update_value(target, data.draw(st.sampled_from(VALUE_POOL)))
    db.insert_value("P", data.draw(st.sampled_from(VALUE_POOL)))
    assert db.query(expr, use_cache=False).set == expr.evaluate(db.graph)

    # rollback emits no events: only the version guard can save us
    db.rollback(saved)
    _assert_matches_reference(db.executor, db.graph, predicate)


@given(st.data())
@RELAXED
def test_out_of_band_value_write_resets_columns(data):
    graph = data.draw(valued_graphs())
    executor = Executor(graph)
    predicate = data.draw(sigma_predicates())
    expr = Select(ref("P"), predicate)
    executor.arena.columns.column("P")  # equality σ may plan via value index
    assert executor.run(expr, use_cache=False) == expr.evaluate(graph)
    assert executor.arena.columns.is_materialized("P")

    # write straight to the graph, bypassing every event channel
    target = sorted(graph.extent("P"))[0]
    graph.set_value(target, data.draw(st.sampled_from(VALUE_POOL)))
    _assert_matches_reference(executor, graph, predicate)
