"""Property: incremental view maintenance equals recomputation, always.

Random mutation workloads — inserts, links, unlinks, value updates,
deletes, savepoint rollbacks and *out-of-band* graph writes (which
bypass the event stream and must trip the registry's version guard) —
run against a database holding one materialized view per algebra
operator.  After **every** step, each view's incrementally-maintained
patterns must be bit-identical (``frozenset`` equality over structural
:class:`Pattern` equality) to a from-scratch evaluation of its defining
expression.  This is the subsystem's soundness theorem, randomized.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.engine.database import Database
from repro.schema.graph import SchemaGraph

RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

OPS = (
    "insert_a",
    "insert_b",
    "insert_v",
    "link_ab",
    "link_av",
    "unlink_ab",
    "unlink_av",
    "update",
    "delete",
    "snap",
    "rollback",
    "out_of_band",
)

#: One view per operator family — every delta rule and every scoped
#: recompute fallback is exercised by the same random workload.
VIEW_DEFS = {
    "extent": "A",
    "join": "A * B",
    "select": "sigma(A * V)[V < 2.0]",
    "union": "A + B",
    "difference": "(A * B) - sigma(A * B)[V < 1.0]",
    "complement": "A | B",
    # removals from value updates under a complement
    "complement_select": "sigma(V * A)[V < 2.0] | B",
    # a complement under a parent
    "complement_nested": "(A | B) - (sigma(V * A)[V < 1.0] | B)",
    "nonassociate": "A ! B",
    "intersect": "A & B",
    "project": "pi(A * B)[A]",
    "divide": "(A * B) / {A} (A * B)",
}


def workload_schema() -> SchemaGraph:
    schema = SchemaGraph("views")
    schema.add_entity_class("A")
    schema.add_entity_class("B")
    schema.add_domain_class("V")
    schema.add_association("A", "B", "AB")
    schema.add_association("A", "V", "AV")
    return schema


operations = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)


def pick(seq, index):
    seq = sorted(seq)
    return seq[index % len(seq)] if seq else None


def apply_one(db, state, kind, i, j, value) -> bool:
    """Interpret one abstract operation; returns whether anything ran."""
    a = pick(db.graph.extent("A"), i)
    b = pick(db.graph.extent("B"), j)
    v = pick(db.graph.extent("V"), j)
    ab = db.schema.resolve("A", "B")
    av = db.schema.resolve("A", "V")
    if kind == "insert_a":
        db.insert("A")
    elif kind == "insert_b":
        db.insert("B")
    elif kind == "insert_v":
        db.insert_value("V", value)
    elif kind == "link_ab" and a and b and not db.graph.are_associated(ab, a, b):
        db.link(a, b)
    elif kind == "link_av" and a and v and not db.graph.are_associated(av, a, v):
        db.link(a, v)
    elif kind == "unlink_ab" and a and b and db.graph.are_associated(ab, a, b):
        db.unlink(a, b)
    elif kind == "unlink_av" and a and v and db.graph.are_associated(av, a, v):
        db.unlink(a, v)
    elif kind == "update" and v:
        db.update_value(v, value)
    elif kind == "delete" and (a or b or v):
        db.delete(a if i % 3 == 0 and a else b if i % 3 == 1 and b else (v or a or b))
    elif kind == "snap":
        state["snapshot"] = db.snapshot()
    elif kind == "rollback" and state.get("snapshot") is not None:
        db.rollback(state["snapshot"])
    elif kind == "out_of_band":
        # Write straight to the graph, behind the event stream's back;
        # the next maintained mutation must trip the version guard and
        # refresh every view rather than trust its deltas.
        db.graph.add_instance("B")
        db.insert("A")  # the guarded DML that must detect the bypass
    else:
        return False
    return True


def assert_views_exact(db, exprs) -> None:
    for name, expr in exprs.items():
        incremental = db.view(name).patterns
        expected = frozenset(db.query(expr, use_cache=False).set)
        assert incremental == expected, (
            f"view {name!r} diverged: {len(incremental)} maintained "
            f"vs {len(expected)} recomputed"
        )


@given(operations)
@RELAXED
def test_incremental_equals_recompute_at_every_step(ops):
    db = Database.open(schema=workload_schema(), analyze=False)
    # A little seed data so early unlink/delete draws have targets.
    a0 = db.insert("A")["A"]
    b0 = db.insert("B")["B"]
    db.insert_value("V", 1.5)
    db.link(a0, b0)
    exprs = {}
    for name, text in VIEW_DEFS.items():
        exprs[name] = db.compile(text)
        db.create_view(name, exprs[name])
    assert_views_exact(db, exprs)
    state: dict = {"snapshot": None}
    for kind, i, j, value in ops:
        if not apply_one(db, state, kind, i, j, value):
            continue
        assert_views_exact(db, exprs)
        # refresh_view is idempotent against a sound maintainer: the
        # full recompute must change nothing the deltas did not apply.
        for name in exprs:
            maintained = db.view(name).patterns
            assert db.refresh_view(name) == maintained
