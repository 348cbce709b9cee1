"""Unit tests for the sharded scatter-gather subsystem.

The exactness batteries live in
``tests/properties/test_shard_equivalence.py``; this module covers the
pieces in isolation — partitioning, the wire codec, the distributed
planner's annotations, pool lifecycle/observability, and the sharded
EXPLAIN ANALYZE rendering.
"""

import pytest

from repro.core.expression import Intersect, Select, ref
from repro.core.predicates import Callback
from repro.datagen import chain_dataset
from repro.engine.database import Database
from repro.shard import DistPlanner, ShardFilter, ShardPool, shard_of
from repro.shard.wire import (
    decode_pattern,
    decode_result,
    encode_pattern,
    encode_result,
)


@pytest.fixture(scope="module")
def chain_db():
    ds = chain_dataset(n_classes=3, extent_size=12, density=0.2, seed=7)
    db = Database(ds.schema, ds.graph)
    yield db
    db.close()


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------


def test_shard_filter_matches_hash_placement(chain_db):
    graph = chain_db.graph
    flt = ShardFilter("K0", 1, 3)
    for pattern in chain_db.query(ref("K0")).set:
        (iid,) = pattern.vertices
        assert flt.evaluate(pattern, graph) == (shard_of(iid.oid, 3) == 1)


def test_shard_filter_requires_a_matching_instance(chain_db):
    graph = chain_db.graph
    flt = ShardFilter("K0", 0, 2)
    # a pattern with no K0 instance never matches, whichever the shard
    for pattern in chain_db.query(ref("K1")).set:
        assert not flt.evaluate(pattern, graph)


def test_shard_filter_value_semantics():
    assert ShardFilter("K0", 1, 4) == ShardFilter("K0", 1, 4)
    assert ShardFilter("K0", 1, 4) != ShardFilter("K0", 2, 4)
    assert hash(ShardFilter("A", 0, 2)) == hash(ShardFilter("A", 0, 2))
    assert str(ShardFilter("A", 0, 2)) == "shard(A) = 0/2"
    # declared dependency stays narrow — the worker-side plan cache
    # would otherwise invalidate on every class
    assert ShardFilter("A", 0, 2).reads_classes() == frozenset(("A",))


# ----------------------------------------------------------------------
# wire codec
# ----------------------------------------------------------------------


def test_wire_round_trips_every_result_pattern(chain_db):
    result = chain_db.query(ref("K0") * ref("K1") * ref("K2")).set
    for pattern in result:
        assert decode_pattern(encode_pattern(pattern)) == pattern


def test_wire_blobs_are_canonical_and_memoized(chain_db):
    result = list(chain_db.query(ref("K0") * ref("K1")).set)
    assert result
    cache: dict = {}
    blobs = encode_result(result, cache)
    assert blobs == encode_result(result, cache)  # warm = pure dict hits
    memo: dict = {}
    decoded = decode_result(blobs, memo)
    assert decoded == frozenset(result)
    # a warm decode hands back the *same* objects (identity, not just
    # equality) — that is what makes repeated gathers cheap
    again = decode_result(blobs, memo)
    assert {id(p) for p in decoded} == {id(p) for p in again}


# ----------------------------------------------------------------------
# distributed planner
# ----------------------------------------------------------------------


def test_planner_broadcasts_the_associate_chain(chain_db):
    expr = ref("K0") * ref("K1") * ref("K2")
    plan = chain_db._dist_plan(expr, 4, None)
    assert plan is not None
    strategies = {n.strategy for n in plan.root.walk() if n.strategy}
    assert "broadcast" in strategies


def test_planner_forces_each_strategy(chain_db):
    macro = Intersect(
        ref("K0") * ref("K1") * ref("K2"),
        ref("K1") * ref("K2"),
        ("K1", "K2"),
    )
    for strategy in ("co-partitioned", "broadcast", "shuffle"):
        plan = chain_db._dist_plan(macro, 2, strategy)
        assert plan is not None, f"no plan when forcing {strategy}"
        assert any(n.strategy == strategy for n in plan.root.walk())


def test_planner_keeps_unshippable_predicates_local(chain_db):
    # a Callback closure cannot be pickled to the workers: the σ must
    # stay on the coordinator, so nothing in the plan is partitioned
    opaque = Select(ref("K0"), Callback(lambda p, g: True))
    plan = chain_db._dist_plan(opaque * ref("K1"), 2, None)
    assert plan is None or not plan.root.partitioned


def test_single_shard_stays_single_process(chain_db):
    expr = ref("K0") * ref("K1")
    reference = chain_db.query(expr).set
    assert chain_db.query(expr, shards=1).set == reference


# ----------------------------------------------------------------------
# pool lifecycle and observability
# ----------------------------------------------------------------------


def test_pool_lifecycle_metrics_and_events():
    ds = chain_dataset(n_classes=3, extent_size=8, density=0.2, seed=9)
    db = Database(ds.schema, ds.graph)
    try:
        db.start_shards(2)
        assert db.metrics.get("repro_shard_workers").value() == 2
        types = [e.type for e in db.events.events()]
        assert "shard.pool_start" in types

        expr = ref("K0") * ref("K1") * ref("K2")
        reference = db.query(expr).set
        assert db.query(expr, shards=2).set == reference
        assert db.metrics.get("repro_shard_tasks_total").total() > 0
        assert db.metrics.get("repro_shard_skew_ratio").value() >= 1.0

        db.stop_shards()
        assert db.metrics.get("repro_shard_workers").value() == 0
        types = [e.type for e in db.events.events()]
        assert "shard.pool_stop" in types
    finally:
        db.close()


def test_pool_scatter_raises_after_stop():
    ds = chain_dataset(n_classes=2, extent_size=6, density=0.3, seed=1)
    pool = ShardPool(ds.schema, ds.graph, 2)
    pool.stop()
    assert pool.closed
    pool.stop()  # idempotent
    with pytest.raises(RuntimeError):
        pool.scatter([ref("K0"), ref("K0")])


def test_default_shards_applies_to_plain_queries():
    ds = chain_dataset(n_classes=3, extent_size=8, density=0.2, seed=4)
    db = Database(ds.schema, ds.graph)
    try:
        expr = ref("K0") * ref("K1") * ref("K2")
        reference = db.query(expr).set
        db.start_shards(2)
        counter = db.metrics.get("repro_shard_tasks_total")
        before = counter.total() if counter is not None else 0.0
        assert db.query(expr).set == reference
        assert db.metrics.get("repro_shard_tasks_total").total() > before
    finally:
        db.close()


# ----------------------------------------------------------------------
# sharded EXPLAIN ANALYZE
# ----------------------------------------------------------------------


def test_sharded_explain_shows_strategy_and_per_shard_cards(chain_db):
    expr = ref("K0") * ref("K1") * ref("K2")
    report = chain_db.query(expr, shards=2, explain=True).report
    assert report is not None
    rendered = report.pretty()
    assert "via broadcast" in rendered
    assert "shards=" in rendered
    cards = [
        node.shard_cards
        for node, _ in report.root.walk()
        if node.shard_cards
    ]
    assert cards, "no per-shard cardinalities in the sharded explain"
    assert all(len(c) == 2 for c in cards)
    # the root actual matches the real result
    assert report.root.actual == len(chain_db.query(expr).set)


def test_sharded_explain_ignores_spans_of_rewritten_worker_trees():
    """A worker's rule pass may rewrite its expression (here Π over the
    broadcast side's chain); its span tree then describes another tree
    and must not label the coordinator's nodes with its numbers."""
    from repro.core.expression import AssocSpec, Associate, Project

    ds = chain_dataset(n_classes=4, extent_size=12, density=0.3, seed=7)
    db = Database(ds.schema, ds.graph)
    try:
        chain = ref("K1") * ref("K2") * ref("K3")
        spec = AssocSpec("K0", "K1", db.schema.resolve("K0", "K1").name)
        expr = Associate(ref("K0"), Project(chain, [("K1",)]), spec)
        assert db.executor.plan(expr.right).rewrites == ("project-pushdown",)
        report = db.query(expr, shards=2, explain=True).report
        assert report.result == expr.evaluate(db.graph)
        truth = {
            str(sub): len(sub.evaluate(db.graph))
            for sub in (chain, chain.left, expr.right)
        }
        for node, _ in report.walk():
            if node.text in truth and node.shard_cards:
                # replicated subtrees run whole on every shard
                assert set(node.shard_cards) == {truth[node.text]}, node.text
    finally:
        db.close()
