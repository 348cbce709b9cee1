"""Differential properties for sharded scatter-gather execution.

Sharded ``Database.query(shards=N)`` must be *bit-identical* to the
single-process path — the algebra distributes over the hash
partitioning, the shuffle re-partitioning is exact, and the gather is a
plain set union — so every battery here demands equal
:class:`AssociationSet` results:

1. randomized chain graphs across 1, 2 and 4 shards with the planner
   free to choose its strategy;
2. each distributed strategy (co-partitioned, broadcast, shuffle)
   forced in turn, asserting the plan really used it;
3. mutation-event forwarding — inserts, links, unlinks and deletes
   applied between queries must leave the worker replicas exactly as
   incremental maintenance leaves the coordinator.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.expression import Intersect, Union, ref
from repro.datagen import chain_dataset
from repro.engine.database import Database
from repro.shard import ShardFilter, shard_of

RELAXED = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

SHARD_COUNTS = (1, 2, 4)


def _chain_db(seed: int) -> Database:
    ds = chain_dataset(n_classes=3, extent_size=10, density=0.25, seed=seed)
    return Database(ds.schema, ds.graph)


def _queries():
    chain = ref("K0") * ref("K1") * ref("K2")
    pairs = ref("K1") * ref("K2")
    return [
        chain,
        Intersect(chain, pairs, ("K1", "K2")),
        Union(pairs, chain),
    ]


def _assert_sharded_matches(db: Database, shards: int) -> None:
    for expr in _queries():
        single = db.query(expr).set
        sharded = db.query(expr, shards=shards).set
        assert sharded == single, (
            f"shards={shards}: {expr} diverged "
            f"({len(sharded)} vs {len(single)} patterns)"
        )


@given(st.integers(min_value=0, max_value=31))
@RELAXED
def test_sharded_matches_single_process(seed):
    db = _chain_db(seed)
    try:
        for shards in SHARD_COUNTS:
            _assert_sharded_matches(db, shards)
    finally:
        db.close()


@given(st.integers(min_value=0, max_value=31))
@RELAXED
def test_every_forced_strategy_is_exact(seed):
    """co-partitioned / broadcast / shuffle each forced in turn.

    ``shard_strategy`` pins the annotation, and the plan is checked to
    actually carry the forced strategy — a silent fall-back to
    single-process execution would make the equality vacuous.
    """
    db = _chain_db(seed)
    chain = ref("K0") * ref("K1") * ref("K2")
    macro = Intersect(chain, ref("K1") * ref("K2"), ("K1", "K2"))
    cases = [
        ("broadcast", chain),
        ("co-partitioned", macro),
        ("shuffle", macro),
    ]
    try:
        for shards in (2, 4):
            for strategy, expr in cases:
                plan = db._dist_plan(expr, shards, strategy)
                assert plan is not None, f"no {strategy} plan for {expr}"
                assert any(
                    node.strategy == strategy for node in plan.root.walk()
                ), f"forced {strategy} absent from the plan for {expr}"
                single = db.query(expr).set
                sharded = db.query(
                    expr, shards=shards, shard_strategy=strategy
                ).set
                assert sharded == single, (
                    f"{strategy} at {shards} shards diverged on {expr}"
                )
    finally:
        db.close()


@given(
    st.integers(min_value=0, max_value=31),
    st.integers(min_value=2, max_value=4),
)
@RELAXED
def test_mutation_forwarding_keeps_replicas_exact(seed, shards):
    """Inserts / links / unlinks / deletes between queries stay exact."""
    db = _chain_db(seed)
    try:
        db.start_shards(shards)
        _assert_sharded_matches(db, shards)

        created = db.insert("K0")
        partner = db.insert("K1")
        db.link(created["K0"], partner["K1"])
        _assert_sharded_matches(db, shards)

        # Any K1 but the partner: deleting the partner here would cascade
        # the edge the unlink below removes.
        victim = min(db.graph.extent("K1") - {partner["K1"]})
        db.delete(victim)
        _assert_sharded_matches(db, shards)

        db.unlink(created["K0"], partner["K1"])
        _assert_sharded_matches(db, shards)

        # Deleting a still-linked instance cascades its edge on every replica.
        db.link(created["K0"], partner["K1"])
        db.delete(partner["K1"])
        _assert_sharded_matches(db, shards)
    finally:
        db.close()


def test_shard_of_is_deterministic_and_total():
    """Placement is stable across calls and covers every shard count."""
    for shards in SHARD_COUNTS:
        for oid in range(200):
            place = shard_of(oid, shards)
            assert 0 <= place < shards
            assert place == shard_of(oid, shards)
    # the Knuth hash spreads consecutive OIDs: no shard starves
    counts = [0, 0, 0, 0]
    for oid in range(200):
        counts[shard_of(oid, 4)] += 1
    assert min(counts) > 0


def test_shard_filters_partition_the_extent():
    """The per-shard σ predicates are disjoint and exhaustive."""
    db = _chain_db(seed=3)
    try:
        for shards in (2, 4):
            filters = [ShardFilter("K0", i, shards) for i in range(shards)]
            whole = db.query(ref("K0")).set
            parts = [
                {
                    p
                    for p in whole
                    if f.evaluate(p, db.graph)
                }
                for f in filters
            ]
            assert set().union(*parts) == set(whole)
            for i in range(shards):
                for j in range(i + 1, shards):
                    assert not parts[i] & parts[j]
    finally:
        db.close()
