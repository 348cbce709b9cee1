"""PatternArena: interning, encode/decode, event maintenance, reset."""

import pytest

from repro.core.assoc_set import AssociationSet
from repro.core.edges import Polarity, complement, inter
from repro.errors import PatternError
from repro.core.pattern import Pattern
from repro.datasets import figure7, university
from repro.engine.database import Database, MutationEvent
from repro.exec import PatternArena
from repro.exec.arena import CompactSet, make_key


@pytest.fixture()
def fig7():
    return figure7()


@pytest.fixture()
def arena(fig7):
    return PatternArena(fig7.graph)


class TestInterning:
    def test_vids_are_dense_and_stable(self, fig7, arena):
        first = arena.vid(fig7.a1)
        second = arena.vid(fig7.b1)
        assert first != second
        assert arena.vid(fig7.a1) == first  # repeat lookups never re-intern
        assert sorted([first, second]) == [0, 1]

    def test_eid_is_direction_insensitive(self, fig7, arena):
        forward = arena.eid(inter(fig7.a1, fig7.b1))
        backward = arena.eid(inter(fig7.b1, fig7.a1))
        assert forward == backward

    def test_eid_distinguishes_polarity(self, fig7, arena):
        regular = arena.eid(inter(fig7.a1, fig7.b1))
        complemented = arena.eid(complement(fig7.a1, fig7.b1))
        assert regular != complemented

    def test_eid_of_pair_rejects_self_loops(self, fig7, arena):
        v = arena.vid(fig7.a1)
        with pytest.raises(PatternError):
            arena.eid_of_pair(v, v, Polarity.REGULAR)


class TestEncodeDecode:
    def test_single_vertex_pattern_collapses_to_int(self, fig7, arena):
        key = arena.encode_pattern(Pattern.inner(fig7.a1))
        assert isinstance(key, int)
        assert arena.decode_key(key) == Pattern.inner(fig7.a1)

    def test_make_key_collapses_only_edge_free_singletons(self, fig7, arena):
        assert isinstance(make_key(frozenset((0,)), frozenset()), int)
        assert isinstance(make_key(frozenset((0, 1)), frozenset()), tuple)

    def test_round_trip_mixed_polarity_pattern(self, fig7, arena):
        f = fig7
        pattern = Pattern.build(inter(f.a1, f.b1), complement(f.b1, f.c1))
        assert arena.decode_key(arena.encode_pattern(pattern)) == pattern

    def test_round_trip_preserves_derived_flag(self, fig7, arena):
        derived = inter(fig7.a1, fig7.b1).as_derived()
        pattern = Pattern.build(derived)
        decoded = arena.decode_key(arena.encode_pattern(pattern))
        assert decoded == pattern
        assert all(e.derived for e in decoded.edges)

    def test_decode_key_memoizes(self, fig7, arena):
        key = arena.encode_pattern(Pattern.build(inter(fig7.a1, fig7.b1)))
        assert arena.decode_key(key) is arena.decode_key(key)

    def test_decode_set_memoizes_whole_sets(self, fig7, arena):
        aset = AssociationSet(
            [Pattern.build(inter(fig7.a1, fig7.b1)), Pattern.inner(fig7.a2)]
        )
        cset = arena.encode_set(aset)
        assert arena.decode_set(cset) == aset
        assert arena.decode_set(cset) is arena.decode_set(cset)

    def test_encode_set_round_trip(self, fig7, arena):
        aset = AssociationSet(
            [
                Pattern.build(inter(fig7.a1, fig7.b1), inter(fig7.b1, fig7.c1)),
                Pattern.inner(fig7.a2),
            ]
        )
        assert arena.decode_set(arena.encode_set(aset)) == aset


class TestCompactSet:
    def test_equality_and_hash_follow_keys(self):
        a = CompactSet(frozenset({1, 2}))
        b = CompactSet(frozenset({2, 1}))
        assert a == b
        assert hash(a) == hash(b)
        assert len(a.keys) == 2

    def test_empty(self):
        assert CompactSet.empty().keys == frozenset()


class TestEventMaintenance:
    """Mutations routed through Database patch the executor's arena."""

    @pytest.fixture()
    def db(self):
        return Database.from_dataset(university())

    def test_insert_patches_cached_extent(self, db):
        arena = db.executor.arena
        before = arena.extent_cset("TA")
        created = db.insert("TA")
        after = arena.extent_cset("TA")
        assert len(after.keys) == len(before.keys) + 1
        assert arena.vid(created["TA"]) in after.keys

    def test_delete_patches_cached_extent(self, db):
        arena = db.executor.arena
        victim = sorted(db.graph.extent("TA"))[0]
        before = arena.extent_cset("TA")
        db.delete(victim)
        after = arena.extent_cset("TA")
        assert arena.vid(victim) not in after.keys
        assert len(after.keys) == len(before.keys) - 1

    def test_mutation_clears_decoded_set_memo(self, db):
        arena = db.executor.arena
        cset = arena.extent_cset("TA")
        first = arena.decode_set(cset)
        assert arena.decode_set(cset) is first  # memo hit between mutations
        arena.apply(MutationEvent("update", (min(db.graph.extent("GPA")),)))
        assert arena._decoded_sets == {}
        again = arena.decode_set(cset)
        assert again == first
        assert arena.decode_set(cset) is again

    def test_link_and_unlink_patch_adjacency_and_edge_set(self, db):
        arena = db.executor.arena
        ta = sorted(db.graph.extent("TA"))[0]
        grad = sorted(db.graph.extent("Grad"))[-1]
        assoc = db.schema.resolve("TA", "Grad")
        adj = arena.adjacency(assoc)
        edges = arena.edge_cset(assoc)
        va, vb = arena.vid(ta), arena.vid(grad)
        if vb in adj.get(va, ()):
            db.unlink(ta, grad)
            assert vb not in arena.adjacency(assoc).get(va, ())
            assert len(arena.edge_cset(assoc).keys) == len(edges.keys) - 1
            db.link(ta, grad)
        else:
            db.link(ta, grad)
            assert vb in arena.adjacency(assoc).get(va, ())
            assert len(arena.edge_cset(assoc).keys) == len(edges.keys) + 1
            masks = arena.adjacency_masks(assoc)
            assert masks[va] & (1 << vb)
            db.unlink(ta, grad)
            assert not arena.adjacency_masks(assoc).get(va, 0) & (1 << vb)


class TestDerivedStructures:
    @pytest.fixture()
    def uni(self):
        return Database.from_dataset(university())

    def test_extent_cset_is_cached_across_reads(self, uni):
        arena = PatternArena(uni.graph)
        assert arena.extent_cset("TA") is arena.extent_cset("TA")
        assert len(arena.extent_cset("TA")) == len(list(uni.graph.extent("TA")))

    def test_edge_cset_matches_graph_edges(self, uni):
        arena = PatternArena(uni.graph)
        assoc = uni.schema.resolve("TA", "Grad")
        edges = arena.edge_cset(assoc)
        assert arena.edge_cset(assoc) is edges
        assert len(edges) == len(list(uni.graph.edges(assoc)))


class TestReset:
    def test_reset_drops_interning_and_memos(self, fig7):
        arena = PatternArena(fig7.graph)
        pattern = Pattern.build(inter(fig7.a1, fig7.b1))
        key = arena.encode_pattern(pattern)
        arena.decode_key(key)
        arena.extent_cset("A")
        arena.edge_cset(fig7.schema.resolve("A", "B"))
        arena.reset()
        assert arena._iids == []
        assert arena._decoded == {}
        assert arena._decoded_sets == {}
        assert arena._extent_csets == {}
        assert arena._edge_csets == {}
        # the arena reinterns from scratch and still round-trips
        assert arena.decode_key(arena.encode_pattern(pattern)) == pattern

    def test_reset_drops_extent_and_edge_sets(self, uni):
        arena = PatternArena(uni.graph)
        extent = arena.extent_cset("TA")
        arena.edge_cset(uni.schema.resolve("TA", "Grad"))
        arena.reset()
        assert not arena._extent_csets and not arena._edge_csets
        # rebuilt on the next read, not served from before the reset
        assert arena.extent_cset("TA") is not extent

    def test_reset_zeroes_gauges(self):
        db = Database.from_dataset(university())
        result = db.query("TA * Grad").set
        decoded = db.metrics.gauge("repro_arena_decoded_patterns")
        assert db.metrics.gauge("repro_arena_vertices").value() > 0
        assert decoded.value() == len(db.executor.arena._decoded) == len(result)
        # a plan closed over the kernels decodes only its root's patterns
        projected = db.query("pi(TA * Grad * Student)[Grad]", use_cache=False).set
        held = len(db.executor.arena._decoded)
        assert decoded.value() == held <= len(result) + len(projected)
        db.executor.arena.reset()
        assert db.metrics.gauge("repro_arena_vertices").value() == 0
        assert db.metrics.gauge("repro_arena_edges").value() == 0
        assert decoded.value() == 0
