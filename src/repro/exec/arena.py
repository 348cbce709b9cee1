"""Compact execution arena: dense integer ids for IIDs and Edges.

The reference representation pays Python object overhead — tuple hashing
for every :class:`~repro.core.identity.IID`, composite hashing for every
:class:`~repro.core.edges.Edge` — on every set operation inside every
operator.  :class:`PatternArena` interns both onto dense ``int`` domains
so the batch kernels (:mod:`repro.exec.kernels`) can run the A-algebra as
plain integer set algebra, the way hypergraph mappings of the paper's
model do.

Encoding
--------
A compact pattern is either

* a raw ``int`` — the vertex id of a single Inner-pattern ``(a)`` (the
  overwhelmingly common leaf case: class extents), or
* a pair ``(vids, eids)`` of ``frozenset[int]`` — the vertex ids and edge
  ids of a multi-vertex pattern.

A :class:`CompactSet` is a frozenset of such keys.  Both forms hash and
compare as fast as CPython can make small ints and int-frozensets go, and
the encoding is trivially serializable/partitionable for later sharding
work.

Maintenance
-----------
The arena is **append-only**: ids are never reused, so compact sets held
by the :class:`~repro.exec.cache.PlanCache` stay valid across unrelated
mutations.  Derived caches (compact extents, per-association adjacency,
compact edge-pattern sets) are maintained incrementally from the
mutation events the owning :class:`~repro.exec.executor.Executor`
forwards, under the graph-version guard: the executor calls
:meth:`reset` when an out-of-band write is detected, which drops the
interning tables entirely (the executor clears the plan cache in the
same breath, so no stale ids can survive).
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Union

from repro.core.assoc_set import AssociationSet
from repro.core.edges import Edge, Polarity
from repro.core.identity import IID
from repro.core.pattern import Pattern
from repro.errors import PatternError
from repro.exec.columns import ColumnStore
from repro.objects.graph import ObjectGraph
from repro.schema.graph import Association

__all__ = ["CompactKey", "CompactSet", "PatternArena"]

#: A compact pattern: a vertex id, or (vertex-id set, edge-id set).
CompactKey = Union[int, "tuple[frozenset[int], frozenset[int]]"]

_EMPTY_FROZEN: frozenset = frozenset()


class CompactSet:
    """An association-set in compact (arena-relative) encoding.

    Thin immutable wrapper over a frozenset of compact keys — the kernels
    read ``.keys`` directly.  Only meaningful relative to the arena that
    produced it; the executor's version guard guarantees arena and set
    never drift apart.
    """

    __slots__ = ("keys",)

    def __init__(self, keys: frozenset) -> None:
        self.keys = keys

    @classmethod
    def empty(cls) -> "CompactSet":
        return cls(_EMPTY_FROZEN)

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[CompactKey]:
        return iter(self.keys)

    def __bool__(self) -> bool:
        return bool(self.keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompactSet):
            return NotImplemented
        return self.keys == other.keys

    def __hash__(self) -> int:
        return hash(self.keys)

    def __repr__(self) -> str:
        return f"CompactSet({len(self.keys)} patterns)"


def key_parts(key: CompactKey) -> tuple[frozenset[int], frozenset[int]]:
    """Normalize a compact key to its (vids, eids) pair."""
    if isinstance(key, int):
        return frozenset((key,)), _EMPTY_FROZEN
    return key


def make_key(vids: frozenset, eids: frozenset) -> CompactKey:
    """Canonical compact key: collapse edge-free singletons to a raw int."""
    if not eids and len(vids) == 1:
        return next(iter(vids))
    return (vids, eids)


class PatternArena:
    """Interner + derived compact structures for one object graph."""

    def __init__(self, graph: ObjectGraph, metrics=None) -> None:
        self.graph = graph
        # --- interning tables (append-only) ---
        self._vids: dict[IID, int] = {}
        self._iids: list[IID] = []
        self._vcls: list[int] = []  # class id per vertex id
        self._cls_ids: dict[str, int] = {}
        self._cls_names: list[str] = []
        # class id → every vid ever interned for it (liveness-agnostic:
        # the class of a vid never changes); kernels intersect against the
        # frozen snapshots to classify vids at C speed
        self._cls_vids: dict[int, set[int]] = {}
        self._cls_vids_frozen: dict[int, frozenset[int]] = {}
        self._eids: dict[tuple[int, int, Polarity], int] = {}
        self._edges: list[Edge] = []
        # eid → its (u, v, polarity) interning key: kernels that walk a
        # pattern's edges (Project's chain templates) read endpoints and
        # polarity as ints instead of hashing Edge objects back to vids
        self._ekeys: list[tuple[int, int, Polarity]] = []
        # Interning must be safe under the query service's worker threads,
        # which share one database's arena: readers use plain dict lookups
        # (atomic under the GIL); writers take the lock, re-check, and
        # publish the dict entry only after the list append so a winning
        # read always finds consistent state.
        self._lock = threading.RLock()
        # Decoded-pattern memo: ids are append-only, so a compact key
        # denotes the same Pattern for the arena's whole lifetime — repeat
        # decodes (warm query mixes sharing result patterns) become dict
        # hits against frozensets whose hashes are already cached.  Holds
        # at most the patterns already materialized for callers; dropped
        # wholesale on reset.
        self._decoded: dict[CompactKey, Pattern] = {}
        # Whole-set decode memo, same append-only rationale: a compact key
        # set denotes one AssociationSet for the arena's lifetime, so a
        # warm query mix pays the root-boundary decode only once per
        # distinct result.  Frozenset hashes are cached, so repeat lookups
        # cost one dict probe.  Cleared on every mutation event (apply).
        self._decoded_sets: dict[frozenset, AssociationSet] = {}
        # --- derived caches (event-maintained, per-query reads) ---
        self._extent_csets: dict[str, CompactSet] = {}
        # class → (extent keys the mask was built from, live-extent bitmask);
        # the snapshot identity check makes the cache self-invalidating —
        # extent patches replace the CompactSet, so a stale mask can never
        # be read through a fresh extent
        self._cls_masks: dict[str, tuple[frozenset, int]] = {}
        self._edge_csets: dict[tuple[str, str, str], CompactSet] = {}
        self._adjacency: dict[tuple[str, str, str], dict[int, tuple[int, ...]]] = {}
        self._adj_masks: dict[tuple[str, str, str], dict[int, int]] = {}
        #: typed attribute columns keyed by this arena's vertex ids
        self.columns = ColumnStore(self, metrics)
        # --- metrics ---
        if metrics is not None:
            self._m_encoded = metrics.counter(
                "repro_compact_encode_total",
                "Patterns encoded into the compact arena representation",
            )
            self._m_decoded = metrics.counter(
                "repro_compact_decode_total",
                "Compact patterns decoded back to Pattern objects",
            )
            self._g_vertices = metrics.gauge(
                "repro_arena_vertices", "IIDs interned in the pattern arena"
            )
            self._g_edges = metrics.gauge(
                "repro_arena_edges", "Edges interned in the pattern arena"
            )
            self._g_decoded = metrics.gauge(
                "repro_arena_decoded_patterns",
                "Patterns held by the arena's decoded-pattern memo",
            )
        else:
            self._m_encoded = self._m_decoded = None
            self._g_vertices = self._g_edges = self._g_decoded = None

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------

    def cls_id(self, cls: str) -> int:
        cid = self._cls_ids.get(cls)
        if cid is None:
            with self._lock:
                cid = self._cls_ids.get(cls)
                if cid is None:
                    cid = len(self._cls_names)
                    self._cls_names.append(cls)
                    self._cls_ids[cls] = cid
        return cid

    def vid(self, iid: IID) -> int:
        v = self._vids.get(iid)
        if v is None:
            with self._lock:
                v = self._vids.get(iid)
                if v is None:
                    v = len(self._iids)
                    cid = self.cls_id(iid.cls)
                    self._iids.append(iid)
                    self._vcls.append(cid)
                    self._cls_vids.setdefault(cid, set()).add(v)
                    self._cls_vids_frozen.pop(cid, None)
                    self._vids[iid] = v
                    if self._g_vertices is not None:
                        self._g_vertices.set(v + 1)
        return v

    def eid(self, edge: Edge) -> int:
        """Intern an existing Edge (encode path).

        The original object is kept for decode, so a derived edge round-
        trips with its ``derived`` flag intact (the flag is provenance,
        not identity — see :mod:`repro.core.edges`).
        """
        u, v = self.vid(edge.u), self.vid(edge.v)
        if v < u:
            u, v = v, u
        key = (u, v, edge.polarity)
        e = self._eids.get(key)
        if e is None:
            with self._lock:
                e = self._eids.get(key)
                if e is None:
                    e = len(self._edges)
                    self._edges.append(edge)
                    self._ekeys.append(key)
                    self._eids[key] = e
                    if self._g_edges is not None:
                        self._g_edges.set(e + 1)
        return e

    def eid_of_pair(self, u: int, v: int, polarity: Polarity) -> int:
        """Intern the edge between two already-interned vertices.

        This is the kernel-side fast path: no Edge object is built unless
        the edge is new to the arena.
        """
        if u == v:
            # mirrors Edge's self-loop rejection so kernels fail exactly
            # like the reference operators on recursive self-pairs
            raise PatternError(f"an edge cannot connect {self._iids[u]} to itself")
        if v < u:
            u, v = v, u
        key = (u, v, polarity)
        e = self._eids.get(key)
        if e is None:
            with self._lock:
                e = self._eids.get(key)
                if e is None:
                    edge = Edge(self._iids[u], self._iids[v], polarity)
                    e = len(self._edges)
                    self._edges.append(edge)
                    self._ekeys.append(key)
                    self._eids[key] = e
                    if self._g_edges is not None:
                        self._g_edges.set(e + 1)
        return e

    # ------------------------------------------------------------------
    # encode / decode
    # ------------------------------------------------------------------

    def encode_pattern(self, pattern: Pattern) -> CompactKey:
        vertices = pattern.vertices
        if len(vertices) == 1 and not pattern.edges:
            return self.vid(next(iter(vertices)))
        vid = self.vid
        eid = self.eid
        return (
            frozenset(vid(v) for v in vertices),
            frozenset(eid(e) for e in pattern.edges),
        )

    def encode_set(self, aset: AssociationSet) -> CompactSet:
        encode = self.encode_pattern
        keys = frozenset(encode(p) for p in aset)
        if self._m_encoded is not None:
            self._m_encoded.inc(len(keys))
        return CompactSet(keys)

    def decode_key(self, key: CompactKey) -> Pattern:
        pattern = self._decoded.get(key)
        if pattern is None:
            iids = self._iids
            if isinstance(key, int):
                pattern = Pattern.inner(iids[key])
            else:
                vids, eids = key
                edges = self._edges
                pattern = Pattern._from_parts(
                    frozenset(map(iids.__getitem__, vids)),
                    frozenset(map(edges.__getitem__, eids)),
                )
            self._decoded[key] = pattern
        return pattern

    def decode_set(self, cset: CompactSet) -> AssociationSet:
        if self._m_decoded is not None:
            self._m_decoded.inc(len(cset.keys))
        result = self._decoded_sets.get(cset.keys)
        if result is None:
            decode = self.decode_key
            result = AssociationSet.from_frozen(frozenset(map(decode, cset.keys)))
            self._decoded_sets[cset.keys] = result
            if self._g_decoded is not None:
                self._g_decoded.set(len(self._decoded))
        return result

    # ------------------------------------------------------------------
    # derived compact structures
    # ------------------------------------------------------------------

    def class_vids(self, cid: int) -> frozenset[int]:
        """Snapshot of every vid interned for class id ``cid``.

        Rebuilt lazily after new interning; within one kernel call the
        snapshot necessarily covers the operands (their vids were interned
        before the kernel started).
        """
        frozen = self._cls_vids_frozen.get(cid)
        if frozen is None:
            with self._lock:
                frozen = frozenset(self._cls_vids.get(cid, ()))
                self._cls_vids_frozen[cid] = frozen
        return frozen

    def extent_cset(self, cls: str) -> CompactSet:
        """The extent of ``cls`` as raw vertex ids, cached across queries."""
        cached = self._extent_csets.get(cls)
        if cached is None:
            with self._lock:
                vid = self.vid
                cached = CompactSet(frozenset(vid(i) for i in self.graph.extent(cls)))
                self._extent_csets[cls] = cached
        return cached

    def class_mask(self, cls: str) -> int:
        """Bitmask of the *live* extent of ``cls`` (bit ``v`` ⇔ vid ``v``).

        Cached against the extent snapshot it was built from, so extent
        patches (insert/delete) invalidate it for free.  NonAssociate's
        retention clause tests set complements; over this mask they become
        single big-int AND-NOTs.
        """
        cset = self.extent_cset(cls)
        cached = self._cls_masks.get(cls)
        if cached is None or cached[0] is not cset.keys:
            mask = 0
            for v in cset.keys:
                mask |= 1 << v
            cached = (cset.keys, mask)
            with self._lock:
                self._cls_masks[cls] = cached
        return cached[1]

    def edge_cset(self, assoc: Association) -> CompactSet:
        """One compact two-vertex pattern per regular edge of ``assoc``."""
        cached = self._edge_csets.get(assoc.key)
        if cached is None:
            with self._lock:
                vid = self.vid
                pair = self.eid_of_pair
                keys = set()
                for a, b in self.graph.edges(assoc):
                    va, vb = vid(a), vid(b)
                    keys.add(
                        (
                            frozenset((va, vb)),
                            frozenset((pair(va, vb, Polarity.REGULAR),)),
                        )
                    )
                cached = CompactSet(frozenset(keys))
                self._edge_csets[assoc.key] = cached
        return cached

    def adjacency(self, assoc: Association) -> dict[int, tuple[int, ...]]:
        """Int-domain adjacency over the regular edges of ``assoc``."""
        adj = self._adjacency.get(assoc.key)
        if adj is None:
            with self._lock:
                vid = self.vid
                tmp: dict[int, list[int]] = {}
                for a, b in self.graph.edges(assoc):
                    va, vb = vid(a), vid(b)
                    tmp.setdefault(va, []).append(vb)
                    if vb != va:
                        tmp.setdefault(vb, []).append(va)
                adj = {v: tuple(ps) for v, ps in tmp.items()}
                self._adjacency[assoc.key] = adj
        return adj

    def adjacency_masks(self, assoc: Association) -> dict[int, int]:
        """Per-vertex partner bitmask (bit ``p`` set ⇔ partner vid ``p``).

        NonAssociate's free-set tests are disjointness checks; over
        bitmasks they become single big-int ANDs.
        """
        masks = self._adj_masks.get(assoc.key)
        if masks is None:
            with self._lock:
                masks = {}
                for v, partners in self.adjacency(assoc).items():
                    m = 0
                    for p in partners:
                        m |= 1 << p
                    masks[v] = m
                self._adj_masks[assoc.key] = masks
        return masks

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def apply(self, event) -> None:
        """Fold one mutation event into the derived compact structures.

        Extents patch in place; link/unlink patch the association's adjacency,
        masks, and edge set when cached; deletes and multi-class inserts
        drop the association caches of the touched classes.  The interning
        tables never shrink — ids of deleted instances simply fall out of
        every derived structure.
        """
        # The whole-set decode memo is never wrong (its keys are
        # append-only ids) but it is never evicted either: a mutation
        # makes most of its entries results no query will decode again,
        # and their keys pin superseded ``_edge_csets`` key sets.  Clearing
        # it per event bounds it by what one mutation-free stretch decodes.
        self._decoded_sets.clear()
        kind = event.kind
        if kind == "insert":
            for instance in event.instances:
                cached = self._extent_csets.get(instance.cls)
                if cached is not None:
                    self._extent_csets[instance.cls] = CompactSet(
                        cached.keys | {self.vid(instance)}
                    )
            if len(event.instances) > 1:
                self._drop_assoc_caches({i.cls for i in event.instances})
        elif kind == "delete":
            for instance in event.instances:
                cached = self._extent_csets.get(instance.cls)
                if cached is not None:
                    self._extent_csets[instance.cls] = CompactSet(
                        cached.keys - {self.vid(instance)}
                    )
            self._drop_assoc_caches({i.cls for i in event.instances})
        elif kind in ("link", "unlink"):
            a, b = event.instances
            assoc = self.graph.schema.resolve(a.cls, b.cls, event.association)
            self._patch_assoc(assoc, a, b, add=(kind == "link"))
        # "update" changes values only; identity-based structures are
        # unaffected — but the value columns must be patched.
        self.columns.apply(event)

    def _patch_assoc(self, assoc: Association, a: IID, b: IID, *, add: bool) -> None:
        va, vb = self.vid(a), self.vid(b)
        adj = self._adjacency.get(assoc.key)
        if adj is not None:
            for x, y in ((va, vb), (vb, va)):
                partners = list(adj.get(x, ()))
                if add:
                    if y not in partners:
                        partners.append(y)
                elif y in partners:
                    partners.remove(y)
                adj[x] = tuple(partners)
        masks = self._adj_masks.get(assoc.key)
        if masks is not None:
            for x, y in ((va, vb), (vb, va)):
                if add:
                    masks[x] = masks.get(x, 0) | (1 << y)
                else:
                    masks[x] = masks.get(x, 0) & ~(1 << y)
        cached = self._edge_csets.get(assoc.key)
        if cached is not None:
            if va == vb:
                # a self-link cannot be a pattern edge; drop rather than
                # encode an invalid key (mirrors Edge's rejection)
                del self._edge_csets[assoc.key]
                return
            key = (
                frozenset((va, vb)),
                frozenset((self.eid_of_pair(va, vb, Polarity.REGULAR),)),
            )
            keys = cached.keys | {key} if add else cached.keys - {key}
            self._edge_csets[assoc.key] = CompactSet(keys)

    def _drop_assoc_caches(self, classes: set[str]) -> None:
        for table in (self._edge_csets, self._adjacency, self._adj_masks):
            stale = [k for k in table if k[0] in classes or k[1] in classes]
            for k in stale:
                del table[k]

    def reset(self) -> None:
        """Drop everything, interning tables included.

        Called under the graph-version guard: the events did not explain
        the graph's state, so previously issued ids may describe vertices
        and edges that no longer exist.  The executor clears the plan
        cache in the same pass, so no compact set encoded against the old
        id space survives.
        """
        with self._lock:
            self._vids.clear()
            self._iids.clear()
            self._vcls.clear()
            self._cls_ids.clear()
            self._cls_names.clear()
            self._cls_vids.clear()
            self._cls_vids_frozen.clear()
            self._eids.clear()
            self._edges.clear()
            self._ekeys.clear()
            self._decoded.clear()
            self._decoded_sets.clear()
            self._extent_csets.clear()
            self._cls_masks.clear()
            self._edge_csets.clear()
            self._adjacency.clear()
            self._adj_masks.clear()
            self.columns.reset()
            if self._g_vertices is not None:
                self._g_vertices.set(0)
                self._g_edges.set(0)
                self._g_decoded.set(0)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def classes_of(self, cset: CompactSet) -> frozenset[str]:
        """Every class with at least one Inner-pattern in the set."""
        vcls = self._vcls
        names = self._cls_names
        out: set[int] = set()
        for key in cset.keys:
            if isinstance(key, int):
                out.add(vcls[key])
            else:
                for v in key[0]:
                    out.add(vcls[v])
        return frozenset(names[c] for c in out)

    def __str__(self) -> str:
        return (
            f"PatternArena({len(self._iids)} vertices, {len(self._edges)} edges, "
            f"{len(self._extent_csets)} extent set(s))"
        )
