"""Batch kernels over compact sets.

Each kernel is the whole-set counterpart of one reference operator in
:mod:`repro.core.operators`, rewritten over the integer domains of a
:class:`~repro.exec.arena.PatternArena`: hash joins key on vertex ids,
union/difference are frozenset merges of int keys, containment probes
(Difference, Divide) are anchored int-set subset tests, σ over patterns
is per-atom vid-set membership, and NonAssociate's free-set tests are
big-int bitmask ANDs.  The property suite
(``tests/properties/test_compact_equivalence.py``) holds every kernel to
bit-identical results against its reference operator — the kernels mirror
the reference control flow decision for decision, only the representation
changes.

All kernels take the arena first and return a new :class:`CompactSet`;
operands are never mutated.
"""

from __future__ import annotations

from repro.core.edges import Polarity
from repro.exec.arena import CompactSet, PatternArena, key_parts, make_key

__all__ = [
    "class_rows",
    "k_associate",
    "k_complement",
    "k_difference",
    "k_divide",
    "k_intersect",
    "k_nonassociate",
    "k_project",
    "k_select_mask",
    "k_select_patterns",
    "k_union",
]

_EMPTY_FROZEN: frozenset = frozenset()


def class_rows(
    arena: PatternArena, cset: CompactSet, cls: str
) -> list[tuple[object, frozenset, frozenset, frozenset]]:
    """``(key, vids, eids, instances-of-cls)`` rows, instance-bearing only.

    The compact analogue of ``AssociationSet.patterns_with_class`` — the
    binary graph kernels iterate it on both sides.
    """
    cid = arena.cls_id(cls)
    vcls = arena._vcls
    cls_set = arena.class_vids(cid)
    rows = []
    for key in cset.keys:
        if isinstance(key, int):
            if vcls[key] == cid:
                vids = frozenset((key,))
                rows.append((key, vids, _EMPTY_FROZEN, vids))
        else:
            insts = key[0] & cls_set
            if insts:
                rows.append((key, key[0], key[1], insts))
    return rows


# ----------------------------------------------------------------------
# Associate / A-Complement
# ----------------------------------------------------------------------


def _instance_index(rows, live: frozenset | None = None) -> dict:
    """End-class instance → ``(vids, eids)`` of the rows holding it,
    restricted to ``live`` instances when given."""
    index: dict[int, list[tuple[frozenset, frozenset]]] = {}
    for _, vids, eids, insts in rows:
        for b in insts if live is None else insts & live:
            index.setdefault(b, []).append((vids, eids))
    return index


def _row_instances(rows) -> set:
    out: set = set()
    for row in rows:
        out |= row[3]
    return out


def _concat(alpha_rows, cont: dict) -> CompactSet:
    """Every ``(αⁱ, βʲ, connecting edge)`` concatenation.

    ``cont`` maps an α end-class instance to its continuations — pairs of
    a one-edge-id frozenset and the β rows that edge reaches.  Many α rows
    share an instance, so the kernels resolve continuations once per
    distinct instance, not once per row.
    """
    if not cont:
        return CompactSet.empty()
    cont_get = cont.get
    out: set = set()
    add = out.add
    for key, vids_a, eids_a, insts_a in alpha_rows:
        if isinstance(key, int):
            # Raw-int alpha keys (class extents and mask-filtered σ
            # results) carry exactly one instance and no edges, so the
            # per-row set unions collapse: the continuation's edge set IS
            # the pattern's.
            lst = cont_get(key)
            if lst is None:
                continue
            for connect, rows_b in lst:
                for vids_b, eids_b in rows_b:
                    add((vids_b | vids_a, connect | eids_b))
            continue
        for a_m in insts_a:
            lst = cont_get(a_m)
            if lst is None:
                continue
            for connect, rows_b in lst:
                # both operands of the inner unions are loop-invariant here
                eids_ac = eids_a | connect
                for vids_b, eids_b in rows_b:
                    add((vids_a | vids_b, eids_ac | eids_b))
    return CompactSet(frozenset(out))


def k_associate(
    arena: PatternArena,
    alpha: CompactSet,
    beta: CompactSet,
    assoc,
    a_cls: str,
    b_cls: str,
) -> CompactSet:
    """``α *[R(A,B)] β`` — index-nested-loop join over int adjacency."""
    beta_index = _instance_index(class_rows(arena, beta, b_cls))
    if not beta_index:
        return CompactSet.empty()

    alpha_rows = class_rows(arena, alpha, a_cls)
    adj_get = arena.adjacency(assoc).get
    pair = arena.eid_of_pair
    beta_get = beta_index.get

    # A neighbour outside ``beta_index`` is either the wrong class or not
    # in beta — the index probe subsumes the class check.
    cont: dict[int, list[tuple[frozenset, list]]] = {}
    for a_m in _row_instances(alpha_rows):
        lst = []
        for b_n in adj_get(a_m, ()):
            rows_b = beta_get(b_n)
            if rows_b is not None:
                lst.append((frozenset((pair(a_m, b_n, Polarity.REGULAR),)), rows_b))
        if lst:
            cont[a_m] = lst
    return _concat(alpha_rows, cont)


def k_complement(
    arena: PatternArena,
    alpha: CompactSet,
    beta: CompactSet,
    assoc,
    a_cls: str,
    b_cls: str,
) -> CompactSet:
    """``α |[R(A,B)] β`` — concatenation over the *non*-adjacent pairs.

    Mirrors :func:`repro.core.operators.complement.a_complement`: the
    retention clauses first (an operand without end-class instances keeps
    the other side's participating patterns), then the main clause, where
    only β instances still in their live extent take part and a recursive
    association never pairs an instance with itself.
    """
    alpha_rows = class_rows(arena, alpha, a_cls)
    beta_rows = class_rows(arena, beta, b_cls)
    if not beta_rows:
        return CompactSet(frozenset(row[0] for row in alpha_rows))
    if not alpha_rows:
        return CompactSet(frozenset(row[0] for row in beta_rows))

    beta_index = _instance_index(beta_rows, arena.extent_cset(b_cls).keys)
    adj_get = arena.adjacency(assoc).get
    pair = arena.eid_of_pair
    recursive = assoc.left == assoc.right
    cont: dict[int, list[tuple[frozenset, list]]] = {}
    for a_m in _row_instances(alpha_rows):
        partners = set(adj_get(a_m, ()))
        if recursive:
            partners.add(a_m)
        lst = [
            (frozenset((pair(a_m, b_n, Polarity.COMPLEMENT),)), rows_b)
            for b_n, rows_b in beta_index.items()
            if b_n not in partners
        ]
        if lst:
            cont[a_m] = lst
    return _concat(alpha_rows, cont)


# ----------------------------------------------------------------------
# A-Select (compiled masks)
# ----------------------------------------------------------------------


def k_select_mask(base: CompactSet, vids: frozenset) -> CompactSet:
    """``σ`` over an extent as a selection-mask intersection.

    ``vids`` is the set of vertex ids whose singleton pattern satisfies
    the compiled predicate (:meth:`ColumnStore.eval_select`); ``base`` is
    the operand extent in compact form, whose keys are raw ints.  Masks
    are only exact for singleton patterns — a multi-instance pattern's
    predicate is not distributive over its instances — so the planner
    applies this kernel exclusively over bare class extents.
    """
    return CompactSet(base.keys & vids)


def k_select_patterns(arena: PatternArena, cset: CompactSet, program) -> CompactSet:
    """``σ`` over patterns of any shape via per-atom vid sets.

    ``program`` comes from :func:`repro.exec.columns.compile_pattern_select`.
    Each atom evaluates to the set of its class's vertex ids whose
    singleton pattern satisfies it (:meth:`ColumnStore.eval_select`); a
    pattern satisfies the atom when one of its instances of that class is
    in the set (∃) or, non-vacuously, all of them are (∀).  Combinators
    apply per pattern, so they run as set algebra over the operand's keys:
    ``and`` narrows the candidates child by child, ``or`` tests each child
    only on the keys no earlier child kept, ``not`` is a set difference.
    """
    return CompactSet(_select_keys(arena, cset.keys, program))


def _select_keys(arena: PatternArena, keys: frozenset, node) -> frozenset:
    tag = node[0]
    if tag == "atom":
        _, cls, forall, atom = node
        sat = arena.columns.eval_select(atom, cls)
        if forall:
            cls_set = arena.class_vids(arena.cls_id(cls))
            out = []
            for key in keys:
                insts = key_parts(key)[0] & cls_set
                if insts and insts <= sat:
                    out.append(key)
            return frozenset(out)
        # ``sat`` holds vids of ``cls`` only, so disjointness from the
        # whole vid set is disjointness from the class's instances
        isdisjoint = sat.isdisjoint
        return frozenset(
            key
            for key in keys
            if (key in sat if isinstance(key, int) else not isdisjoint(key[0]))
        )
    if tag == "and":
        for child in node[1]:
            keys = _select_keys(arena, keys, child)
            if not keys:
                break
        return keys
    if tag == "or":
        hits: frozenset = _EMPTY_FROZEN
        for child in node[1]:
            hit = _select_keys(arena, keys - hits, child)
            hits = hits | hit
        return hits
    if tag == "not":
        return keys - _select_keys(arena, keys, node[1])
    if tag == "true":
        return keys
    return _EMPTY_FROZEN  # "false"


# ----------------------------------------------------------------------
# A-Project
# ----------------------------------------------------------------------


def k_project(arena: PatternArena, cset: CompactSet, templates) -> CompactSet:
    """``Π(α)[E]`` for chain templates ``E`` (no path links).

    A one-class template keeps the pattern's instances of that class, so
    all of them together are one set intersection per pattern; a longer
    chain walks the pattern's regular edge ids exactly like
    ``ChainTemplate.matches`` walks its edges.  Patterns matching no
    template contribute nothing.
    """
    singles: frozenset = _EMPTY_FROZEN
    chains = []
    for template in templates:
        cids = tuple(arena.cls_id(c) for c in template.classes)
        if len(cids) == 1:
            singles = singles | arena.class_vids(cids[0])
        else:
            chains.append(cids)

    out: set = set()
    # distinct (vids, eids) kept from composite patterns: projections
    # collapse many patterns onto few, so canonicalize once per result
    parts: set = set()
    for key in cset.keys:
        if isinstance(key, int):
            # an edge-free singleton can only match a one-class template
            if key in singles:
                out.add(key)
            continue
        vids, eids = key
        kept_v = vids & singles
        kept_e = _EMPTY_FROZEN
        if chains:
            more_v, kept_e = _chain_matches(arena, vids, eids, chains)
            kept_v = kept_v | more_v
        if kept_v:
            parts.add((kept_v, kept_e))
    out.update(make_key(vids, eids) for vids, eids in parts)
    return CompactSet(frozenset(out))


def _chain_matches(
    arena: PatternArena, vids: frozenset, eids: frozenset, chains
) -> tuple[frozenset, frozenset]:
    """Vertices and edges of every match of every chain in one pattern."""
    ekeys = arena._ekeys
    vcls = arena._vcls
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in eids:
        u, v, polarity = ekeys[e]
        if polarity is Polarity.REGULAR:
            adj.setdefault(u, []).append((v, e))
            adj.setdefault(v, []).append((u, e))
    kept_v: set = set()
    kept_e: set = set()
    for cids in chains:
        size = len(cids)
        stack = [((v,), ()) for v in vids if vcls[v] == cids[0]]
        while stack:
            seq, path = stack.pop()
            if len(seq) == size:
                kept_v.update(seq)
                kept_e.update(path)
                continue
            wanted = cids[len(seq)]
            for nxt, e in adj.get(seq[-1], ()):
                if vcls[nxt] == wanted and nxt not in seq:
                    stack.append((seq + (nxt,), path + (e,)))
    return frozenset(kept_v), frozenset(kept_e)


# ----------------------------------------------------------------------
# A-Intersect
# ----------------------------------------------------------------------


def k_intersect(
    arena: PatternArena,
    alpha: CompactSet,
    beta: CompactSet,
    classes=None,
) -> CompactSet:
    """``α •{W} β`` — hash join on per-class instance-set signatures."""
    if classes is None:
        shared = arena.classes_of(alpha) & arena.classes_of(beta)
    else:
        shared = frozenset(classes)
    if not shared:
        return CompactSet.empty()
    cids = tuple(arena.cls_id(c) for c in shared)
    n = len(cids)
    vcls = arena._vcls
    only_cid = cids[0]  # the single {W} class when n == 1
    # snapshot per-class vid sets once; keeping the pattern's (small) vid
    # set on the left makes the &s below C-level probes into these
    class_sets = tuple(arena.class_vids(c) for c in cids)
    combined = class_sets[0]
    for cls_set in class_sets[1:]:
        combined = combined | cls_set

    def signature(key):
        # A vertex id belongs to exactly one class, so a pattern's
        # per-class instance partition over {W} is fully determined by its
        # set of {W}-class vids — the filtered frozenset IS the signature.
        # None if any {W} class is absent (the pinned non-vacuous reading).
        if isinstance(key, int):
            if n != 1 or vcls[key] != only_cid:
                return None
            return frozenset((key,))
        vids = key[0]
        sig = None
        for cls_set in class_sets:
            part = vids & cls_set
            if not part:
                return None
            sig = part if sig is None else sig | part
        return sig

    # The merge is symmetric, so index the smaller operand with the full
    # coverage-checked signature and stream the larger one past it.
    small, big = (
        (alpha, beta) if len(alpha.keys) <= len(beta.keys) else (beta, alpha)
    )
    index: dict[frozenset, list[tuple[frozenset, frozenset]]] = {}
    for key in small.keys:
        sig = signature(key)
        if sig is not None:
            index.setdefault(sig, []).append(key_parts(key))
    if not index:
        return CompactSet.empty()

    # Probe side: ``vids & combined`` IS the candidate signature (the union
    # of the per-class parts), and every index entry already covers all of
    # {W}, so a dict hit implies the probe key covers {W} too — no
    # per-class check needed on this side.
    index_get = index.get
    out: set = set()
    add = out.add
    for key in big.keys:
        if isinstance(key, int):
            if key not in combined:
                continue
            vids_b = frozenset((key,))
            eids_b = _EMPTY_FROZEN
            cand = vids_b
        else:
            vids_b, eids_b = key
            cand = vids_b & combined
        rows = index_get(cand)
        if rows is None:
            continue
        for vids_a, eids_a in rows:
            if vids_a <= vids_b and eids_a <= eids_b:
                # merging a contained pattern returns the probe key as-is
                # (already canonical, frozenset hashes already cached)
                add(key)
            else:
                add(make_key(vids_b | vids_a, eids_b | eids_a))
    return CompactSet(frozenset(out))


# ----------------------------------------------------------------------
# A-Union / A-Difference
# ----------------------------------------------------------------------


def k_union(alpha: CompactSet, beta: CompactSet) -> CompactSet:
    """``α + β`` — one frozenset union; compact keys are canonical, so
    duplicate patterns collapse exactly as in the reference."""
    return CompactSet(alpha.keys | beta.keys)


class _ContainmentIndex:
    """Compact keys bucketed by their minimum vertex id — the analogue of
    ``repro.core.operators.containment.ContainmentIndex``: a pattern
    contained in a candidate has its anchor among the candidate's
    vertices, so only those buckets are probed.

    ``within``, when given, is a vertex set every candidate lies inside;
    keys with a vertex outside it can never be contained and are not
    indexed.
    """

    __slots__ = ("_by_anchor", "_anchors")

    def __init__(self, keys: frozenset, within: frozenset | None = None) -> None:
        by_anchor: dict[int, list[tuple[object, frozenset, frozenset]]] = {}
        for key in keys:
            if isinstance(key, int):
                vids, eids = frozenset((key,)), _EMPTY_FROZEN
            else:
                vids, eids = key
            if within is None or vids <= within:
                by_anchor.setdefault(min(vids), []).append((key, vids, eids))
        self._by_anchor = by_anchor
        self._anchors = frozenset(by_anchor)

    def hits(self, keys) -> list[tuple[object, list]]:
        """``(key, indexed keys it contains)`` for each of ``keys`` that
        contains at least one indexed key."""
        anchors = self._anchors
        get = self._by_anchor.get
        out = []
        for key in keys:
            if isinstance(key, int):
                if key not in anchors:
                    continue
                vids, eids = frozenset((key,)), _EMPTY_FROZEN
            else:
                vids, eids = key
                if anchors.isdisjoint(vids):  # the common miss, at C speed
                    continue
            contained = [
                sub
                for v in vids
                for sub, sub_vids, sub_eids in get(v, ())
                if sub_vids <= vids and sub_eids <= eids
            ]
            if contained:
                out.append((key, contained))
        return out


def k_difference(alpha: CompactSet, beta: CompactSet) -> CompactSet:
    """``α - β`` — drop minuend patterns containing any subtrahend pattern.

    Compact keys are canonical, so a minuend key that *is* a subtrahend
    key contains it: one C-level set difference settles the common case
    of heavily overlapping operands, and only the minuend keys it leaves
    pay the anchored containment probe — against just the subtrahends
    lying inside their vertices.
    """
    if not beta.keys:
        return alpha
    rest = alpha.keys - beta.keys
    if not rest:
        return CompactSet(rest)
    within: set = set()
    for key in rest:
        if isinstance(key, int):
            within.add(key)
        else:
            within |= key[0]
    index = _ContainmentIndex(beta.keys, frozenset(within))
    return CompactSet(rest - {key for key, _ in index.hits(rest)})


# ----------------------------------------------------------------------
# A-Divide
# ----------------------------------------------------------------------


def k_divide(
    arena: PatternArena,
    alpha: CompactSet,
    beta: CompactSet,
    classes=None,
) -> CompactSet:
    """``α ÷{W} β`` — groups of α patterns jointly containing all of β.

    Grouping keys on the {W}-class vids of a pattern, exactly as
    ``k_intersect``'s signatures do (a vid belongs to one class, so the
    filtered vid set IS the per-class partition); containment reuses
    Difference's anchored probe.  Without {W}, the α patterns containing
    some β pattern are kept iff together they contain every one.
    """
    index = _ContainmentIndex(beta.keys)
    wanted = len(beta.keys)
    if classes is None:
        hits = index.hits(alpha.keys)
        if wanted and len(_contained_union(hits)) != wanted:
            return CompactSet.empty()
        return CompactSet(frozenset(key for key, _ in hits))

    class_sets = [arena.class_vids(arena.cls_id(c)) for c in set(classes)]
    groups: dict[frozenset, list] = {}
    for key in alpha.keys:
        vids = key_parts(key)[0]
        signature = _EMPTY_FROZEN
        for cls_set in class_sets:
            part = vids & cls_set
            if not part:
                break
            signature = signature | part
        else:
            groups.setdefault(signature, []).append(key)

    out: list = []
    for members in groups.values():
        if len(_contained_union(index.hits(members))) == wanted:
            out.extend(members)
    return CompactSet(frozenset(out))


def _contained_union(hits) -> set:
    """Every indexed key some hit contains."""
    found: set = set()
    for _, contained in hits:
        found.update(contained)
    return found


# ----------------------------------------------------------------------
# NonAssociate
# ----------------------------------------------------------------------


def k_nonassociate(
    arena: PatternArena,
    alpha: CompactSet,
    beta: CompactSet,
    assoc,
    a_cls: str,
    b_cls: str,
) -> CompactSet:
    """``α ![R(A,B)] β`` — the reference's main + retention clauses with
    free-set tests as bitmask ANDs."""
    alpha_rows = class_rows(arena, alpha, a_cls)
    beta_rows = class_rows(arena, beta, b_cls)

    all_a = frozenset(i for row in alpha_rows for i in row[3])
    all_b = frozenset(i for row in beta_rows for i in row[3])
    masks = arena.adjacency_masks(assoc)

    # Operands covering the full class extent (the common case: the plan
    # feeds extent scans straight in) reuse the arena's cached per-class
    # bitmask instead of rebuilding it bit by bit on every call.
    def _operand_mask(cls: str, insts: frozenset) -> int:
        if insts == arena.extent_cset(cls).keys:
            return arena.class_mask(cls)
        m = 0
        for v in insts:
            m |= 1 << v
        return m

    mask_a = _operand_mask(a_cls, all_a)
    mask_b = _operand_mask(b_cls, all_b)

    # "Free" instances: associated with no instance of the other operand.
    free_a = frozenset(a for a in all_a if not masks.get(a, 0) & mask_b)
    free_b = frozenset(b for b in all_b if not masks.get(b, 0) & mask_a)

    out: set = set()
    paired_alpha: set = set()
    paired_beta: set = set()
    pair = arena.eid_of_pair

    for key_a, vids_a, eids_a, insts_a in alpha_rows:
        usable_a = insts_a & free_a
        if not usable_a:
            continue
        for key_b, vids_b, eids_b, insts_b in beta_rows:
            usable_b = insts_b & free_b
            if not usable_b:
                continue
            for a_m in usable_a:
                for b_n in usable_b:
                    connect = frozenset((pair(a_m, b_n, Polarity.COMPLEMENT),))
                    out.add((vids_a | vids_b, eids_a | eids_b | connect))
            paired_alpha.add(key_a)
            paired_beta.add(key_b)

    _retain(out, masks, alpha_rows, paired_alpha, free_a, mask_a, all_b)
    _retain(out, masks, beta_rows, paired_beta, free_b, mask_b, all_a)
    return CompactSet(frozenset(out))


def _retain(out, masks, rows, paired, free_own, own_mask, all_other) -> None:
    """Retention clauses (1)-(3) for one operand side — see the reference
    ``non_associate._retain`` for the semantics being mirrored.

    ``own_mask`` is the bitmask of the whole own-side operand; the mask of
    the instances *outside* one pattern is then ``own_mask & ~row_mask`` —
    two big-int ops per row instead of a bit-build over the set difference.
    """
    for key, _, _, instances in rows:
        if key in paired:
            continue
        if not instances <= free_own:
            continue
        if not all_other:
            out.add(key)
            continue
        row_mask = 0
        for v in instances:
            row_mask |= 1 << v
        outside_mask = own_mask & ~row_mask
        if all(masks.get(other, 0) & outside_mask for other in all_other):
            out.add(key)
