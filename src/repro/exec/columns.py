"""Typed attribute columns and compiled A-Select predicate masks.

Predicates over compact regions used to decode every candidate pattern
back to a :class:`~repro.core.pattern.Pattern` and run
``Predicate.evaluate`` one object at a time — full interpreter cost per
pattern.  This module interns attribute values into *typed columns* keyed
by the arena's dense vertex ids and lowers predicate trees to column-wise
**selection bitmasks**, so a σ over a class extent becomes a handful of
dict probes, bisects and big-int boolean ops instead of a Python loop of
``Pattern`` allocations.

Layout
------
One :class:`Column` per class (an instance of a primitive class carries
exactly one self-describing value, so per-(class, attribute) collapses to
per-class):

* ``kind == "int"``   — ``array('q')`` (bools stored as ints; equality
  and ordering agree, so semantics are preserved);
* ``kind == "float"`` — ``array('d')`` (NaN forces object kind: boxing a
  C double loses the identity that ``in``-membership checks);
* ``kind == "str"``   — dictionary-encoded codes in ``array('q')`` plus a
  code↔string table;
* ``kind == "object"``— plain list of the original values (mixed types,
  big ints, NaN, arbitrary objects);
* ``kind is None``    — no non-None value seen yet.

A validity bitmask (``bytearray``, bit per row) marks non-None rows and a
liveness bitmask marks rows whose instance has not been deleted.  Rows
are append-only within a column generation; deletes only clear the live
bit (selection masks are intersected with the operand's compact keys, so
dead vids drop out for free).  Columns are patched incrementally from the
same mutation-event stream that patches the arena, and the arena's
version-guard :meth:`PatternArena.reset` drops the whole store.

Compilation
-----------
:func:`compile_select` lowers a predicate tree over one class to a small
program — ``and``/``or``/``not`` combinators over *leaf* comparisons —
whose evaluation produces a big-int bitmask over the column's rows.
Supported leaves: ``ClassValues(cls) op Const`` (either order), IN-lists
(``ClassValues(cls) in ValueUnion(Const, ...)`` and the mirrored form),
and const-only comparisons (folded at compile time).  Anything else —
``Apply``, ``Callback``, ``ClassInstances``, comparisons between two
column references — returns ``None`` and the planner falls back to the
object path.  The compiled program replicates ``Comparison.evaluate``'s
exact semantics on singleton patterns: existential/universal quantifiers,
``TypeError``-as-False for unordered operands, ``None`` value handling,
and the list-membership identity shortcut of the ``in`` operator.
"""

from __future__ import annotations

import operator
import threading
from array import array
from functools import lru_cache, partial
from typing import Any, Iterable

from repro.core.expression import ClassExtent, Expr, Select
from repro.core.predicates import (
    And,
    ClassValues,
    Comparison,
    Const,
    Not,
    Or,
    Predicate,
    TruePredicate,
    ValueExpr,
    ValueUnion,
)

__all__ = [
    "Column",
    "ColumnStore",
    "compile_pattern_select",
    "compile_select",
    "compiled_select_probe",
]

#: byte → tuple of set bit positions; drives mask → row decoding.
_BITS = tuple(
    tuple(i for i in range(8) if byte >> (i & 7) & 1) for byte in range(256)
)

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

_ORDERED = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _clean(value: Any) -> bool:
    """Whether fast-path index structures handle ``value`` exactly.

    Builtin scalars with faithful ``repr`` and hash-consistent equality;
    NaN is excluded (``x != x`` breaks dict/bisect lookups).
    """
    if value is None:
        return True
    t = type(value)
    if t is float:
        return value == value
    return t is int or t is str or t is bool


def _mask_of_rows(rows: Iterable[int], nbytes: int) -> int:
    buf = bytearray(nbytes)
    for r in rows:
        buf[r >> 3] |= 1 << (r & 7)
    return int.from_bytes(buf, "little")


class Column:
    """One class's attribute values in typed columnar form."""

    __slots__ = (
        "cls",
        "kind",
        "vids",
        "row_of",
        "data",
        "dict_codes",
        "dict_values",
        "valid",
        "live",
        "version",
        "_boxed",
        "_groups",
        "_sorted",
        "_valid_mask",
        "_leaf_masks",
    )

    def __init__(self, cls: str) -> None:
        self.cls = cls
        self.kind: str | None = None
        self.vids: list[int] = []  # row → vertex id
        self.row_of: dict[int, int] = {}  # vertex id → row
        self.data: Any = None
        self.dict_codes: dict[str, int] | None = None
        self.dict_values: list[str] | None = None
        self.valid = bytearray()  # bit r set ⇔ row r holds a non-None value
        self.live = bytearray()  # bit r set ⇔ row r's instance not deleted
        self.version = 0
        self._boxed: list | None = None
        self._groups: dict | None = None
        self._sorted: tuple[list, list] | None = None
        self._valid_mask: int | None = None
        self._leaf_masks: dict = {}

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def upsert(self, vid: int, value: Any, revive: bool = True) -> None:
        """Insert or overwrite the value of ``vid`` (and mark it live)."""
        row = self.row_of.get(vid)
        if row is None:
            row = len(self.vids)
            self.vids.append(vid)
            self.row_of[vid] = row
            if row >> 3 >= len(self.valid):
                self.valid.append(0)
                self.live.append(0)
            if self.kind is not None:
                self._append_placeholder()
        if revive:
            self.live[row >> 3] |= 1 << (row & 7)
        self._store(row, value)
        self._touch()

    def kill(self, vid: int) -> None:
        """Clear the live bit of ``vid`` (deleted instance)."""
        row = self.row_of.get(vid)
        if row is not None:
            self.live[row >> 3] &= ~(1 << (row & 7)) & 0xFF
            self._touch()

    def _touch(self) -> None:
        self.version += 1
        self._boxed = None
        self._groups = None
        self._sorted = None
        self._valid_mask = None
        self._leaf_masks.clear()

    def _append_placeholder(self) -> None:
        if self.kind == "int":
            self.data.append(0)
        elif self.kind == "float":
            self.data.append(0.0)
        elif self.kind == "str":
            self.data.append(0)
        elif self.kind == "object":
            self.data.append(None)

    def _store(self, row: int, value: Any) -> None:
        if value is None:
            self.valid[row >> 3] &= ~(1 << (row & 7)) & 0xFF
            if self.kind == "object":
                # boxed() aliases ``data`` for object columns, so the slot
                # itself must go back to None or scans would keep matching
                # the overwritten value.
                self.data[row] = None
            return
        if self.kind is None:
            self._init_kind(value)
        kind = self.kind
        t = type(value)
        if kind == "int":
            if (t is int or t is bool) and _INT64_MIN <= value <= _INT64_MAX:
                self.data[row] = int(value)
            else:
                self._promote_object()
                self.data[row] = value
        elif kind == "float":
            if t is float and value == value:
                self.data[row] = value
            else:
                self._promote_object()
                self.data[row] = value
        elif kind == "str":
            if t is str:
                code = self.dict_codes.get(value)
                if code is None:
                    code = len(self.dict_values)
                    self.dict_values.append(value)
                    self.dict_codes[value] = code
                self.data[row] = code
            else:
                self._promote_object()
                self.data[row] = value
        else:  # object
            self.data[row] = value
        self.valid[row >> 3] |= 1 << (row & 7)

    def _init_kind(self, value: Any) -> None:
        n = len(self.vids)
        t = type(value)
        if (t is int or t is bool) and _INT64_MIN <= value <= _INT64_MAX:
            self.kind = "int"
            self.data = array("q", bytes(8 * n))
        elif t is float and value == value:
            self.kind = "float"
            self.data = array("d", bytes(8 * n))
        elif t is str:
            self.kind = "str"
            self.data = array("q", bytes(8 * n))
            self.dict_codes = {}
            self.dict_values = []
        else:
            self.kind = "object"
            self.data = [None] * n

    def _promote_object(self) -> None:
        """A value the typed layout cannot hold arrived: box everything.

        The boxed cache may predate a row ``upsert`` just appended (caches
        are dropped after the store, not before), so rebuild it fresh.
        """
        self._boxed = None
        self.data = self.boxed()
        self.kind = "object"
        self.dict_codes = self.dict_values = None
        self._boxed = None

    # ------------------------------------------------------------------
    # reads (lazily built, dropped on every write)
    # ------------------------------------------------------------------

    def boxed(self) -> list:
        """Row → Python value (``None`` for missing) — the exact value
        sequence the object path's ``graph.value`` calls would see."""
        out = self._boxed
        if out is None:
            n = len(self.vids)
            kind = self.kind
            if kind == "object":
                out = self.data
            elif kind is None:
                out = [None] * n
            else:
                valid = self.valid
                data = self.data
                if kind == "str":
                    table = self.dict_values
                    out = [
                        table[data[r]] if valid[r >> 3] >> (r & 7) & 1 else None
                        for r in range(n)
                    ]
                else:
                    out = [
                        data[r] if valid[r >> 3] >> (r & 7) & 1 else None
                        for r in range(n)
                    ]
            self._boxed = out
        return out

    def groups(self) -> dict:
        """value → list of rows, over non-None rows (typed kinds only)."""
        g = self._groups
        if g is None:
            g = {}
            for r, v in enumerate(self.boxed()):
                if v is not None:
                    g.setdefault(v, []).append(r)
            self._groups = g
        return g

    def sorted_index(self) -> tuple[list, list]:
        """(sorted values, parallel rows) over non-None rows."""
        s = self._sorted
        if s is None:
            pairs = sorted(
                (v, r) for r, v in enumerate(self.boxed()) if v is not None
            )
            s = ([v for v, _ in pairs], [r for _, r in pairs])
            self._sorted = s
        return s

    @property
    def nrows(self) -> int:
        return len(self.vids)

    def full_mask(self) -> int:
        return (1 << len(self.vids)) - 1

    def valid_mask(self) -> int:
        m = self._valid_mask
        if m is None:
            m = int.from_bytes(bytes(self.valid), "little")
            self._valid_mask = m
        return m

    def live_values(self) -> list:
        """Values of live rows — the stats builders' column scan."""
        live = self.live
        return [
            v
            for r, v in enumerate(self.boxed())
            if live[r >> 3] >> (r & 7) & 1
        ]

    def vids_for_mask(self, mask: int) -> frozenset[int]:
        """Decode a row bitmask to the vertex ids of its set rows."""
        if mask == 0:
            return frozenset()
        vids = self.vids
        out = []
        base = 0
        for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
            if byte:
                for bit in _BITS[byte]:
                    out.append(vids[base + bit])
            base += 8
        return frozenset(out)

    # ------------------------------------------------------------------
    # leaf evaluation
    # ------------------------------------------------------------------

    def leaf_mask(self, op: str, quantifier: str, consts: tuple, mirrored: bool) -> int:
        """Row mask of one compiled comparison leaf.

        Mirrors ``Comparison.evaluate`` on a singleton pattern: the column
        side contributes exactly one value per row, the const side the
        tuple ``consts``; ``exists`` ORs the per-const results, ``forall``
        ANDs them.
        """
        if not consts:
            return 0
        cacheable = self.kind != "object" and all(_clean(c) for c in consts)
        key = None
        if cacheable:
            key = (
                op,
                quantifier,
                mirrored,
                tuple((type(c).__name__, repr(c)) for c in consts),
            )
            cached = self._leaf_masks.get(key)
            if cached is not None:
                return cached
        if op == "in" and not mirrored:
            # evaluate: results = [v in pool] — one result per row, so the
            # quantifier is irrelevant.
            if cacheable and self.kind is not None:
                mask = 0
                for c in consts:
                    mask |= self._eq_mask(c)
            else:
                pool = list(consts)
                nbytes = (len(self.vids) + 7) >> 3
                mask = _mask_of_rows(
                    (r for r, v in enumerate(self.boxed()) if v in pool), nbytes
                )
        else:
            mask = None
            for c in consts:
                m = self._cmp_mask(op, c, mirrored)
                if mask is None:
                    mask = m
                elif quantifier == "exists":
                    mask |= m
                else:
                    mask &= m
            if mask is None:  # pragma: no cover - consts checked above
                mask = 0
        if key is not None:
            self._leaf_masks[key] = mask
        return mask

    def _eq_mask(self, c: Any) -> int:
        """Rows with value == c (typed kinds, clean const)."""
        if c is None:
            return self.full_mask() & ~self.valid_mask()
        nbytes = (len(self.vids) + 7) >> 3
        return _mask_of_rows(self.groups().get(c, ()), nbytes)

    def _cmp_mask(self, op: str, c: Any, mirrored: bool) -> int:
        kind = self.kind
        fast = kind != "object" and _clean(c)
        if fast:
            if op == "=":
                return self._eq_mask(c)
            if op == "!=":
                if c is None:
                    return self.valid_mask()
                return self.full_mask() & ~self._eq_mask(c)
            if op == "in":  # mirrored element: c is v or v == c ⇔ v == c here
                return self._eq_mask(c)
            # ordered op: None / cross-type comparisons raise TypeError →
            # False for every row; same-type bisect otherwise.
            if c is None or kind is None:
                return 0
            comparable = (
                type(c) is str if kind == "str" else not isinstance(c, str)
            )
            if not comparable:
                return 0
            return self._bisect_mask(_FLIP[op] if mirrored else op, c)
        return self._scan_mask(op, c, mirrored)

    def _bisect_mask(self, op: str, c: Any) -> int:
        from bisect import bisect_left, bisect_right

        vals, rows = self.sorted_index()
        if op in ("<", ">="):
            idx = bisect_left(vals, c)
        else:
            idx = bisect_right(vals, c)
        selected = rows[:idx] if op in ("<", "<=") else rows[idx:]
        return _mask_of_rows(selected, (len(self.vids) + 7) >> 3)

    def _scan_mask(self, op: str, c: Any, mirrored: bool) -> int:
        """Generic per-row scan replicating evaluate's exact semantics."""
        buf = bytearray((len(self.vids) + 7) >> 3)
        if op == "in":  # mirrored single-element membership: c in [v]
            for r, v in enumerate(self.boxed()):
                if c is v or v == c:
                    buf[r >> 3] |= 1 << (r & 7)
        else:
            compare = _ORDERED.get(op) or (
                operator.eq if op == "=" else operator.ne
            )
            if mirrored:
                for r, v in enumerate(self.boxed()):
                    try:
                        hit = bool(compare(c, v))
                    except TypeError:
                        hit = False
                    if hit:
                        buf[r >> 3] |= 1 << (r & 7)
            else:
                for r, v in enumerate(self.boxed()):
                    try:
                        hit = bool(compare(v, c))
                    except TypeError:
                        hit = False
                    if hit:
                        buf[r >> 3] |= 1 << (r & 7)
        return int.from_bytes(buf, "little")

    def __repr__(self) -> str:
        return f"Column({self.cls!r}, kind={self.kind!r}, {len(self.vids)} row(s))"


# ----------------------------------------------------------------------
# predicate compilation
# ----------------------------------------------------------------------

_TRUE = ("true",)
_FALSE = ("false",)


def compile_select(predicate: Predicate, cls: str):
    """Lower ``predicate`` over singleton patterns of ``cls`` to a mask
    program, or ``None`` when any part is uncompilable."""
    try:
        return _compile_cached(predicate, cls)
    except TypeError:  # unhashable predicate parts: compile uncached
        return _compile(predicate, partial(_compile_comparison, cls=cls))


@lru_cache(maxsize=512)
def _compile_cached(predicate: Predicate, cls: str):
    return _compile(predicate, partial(_compile_comparison, cls=cls))


def _compile(predicate: Predicate, leaf):
    """Fold ``predicate``'s combinators around its comparisons, each
    lowered by ``leaf`` (``None`` anywhere makes the whole tree ``None``)."""
    if isinstance(predicate, TruePredicate):
        return _TRUE
    if isinstance(predicate, Comparison):
        return leaf(predicate)
    if isinstance(predicate, (And, Or)):
        conj = isinstance(predicate, And)
        absorb, identity = (_FALSE, _TRUE) if conj else (_TRUE, _FALSE)
        children = []
        for child in predicate.operands:
            node = _compile(child, leaf)
            if node is None:
                return None
            if node == absorb:
                return absorb
            if node != identity:
                children.append(node)
        if not children:
            return identity
        if len(children) == 1:
            return children[0]
        return ("and" if conj else "or", tuple(children))
    if isinstance(predicate, Not):
        node = _compile(predicate.operand, leaf)
        if node is None:
            return None
        if node == _TRUE:
            return _FALSE
        if node == _FALSE:
            return _TRUE
        return ("not", node)
    return None  # Callback / unknown predicate: object path only


def _classify(value: ValueExpr, cls: str):
    """("col",) | ("consts", values) | None (uncompilable side).

    ``ClassValues`` of another class yields no values over a singleton
    pattern of ``cls`` — it contributes an empty const list, exactly like
    ``evaluate`` would see.
    """
    if isinstance(value, Const):
        return ("consts", (value.value,))
    if isinstance(value, ClassValues):
        if value.cls == cls:
            return ("col",)
        return ("consts", ())
    if isinstance(value, ValueUnion):
        out: list = []
        for operand in value.operands:
            part = _classify(operand, cls)
            if part is None or part[0] == "col":
                return None
            out.extend(part[1])
        return ("consts", tuple(out))
    return None


def _compile_comparison(p: Comparison, cls: str):
    left = _classify(p.left, cls)
    right = _classify(p.right, cls)
    if left is None or right is None:
        return None
    if left[0] == "col" and right[0] == "col":
        return None
    if left[0] == "consts" and right[0] == "consts":
        return _fold_const(p.op, p.quantifier, left[1], right[1])
    mirrored = right[0] == "col"
    consts = left[1] if mirrored else right[1]
    if not consts:
        # evaluate: an empty operand side yields no results → False
        # (non-in), an empty pool → membership False (in).
        return _FALSE
    return ("leaf", p.op, p.quantifier, consts, mirrored)


def _fold_const(op: str, quantifier: str, lefts: tuple, rights: tuple):
    """Constant-fold a comparison with no column reference, replicating
    evaluate exactly.  Exotic operands whose comparison raises are left
    to the object path (which raises identically at run time)."""
    try:
        if op == "in":
            pool = list(rights)
            results = [l in pool for l in lefts]
        else:
            compare = _ORDERED.get(op) or (
                operator.eq if op == "=" else operator.ne
            )
            results = []
            for l in lefts:
                for r in rights:
                    try:
                        results.append(bool(compare(l, r)))
                    except TypeError:
                        results.append(False)
        if not results:
            return _FALSE
        hit = any(results) if quantifier == "exists" else all(results)
    except Exception:
        return None
    return _TRUE if hit else _FALSE


def compiled_select_probe(expr: Expr) -> str | None:
    """The class of a Select answerable by compiled column masks.

    Matches ``σ(X)[...]`` over a bare class extent whose predicate
    compiles; returns the class name, else ``None``.
    """
    if not isinstance(expr, Select) or not isinstance(expr.operand, ClassExtent):
        return None
    cls = expr.operand.name
    if compile_select(expr.predicate, cls) is None:
        return None
    return cls


# ----------------------------------------------------------------------
# σ over multi-instance patterns
# ----------------------------------------------------------------------


def compile_pattern_select(predicate: Predicate):
    """Lower ``predicate`` over arbitrary patterns to an *atom* program,
    or ``None`` when any part must run on the object path.

    Over a pattern holding several instances of a class, a comparison
    between that class's values and constants is an ∃ (or ∀) over the
    instance-by-constant pairs, so it decomposes per instance: the
    pattern satisfies it iff some (or, non-vacuously, every) one of its
    instances satisfies the same comparison as a singleton — exactly the
    vid set :meth:`ColumnStore.eval_select` returns for the atom.  Program
    nodes are ``("atom", cls, forall, comparison)`` plus the
    ``and``/``or``/``not``/``true``/``false`` combinators, folded like
    :func:`compile_select`'s; combinators apply per pattern.

    Uncompilable: ``Callback`` and any value other than constants and one
    class's values (``Apply``, ``ClassInstances``), comparisons with class
    values on both sides, and ``const in Class`` under ``forall`` — its
    "every constant occurs among the instances" reading is not a
    per-instance test.
    """
    try:
        return _compile_pattern_cached(predicate)
    except TypeError:  # unhashable predicate parts: compile uncached
        return _compile(predicate, _compile_atom)


@lru_cache(maxsize=512)
def _compile_pattern_cached(predicate: Predicate):
    return _compile(predicate, _compile_atom)


def _value_classes(value: ValueExpr) -> frozenset | None:
    """Classes whose values ``value`` reads; ``None`` if not column-backed."""
    if isinstance(value, Const):
        return frozenset()
    if isinstance(value, ClassValues):
        return frozenset((value.cls,))
    if isinstance(value, ValueUnion):
        out: frozenset = frozenset()
        for operand in value.operands:
            part = _value_classes(operand)
            if part is None:
                return None
            out |= part
        return out
    return None


def _compile_atom(p: Comparison):
    left, right = _value_classes(p.left), _value_classes(p.right)
    if left is None or right is None or (left and right):
        return None
    classes = left | right
    if len(classes) > 1:
        return None
    cls = min(classes) if classes else None
    node = _compile_comparison(p, cls)
    if node is None or node[0] != "leaf":
        return node  # uncompilable, or folded to a constant
    if p.op == "in" and node[4] and p.quantifier == "forall":
        return None
    return ("atom", cls, p.quantifier == "forall", p)


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------


class ColumnStore:
    """Lazily materialized typed columns hanging off one arena.

    Thread-safe under the query service's worker threads, which share
    one database's store: one re-entrant lock covers materialization,
    event patching and mask evaluation (the lazily rebuilt per-column
    index structures are not safe to build concurrently).
    """

    def __init__(self, arena, metrics=None) -> None:
        self.arena = arena
        self.graph = arena.graph
        self._cols: dict[str, Column] = {}
        self._lock = threading.RLock()
        if metrics is not None:
            self._g_materialized = metrics.gauge(
                "repro_columns_materialized",
                "Classes with a materialized typed attribute column",
            )
        else:
            self._g_materialized = None

    def column(self, cls: str) -> Column:
        """The (materializing-on-first-use) column of ``cls``."""
        col = self._cols.get(cls)
        if col is None:
            with self._lock:
                col = self._cols.get(cls)
                if col is None:
                    col = Column(cls)
                    vid = self.arena.vid
                    value = self.graph.value
                    for iid in sorted(self.graph.extent(cls)):
                        col.upsert(vid(iid), value(iid))
                    self._cols[cls] = col
                    if self._g_materialized is not None:
                        self._g_materialized.set(len(self._cols))
        return col

    def is_materialized(self, cls: str) -> bool:
        return cls in self._cols

    def values_snapshot(self, cls: str) -> list | None:
        """Live values of ``cls`` straight from its column — the same
        multiset ``[graph.value(i) for i in extent]`` would produce —
        or ``None`` when the column is not materialized."""
        col = self._cols.get(cls)
        if col is None:
            return None
        with self._lock:
            return col.live_values()

    def eval_select(self, predicate: Predicate, cls: str) -> frozenset[int] | None:
        """Vertex ids of ``cls`` whose singleton pattern satisfies
        ``predicate``, via compiled masks; ``None`` if uncompilable."""
        program = compile_select(predicate, cls)
        if program is None:
            return None
        with self._lock:
            col = self.column(cls)
            mask = _eval_node(program, col)
            return col.vids_for_mask(mask)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def apply(self, event) -> None:
        """Patch materialized columns from one mutation event.

        The graph is updated before events are emitted, so
        ``graph.value`` reads the post-mutation value.  Classes without a
        materialized column ignore their events — materialization always
        scans the current extent.
        """
        kind = event.kind
        if kind not in ("insert", "update", "delete"):
            return
        for instance in event.instances:
            col = self._cols.get(instance.cls)
            if col is None:
                continue
            with self._lock:
                if kind == "delete":
                    col.kill(self.arena.vid(instance))
                else:
                    col.upsert(
                        self.arena.vid(instance),
                        self.graph.value(instance),
                        revive=(kind == "insert"),
                    )

    def reset(self) -> None:
        """Version-guard reset: vertex ids are being reissued, so every
        column (keyed by vid) is meaningless — drop them all."""
        with self._lock:
            self._cols.clear()
            if self._g_materialized is not None:
                self._g_materialized.set(0)

    def __str__(self) -> str:
        return f"ColumnStore({len(self._cols)} column(s))"


def _eval_node(node, col: Column) -> int:
    tag = node[0]
    if tag == "leaf":
        return col.leaf_mask(node[1], node[2], node[3], node[4])
    if tag == "and":
        mask = col.full_mask()
        for child in node[1]:
            mask &= _eval_node(child, col)
            if not mask:
                break
        return mask
    if tag == "or":
        mask = 0
        for child in node[1]:
            mask |= _eval_node(child, col)
        return mask
    if tag == "not":
        return col.full_mask() & ~_eval_node(node[1], col)
    if tag == "true":
        return col.full_mask()
    return 0  # "false"
