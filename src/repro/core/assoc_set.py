"""Association-sets: the operands of the nine A-algebra operators (§3.2).

An association-set is "a set of association patterns without duplicates".
:class:`AssociationSet` wraps a frozenset of :class:`~repro.core.pattern.Pattern`
objects and exposes the class-level bookkeeping the operator definitions
need (which classes occur, which instances of a class occur, which patterns
hold an instance of a class).

The empty association-set ``φ`` is a valid value (``AssociationSet.empty()``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Iterator, Mapping

from repro.core.identity import IID
from repro.core.pattern import Pattern

__all__ = ["AssociationSet"]


class AssociationSet:
    """An immutable, duplicate-free set of association patterns."""

    __slots__ = ("_patterns", "_hash", "_by_class", "wire_form")

    def __init__(self, patterns: Iterable[Pattern] = ()) -> None:
        # frozenset() of a frozenset is a no-op in CPython, so feeding an
        # already-frozen pattern set through here costs nothing extra; the
        # hash is computed lazily because intermediate sets built inside
        # operators are often iterated once and never hashed.
        self._patterns = frozenset(patterns)
        self._hash: int | None = None
        self._by_class: Mapping[str, tuple[tuple[Pattern, frozenset[IID]], ...]] | None
        self._by_class = None
        #: Memo slot for whichever layer serializes this (immutable) set
        #: — ``repro.server`` keeps its wire encoding here, so the bytes
        #: are shared by every request served from this object and freed
        #: with it.
        self.wire_form: object | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "AssociationSet":
        """The empty association-set φ."""
        return cls(())

    @classmethod
    def from_frozen(cls, patterns: frozenset[Pattern]) -> "AssociationSet":
        """Bulk-construct fast path: wrap an already-deduplicated frozenset
        of validated patterns without copying or revalidating it.

        Operators and the compact decode path build their result as a set
        of patterns that each went through a trusted constructor; wrapping
        that set is all the work left to do.
        """
        self = object.__new__(cls)
        self._patterns = patterns
        self._hash = None
        self._by_class = None
        self.wire_form = None
        return self

    @classmethod
    def of_inners(cls, iids: Iterable[IID]) -> "AssociationSet":
        """An association-set of Inner-patterns, one per instance.

        This is how a bare class name in an algebra expression denotes its
        extent: ``A`` evaluates to ``{(a1), (a2), ...}``.
        """
        return cls.from_frozen(frozenset(Pattern.inner(i) for i in iids))

    @classmethod
    def single(cls, pattern: Pattern) -> "AssociationSet":
        return cls((pattern,))

    # ------------------------------------------------------------------
    # set behaviour
    # ------------------------------------------------------------------

    @property
    def patterns(self) -> frozenset[Pattern]:
        return self._patterns

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self._patterns)

    def __len__(self) -> int:
        return len(self._patterns)

    def __bool__(self) -> bool:
        return bool(self._patterns)

    def __contains__(self, pattern: object) -> bool:
        return pattern in self._patterns

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AssociationSet):
            return NotImplemented
        return self._patterns == other._patterns

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self._patterns)
        return h

    def __or__(self, other: "AssociationSet") -> "AssociationSet":
        return AssociationSet(self._patterns | other._patterns)

    def filter(self, keep: Callable[[Pattern], bool]) -> "AssociationSet":
        """A new association-set of the patterns satisfying ``keep``."""
        return AssociationSet(p for p in self._patterns if keep(p))

    def map(self, transform: Callable[[Pattern], Pattern]) -> "AssociationSet":
        """A new association-set of transformed patterns (deduplicated)."""
        return AssociationSet(transform(p) for p in self._patterns)

    # ------------------------------------------------------------------
    # class-level bookkeeping
    # ------------------------------------------------------------------

    def classes(self) -> frozenset[str]:
        """Every class with at least one Inner-pattern in some pattern."""
        out: set[str] = set()
        for p in self._patterns:
            out |= p.classes()
        return frozenset(out)

    def has_class(self, cls: str) -> bool:
        """Whether any pattern holds an Inner-pattern of ``cls``."""
        return any(p.has_class(cls) for p in self._patterns)

    def instances_of(self, cls: str) -> frozenset[IID]:
        """Every instance of ``cls`` occurring anywhere in the set."""
        out: set[IID] = set()
        for pattern, insts in self._indexed(cls):
            out |= insts
        return frozenset(out)

    def patterns_with_class(self, cls: str) -> Iterator[tuple[Pattern, frozenset[IID]]]:
        """Yield ``(pattern, instances-of-cls-in-pattern)`` pairs.

        Only patterns with at least one instance of ``cls`` are yielded.
        The index is built once per class and cached — the operator
        implementations iterate it repeatedly.
        """
        return iter(self._indexed(cls))

    def _indexed(self, cls: str) -> tuple[tuple[Pattern, frozenset[IID]], ...]:
        if self._by_class is None:
            index: dict[str, list[tuple[Pattern, frozenset[IID]]]] = defaultdict(list)
            for pattern in self._patterns:
                grouped: dict[str, set[IID]] = defaultdict(set)
                for vertex in pattern.vertices:
                    grouped[vertex.cls].add(vertex)
                for name, insts in grouped.items():
                    index[name].append((pattern, frozenset(insts)))
            self._by_class = {name: tuple(rows) for name, rows in index.items()}
        return self._by_class.get(cls, ())

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        if not self._patterns:
            return "{φ}"
        rows = sorted(str(p) for p in self._patterns)
        return "{" + ", ".join(rows) + "}"

    def __repr__(self) -> str:
        return f"AssociationSet({len(self._patterns)} patterns)"

    def pretty(self) -> str:
        """Multi-line rendering, one pattern per row (figure style)."""
        if not self._patterns:
            return "φ"
        return "\n".join(sorted(str(p) for p in self._patterns))
