"""Schema Graph — the intensional database (§3.1).

``SG(C, A)``: vertices are object classes, edges are associations.  The
paper stresses that associations are *type-less* from the algebra's point of
view — aggregation, generalization, interaction etc. are semantics enforced
by the DBMS or by rules, not by the algebra.  We therefore store an
association *kind* purely as metadata: the algebra never branches on it,
but the object-graph builder uses generalization edges to auto-link the
instances of one object across a class lattice (dynamic inheritance, §2),
and renderers use kinds to draw the right figure glyphs.

Classes come in two flavours (Figure 1):

* **nonprimitive** — entity classes whose instances are real-world objects
  (rectangles in the figures);
* **primitive** — domain classes whose instances carry self-describing
  values such as integers and strings (circles in the figures).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.errors import (
    AmbiguousAssociationError,
    DuplicateDefinitionError,
    SchemaError,
    UnknownAssociationError,
    UnknownClassError,
)

__all__ = ["ClassKind", "AssociationKind", "ClassDef", "Association", "SchemaGraph"]


class ClassKind(enum.Enum):
    """Rectangle or circle in the paper's schema figures."""

    NONPRIMITIVE = "nonprimitive"
    PRIMITIVE = "primitive"


class AssociationKind(enum.Enum):
    """Metadata tag for an association edge (type-less to the algebra)."""

    AGGREGATION = "aggregation"
    GENERALIZATION = "generalization"
    INTERACTION = "interaction"


@dataclass(frozen=True)
class ClassDef:
    """A vertex of the schema graph."""

    name: str
    kind: ClassKind = ClassKind.NONPRIMITIVE
    doc: str = ""

    @property
    def is_primitive(self) -> bool:
        return self.kind is ClassKind.PRIMITIVE


@dataclass(frozen=True)
class Association:
    """An edge ``A_ij(k)`` of the schema graph.

    ``name`` is the distinguishing number/label ``k`` of the paper — it
    disambiguates multiple edges between the same two classes.  ``left``
    and ``right`` record the declared orientation; the edge itself is
    bi-directional ("All edges are bi-directional", §2).

    For a generalization edge the convention is ``left`` = subclass,
    ``right`` = superclass.
    """

    left: str
    right: str
    name: str
    kind: AssociationKind = AssociationKind.AGGREGATION

    @property
    def key(self) -> tuple[str, str, str]:
        """Canonical identity of the edge (unordered endpoints + name)."""
        lo, hi = sorted((self.left, self.right))
        return (lo, hi, self.name)

    def joins(self, a: str, b: str) -> bool:
        """Whether this association connects classes ``a`` and ``b``."""
        return {self.left, self.right} == {a, b}

    def touches(self, cls: str) -> bool:
        return cls in (self.left, self.right)

    def other(self, cls: str) -> str:
        """The class at the opposite end from ``cls``."""
        if cls == self.left:
            return self.right
        if cls == self.right:
            return self.left
        raise SchemaError(f"class {cls!r} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"[{self.name}({self.left},{self.right})]"


class SchemaGraph:
    """A mutable schema graph with symmetric association lookup."""

    def __init__(self, name: str = "schema") -> None:
        self.name = name
        self._classes: dict[str, ClassDef] = {}
        self._associations: dict[tuple[str, str, str], Association] = {}
        #: class → its associations, keyed by canonical key in declaration
        #: order (a dict, not a set: iteration order must not depend on
        #: hashing).
        self._incident: dict[str, dict[tuple[str, str, str], Association]] = {}

    # ------------------------------------------------------------------
    # classes
    # ------------------------------------------------------------------

    def add_class(
        self,
        name: str,
        kind: ClassKind = ClassKind.NONPRIMITIVE,
        doc: str = "",
    ) -> ClassDef:
        """Declare a class.  Redeclaration with identical kind is an error."""
        if name in self._classes:
            raise DuplicateDefinitionError(f"class {name!r} already defined")
        cdef = ClassDef(name, kind, doc)
        self._classes[name] = cdef
        self._incident[name] = {}
        return cdef

    def add_entity_class(self, name: str, doc: str = "") -> ClassDef:
        """Shorthand for a nonprimitive class (a figure rectangle)."""
        return self.add_class(name, ClassKind.NONPRIMITIVE, doc)

    def add_domain_class(self, name: str, doc: str = "") -> ClassDef:
        """Shorthand for a primitive class (a figure circle)."""
        return self.add_class(name, ClassKind.PRIMITIVE, doc)

    def class_def(self, name: str) -> ClassDef:
        """The declaration of class ``name`` (raises if unknown)."""
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownClassError(name) from None

    def has_class(self, name: str) -> bool:
        """Whether a class named ``name`` is declared."""
        return name in self._classes

    @property
    def classes(self) -> tuple[ClassDef, ...]:
        return tuple(self._classes.values())

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(self._classes)

    # ------------------------------------------------------------------
    # associations
    # ------------------------------------------------------------------

    def add_association(
        self,
        left: str,
        right: str,
        name: str | None = None,
        kind: AssociationKind = AssociationKind.AGGREGATION,
    ) -> Association:
        """Declare an association edge between two declared classes.

        ``name`` defaults to ``"<left>__<right>"``; supply explicit names
        when two classes share more than one edge (the ``k`` of
        ``A_ij(k)``).
        """
        for cls in (left, right):
            if cls not in self._classes:
                raise UnknownClassError(cls)
        if name is None:
            name = f"{left}__{right}"
        assoc = Association(left, right, name, kind)
        if assoc.key in self._associations:
            raise DuplicateDefinitionError(
                f"association {name!r} between {left!r} and {right!r} already defined"
            )
        self._associations[assoc.key] = assoc
        self._incident[left][assoc.key] = assoc
        self._incident[right][assoc.key] = assoc
        return assoc

    def add_generalization(self, subclass: str, superclass: str) -> Association:
        """Declare ``subclass`` *is-a* ``superclass`` (a G-edge)."""
        return self.add_association(
            subclass,
            superclass,
            name=f"isa_{subclass}_{superclass}",
            kind=AssociationKind.GENERALIZATION,
        )

    def associations_between(self, a: str, b: str) -> tuple[Association, ...]:
        """All edges joining classes ``a`` and ``b`` (possibly none), in
        declaration order."""
        lo, hi = sorted((a, b))
        return tuple(
            assoc
            for key, assoc in self._incident.get(a, {}).items()
            if key[0] == lo and key[1] == hi
        )

    def resolve(self, a: str, b: str, name: str | None = None) -> Association:
        """The unique association between ``a`` and ``b`` (or the named one).

        Raises :class:`UnknownAssociationError` when none exists and
        :class:`AmbiguousAssociationError` when several do and no name was
        given — mirroring the paper's rule that ``[R(A,B)]`` may be omitted
        only "if there is a unique association between these two classes".
        """
        candidates = self.associations_between(a, b)
        if name is not None:
            for assoc in candidates:
                if assoc.name == name:
                    return assoc
            raise UnknownAssociationError(a, b, name)
        if not candidates:
            raise UnknownAssociationError(a, b)
        if len(candidates) > 1:
            raise AmbiguousAssociationError(a, b, [c.name for c in candidates])
        return candidates[0]

    def association(self, key: tuple[str, str, str]) -> Association:
        """Look an association up by its canonical ``key``."""
        try:
            return self._associations[key]
        except KeyError:
            raise UnknownAssociationError(key[0], key[1], key[2]) from None

    @property
    def associations(self) -> tuple[Association, ...]:
        return tuple(self._associations.values())

    def incident(self, cls: str) -> tuple[Association, ...]:
        """Every association touching class ``cls``."""
        if cls not in self._classes:
            raise UnknownClassError(cls)
        incident = self._incident[cls]
        return tuple(incident[key] for key in sorted(incident))

    def neighbors(self, cls: str) -> frozenset[str]:
        """Classes adjacent to ``cls`` in the schema graph."""
        return frozenset(assoc.other(cls) for assoc in self.incident(cls))

    # ------------------------------------------------------------------
    # generalization lattice helpers (dynamic inheritance, §2)
    # ------------------------------------------------------------------

    def direct_superclasses(self, cls: str) -> frozenset[str]:
        """Classes one is-a edge above ``cls``."""
        return frozenset(
            assoc.right
            for assoc in self.incident(cls)
            if assoc.kind is AssociationKind.GENERALIZATION and assoc.left == cls
        )

    def direct_subclasses(self, cls: str) -> frozenset[str]:
        """Classes one is-a edge below ``cls``."""
        return frozenset(
            assoc.left
            for assoc in self.incident(cls)
            if assoc.kind is AssociationKind.GENERALIZATION and assoc.right == cls
        )

    def superclasses(self, cls: str) -> frozenset[str]:
        """Transitive superclasses of ``cls`` (excluding ``cls`` itself)."""
        out: set[str] = set()
        frontier = [cls]
        while frontier:
            here = frontier.pop()
            for sup in self.direct_superclasses(here):
                if sup not in out:
                    out.add(sup)
                    frontier.append(sup)
        return frozenset(out)

    def subclasses(self, cls: str) -> frozenset[str]:
        """Transitive subclasses of ``cls`` (excluding ``cls`` itself)."""
        out: set[str] = set()
        frontier = [cls]
        while frontier:
            here = frontier.pop()
            for sub in self.direct_subclasses(here):
                if sub not in out:
                    out.add(sub)
                    frontier.append(sub)
        return frozenset(out)

    def generalization_path(self, subclass: str, superclass: str) -> list[str] | None:
        """A shortest is-a path from ``subclass`` up to ``superclass``.

        Returns the class sequence including both endpoints, or ``None``
        when ``superclass`` is not reachable upward.  Used by the OQL
        compiler to expand inheritance shorthand into explicit navigation,
        as §2 describes ("the query interpreter will translate it into the
        corresponding A-algebra expression based on the schema definition").
        """
        if subclass == superclass:
            return [subclass]
        frontier: list[list[str]] = [[subclass]]
        seen = {subclass}
        while frontier:
            next_frontier: list[list[str]] = []
            for path in frontier:
                for sup in sorted(self.direct_superclasses(path[-1])):
                    if sup in seen:
                        continue
                    if sup == superclass:
                        return path + [sup]
                    seen.add(sup)
                    next_frontier.append(path + [sup])
            frontier = next_frontier
        return None

    # ------------------------------------------------------------------
    # validation / traversal
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check internal consistency; raises :class:`SchemaError` on failure."""
        for assoc in self._associations.values():
            for cls in (assoc.left, assoc.right):
                if cls not in self._classes:
                    raise SchemaError(f"{assoc} references unknown class {cls!r}")
            if assoc.kind is AssociationKind.GENERALIZATION:
                if self._classes[assoc.left].is_primitive:
                    raise SchemaError(
                        f"{assoc}: a primitive class cannot be a subclass"
                    )
        # The generalization relation must be acyclic (a hierarchy/lattice).
        state: dict[str, int] = {}

        def visit(cls: str) -> None:
            state[cls] = 1
            for sup in self.direct_superclasses(cls):
                mark = state.get(sup, 0)
                if mark == 1:
                    raise SchemaError(f"generalization cycle through {cls!r}")
                if mark == 0:
                    visit(sup)
            state[cls] = 2

        for cls in self._classes:
            if state.get(cls, 0) == 0:
                visit(cls)

    def path_between(self, src: str, dst: str) -> list[Association] | None:
        """A shortest association path between two classes (BFS).

        Used by query helpers to suggest navigation chains; returns ``None``
        when the classes are in different schema components.
        """
        if src == dst:
            return []
        if src not in self._classes:
            raise UnknownClassError(src)
        if dst not in self._classes:
            raise UnknownClassError(dst)
        frontier: list[tuple[str, list[Association]]] = [(src, [])]
        seen = {src}
        while frontier:
            next_frontier: list[tuple[str, list[Association]]] = []
            for here, path in frontier:
                for assoc in self.incident(here):
                    nxt = assoc.other(here)
                    if nxt in seen:
                        continue
                    if nxt == dst:
                        return path + [assoc]
                    seen.add(nxt)
                    next_frontier.append((nxt, path + [assoc]))
            frontier = next_frontier
        return None

    def __iter__(self) -> Iterator[ClassDef]:
        return iter(self._classes.values())

    def __contains__(self, name: object) -> bool:
        return name in self._classes

    def __str__(self) -> str:
        return (
            f"SchemaGraph({self.name!r}: {len(self._classes)} classes, "
            f"{len(self._associations)} associations)"
        )
